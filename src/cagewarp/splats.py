"""Gaussian splat data model and binary PLY interchange.

The on-disk layout is the de-facto splat PLY: one binary little-endian
"vertex" element whose float32 properties are, in order,

    x y z nx ny nz f_dc_0..2 [f_rest_0..K-1] opacity scale_0..2 rot_0..3

with K in {0, 9, 24, 45} for spherical-harmonics degrees 0..3. Normals are
ignored on read and written as zeros. All in-memory arithmetic is float64;
conversion to float32 happens only at the file boundary.

Every PLY the package reads or writes goes through read_vertex_table and
write_vertex_table: the vertex element as one (N, properties) float32
table plus its property names.

Stored fields are pre-activation: scales as logs, opacity as a logit, the
rotation as an unnormalized (w, x, y, z) quaternion.
"""

from __future__ import annotations

import dataclasses
import io
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateRotationError,
    PlyFormatError,
    PlyReadError,
    UnsupportedLayoutError,
)
from .rotations import QUAT_NORM_FLOOR, quat_to_matrix

_SH_REST_WIDTHS = (0, 9, 24, 45)


def _vertex_layout(width: int) -> list[tuple[str | None, list[str]]]:
    """(GaussianCloud field, its properties) in file order for an SH rest
    width; the normals have no field."""
    return [("centers", ["x", "y", "z"]),
            (None, ["nx", "ny", "nz"]),
            ("sh_dc", [f"f_dc_{i}" for i in range(3)]),
            ("sh_rest", [f"f_rest_{i}" for i in range(width)]),
            ("opacity_logits", ["opacity"]),
            ("log_scales", [f"scale_{i}" for i in range(3)]),
            ("rotations", [f"rot_{i}" for i in range(4)])]


_REQUIRED_PROPERTIES = tuple(name for field, names in _vertex_layout(0)
                             if field for name in names)


@dataclass
class GaussianCloud:
    """An ordered collection of Gaussians stored as arrays-of-fields.

    Row i refers to the same Gaussian across every operation in this
    package; nothing reorders, drops, or inserts rows.
    """

    centers: np.ndarray        # (N, 3)
    log_scales: np.ndarray     # (N, 3)
    rotations: np.ndarray      # (N, 4) quaternions w, x, y, z
    opacity_logits: np.ndarray  # (N,)
    sh_dc: np.ndarray          # (N, 3)
    sh_rest: np.ndarray        # (N, K), K in {0, 9, 24, 45}

    def __post_init__(self):
        self.centers = np.ascontiguousarray(self.centers, dtype=np.float64)
        self.log_scales = np.ascontiguousarray(self.log_scales, dtype=np.float64)
        self.rotations = np.ascontiguousarray(self.rotations, dtype=np.float64)
        self.opacity_logits = np.ascontiguousarray(self.opacity_logits, dtype=np.float64)
        self.sh_dc = np.ascontiguousarray(self.sh_dc, dtype=np.float64)
        self.sh_rest = np.ascontiguousarray(self.sh_rest, dtype=np.float64)
        if self.sh_rest.ndim == 1:
            self.sh_rest = self.sh_rest.reshape(len(self.centers), -1)

        n = self.centers.shape[0]
        for name, arr, shape in (
            ("centers", self.centers, (n, 3)),
            ("log_scales", self.log_scales, (n, 3)),
            ("rotations", self.rotations, (n, 4)),
            ("opacity_logits", self.opacity_logits, (n,)),
            ("sh_dc", self.sh_dc, (n, 3)),
        ):
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")
        if self.sh_rest.shape[0] != n or self.sh_rest.shape[1] not in _SH_REST_WIDTHS:
            raise UnsupportedLayoutError(
                f"sh_rest width must be one of {list(_SH_REST_WIDTHS)}, "
                f"got shape {self.sh_rest.shape}")
        if not np.all(np.isfinite(self.sh_rest)):
            raise ValueError("sh_rest contains non-finite values")
        if n and np.any(np.linalg.norm(self.rotations, axis=1) < QUAT_NORM_FLOOR):
            raise DegenerateRotationError("cloud contains a zero-norm quaternion")

    def __len__(self) -> int:
        return self.centers.shape[0]

    def copy(self, **changes) -> "GaussianCloud":
        """Deep copy, with the fields named in changes set to the given
        arrays: the new cloud shares no array with this one unless changes
        pass one in.

        Derived clouds start here, so untouched fields are never aliased
        and replaced ones are never copied first.
        """
        return dataclasses.replace(self, **{
            f.name: getattr(self, f.name).copy()
            for f in dataclasses.fields(self) if f.name not in changes},
            **changes)

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned bounding box of the centers."""
        if len(self) == 0:
            raise ValueError("empty cloud has no bounding box")
        return self.centers.min(axis=0), self.centers.max(axis=0)


def covariances_of(rotations: np.ndarray, log_scales: np.ndarray) -> np.ndarray:
    """Batched covariance assembly: R S S^T R^T per row.

    rotations: (..., 4) unnormalized quaternions; log_scales: (..., 3).
    Returns (..., 3, 3) symmetric positive-definite matrices; scaling
    R's columns by the variances stands in for the product with S S^T.
    """
    R = quat_to_matrix(rotations)
    var = np.exp(2.0 * np.asarray(log_scales, dtype=np.float64))
    # R^T is copied: a transposed view would take BLAS's kernel for
    # transposed operands, whose code pages add 64 KB to the resident set.
    return (R * var[..., None, :]) @ np.swapaxes(R, -1, -2).copy()


def _parse_header(stream: io.BufferedReader, path) -> tuple[list[str], int, int]:
    """Parse the PLY header; returns (property names, vertex count, header bytes)."""
    magic = stream.readline()
    if magic.strip() != b"ply":
        raise PlyFormatError(f"{path}: not a PLY file (missing 'ply' magic)")
    header_bytes = len(magic)
    fmt_seen = False
    properties: list[str] = []
    vertex_count = -1
    in_vertex = False
    while True:
        line = stream.readline()
        if not line:
            raise PlyFormatError(f"{path}: header ended before end_header")
        header_bytes += len(line)
        tokens = line.decode("ascii", errors="replace").split()
        if not tokens or tokens[0] == "comment":
            continue
        if (tokens[0] == "element" and (len(tokens) != 3
                                        or not tokens[2].isdigit())) \
                or (tokens[0] == "property" and len(tokens) < 3):
            raise PlyFormatError(f"{path}: malformed header line "
                                 f"{' '.join(tokens)!r}")
        if tokens[0] == "format":
            if tokens[1:] != ["binary_little_endian", "1.0"]:
                raise PlyFormatError(
                    f"{path}: unsupported format {' '.join(tokens[1:])!r}; "
                    "only binary_little_endian 1.0 is supported")
            fmt_seen = True
        elif tokens[0] == "element":
            if tokens[1] == "vertex":
                vertex_count = int(tokens[2])
                in_vertex = True
            else:
                if vertex_count < 0:
                    raise PlyFormatError(
                        f"{path}: element {tokens[1]!r} precedes the vertex element")
                in_vertex = False
        elif tokens[0] == "property":
            if not in_vertex:
                continue
            if tokens[1] not in ("float", "float32"):
                raise PlyFormatError(
                    f"{path}: property {tokens[-1]!r} has unsupported type {tokens[1]!r}")
            if tokens[2] in properties:
                raise PlyFormatError(
                    f"{path}: duplicate property {tokens[2]!r}")
            properties.append(tokens[2])
        elif tokens[0] == "end_header":
            break
    if not fmt_seen:
        raise PlyFormatError(f"{path}: missing format line")
    if vertex_count < 0:
        raise PlyFormatError(f"{path}: missing vertex element")
    return properties, vertex_count, header_bytes


def read_vertex_table(path, required) -> tuple[list[str], np.ndarray]:
    """The vertex element of a binary PLY as (property names, table).

    table is the (count, len(names)) float32 array of the vertex records.
    Raises PlyFormatError naming the first missing required property and
    PlyReadError with the byte offset when the body is truncated.
    """
    with open(path, "rb") as stream:
        names, count, header_bytes = _parse_header(stream, path)
        for name in required:
            if name not in names:
                raise PlyFormatError(
                    f"{path}: missing required property {name!r}")
        expected = 4 * count * len(names)
        # Size a file before allocating, and read a pipe in bounded blocks,
        # so that a header claiming too many vertices cannot exhaust memory.
        if stream.seekable():
            body = os.fstat(stream.fileno()).st_size - header_bytes
            if body >= expected:
                table = np.empty((count, len(names)), dtype="<f4")
                body = stream.readinto(table)
        else:
            table = bytearray()
            while block := stream.read(min(expected - len(table), 1 << 16)):
                table += block
            body = len(table)
    if body < expected:
        raise PlyReadError(
            f"{path}: truncated body, expected {expected} bytes after "
            f"the header but the file ends at byte offset "
            f"{header_bytes + body}")
    return names, np.frombuffer(table, "<f4").reshape(count, len(names))


def write_vertex_table(path, names, table) -> None:
    """Write an (N, len(names)) table as the float32 vertex element of a
    binary little-endian PLY."""
    table = np.ascontiguousarray(table, dtype="<f4")
    header = ["ply", "format binary_little_endian 1.0",
              f"element vertex {len(table)}",
              *(f"property float {name}" for name in names), "end_header\n"]
    with open(path, "wb") as stream:
        stream.write("\n".join(header).encode("ascii"))
        stream.write(table)


def read_gs_ply(path) -> GaussianCloud:
    """Read a Gaussian splat PLY file.

    Raises PlyFormatError naming the first missing required property,
    UnsupportedLayoutError for f_rest counts outside {0, 9, 24, 45}, and
    PlyReadError with the byte offset when the body is truncated.
    """
    names, table = read_vertex_table(path, _REQUIRED_PROPERTIES)
    width = sum(name.startswith("f_rest_") for name in names)
    if width not in _SH_REST_WIDTHS or any(
            f"f_rest_{i}" not in names for i in range(width)):
        raise UnsupportedLayoutError(
            f"{path}: {width} f_rest properties do not form a supported "
            f"layout (expected a complete f_rest_0..K-1 with K in "
            f"{list(_SH_REST_WIDTHS)})")
    fields = {}
    for field, props in _vertex_layout(width):
        if field:
            # Column by column, so no float32 copy of the block is made.
            values = np.empty((len(table), len(props)))
            for j, name in enumerate(props):
                values[:, j] = table[:, names.index(name)]
            fields[field] = values
    fields["opacity_logits"] = fields["opacity_logits"][:, 0]
    return GaussianCloud(**fields)


def write_gs_ply(cloud: GaussianCloud, path) -> None:
    """Write a cloud as a binary little-endian splat PLY.

    Serialization is deterministic: the same cloud always produces the same
    bytes, and write -> read -> write is byte-identical.
    """
    n = len(cloud)
    if n == 0:
        raise ValueError("refusing to write an empty cloud")
    layout = _vertex_layout(cloud.sh_rest.shape[1])
    names = [name for _, props in layout for name in props]
    table = np.zeros((n, len(names)), dtype="<f4")
    end = 0
    for field, props in layout:
        start, end = end, end + len(props)
        if field:
            table[:, start:end] = getattr(cloud, field).reshape(n, -1)
    write_vertex_table(path, names, table)
