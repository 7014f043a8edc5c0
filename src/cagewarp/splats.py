"""Gaussian splat data model and binary PLY interchange.

The on-disk layout is the de-facto splat PLY: one binary little-endian
"vertex" element whose float32 properties are, in order,

    x y z nx ny nz f_dc_0..2 [f_rest_0..K-1] opacity scale_0..2 rot_0..3

with K in {0, 9, 24, 45} for spherical-harmonics degrees 0..3. Normals are
ignored on read and written as zeros. All in-memory arithmetic is float64;
conversion to float32 happens only at the file boundary.

Stored fields are pre-activation: scales as logs, opacity as a logit, the
rotation as an unnormalized (w, x, y, z) quaternion.
"""

from __future__ import annotations

import dataclasses
import io
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateRotationError,
    PlyFormatError,
    PlyReadError,
    UnsupportedLayoutError,
)
from .rotations import quat_to_matrix

_SH_REST_WIDTHS = {0: 0, 1: 9, 2: 24, 3: 45}
_SH_DEGREE_BY_WIDTH = {v: k for k, v in _SH_REST_WIDTHS.items()}

_REQUIRED_PROPERTIES = (
    "x", "y", "z",
    "f_dc_0", "f_dc_1", "f_dc_2",
    "opacity",
    "scale_0", "scale_1", "scale_2",
    "rot_0", "rot_1", "rot_2", "rot_3",
)

_FLOAT_NAMES = {"float", "float32"}


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
        if self.sh_rest.shape[0] != n or self.sh_rest.shape[1] not in _SH_DEGREE_BY_WIDTH:
            raise UnsupportedLayoutError(
                f"sh_rest width must be one of {sorted(_SH_DEGREE_BY_WIDTH)}, "
                f"got shape {self.sh_rest.shape}")
        if not np.all(np.isfinite(self.sh_rest)):
            raise ValueError("sh_rest contains non-finite values")
        if n and np.any(np.linalg.norm(self.rotations, axis=1) < 1e-12):
            raise DegenerateRotationError("cloud contains a zero-norm quaternion")

    def __len__(self) -> int:
        return self.centers.shape[0]

    @property
    def sh_degree(self) -> int:
        return _SH_DEGREE_BY_WIDTH[self.sh_rest.shape[1]]

    def copy(self) -> "GaussianCloud":
        """Deep copy: the new cloud shares no array with this one.

        Derived clouds start here and swap in their new fields with
        dataclasses.replace, so untouched fields are never aliased.
        """
        return dataclasses.replace(self, **{
            f.name: getattr(self, f.name).copy()
            for f in dataclasses.fields(self)})

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned bounding box of the centers."""
        if len(self) == 0:
            raise ValueError("empty cloud has no bounding box")
        return self.centers.min(axis=0), self.centers.max(axis=0)


def covariances_of(rotations: np.ndarray, log_scales: np.ndarray) -> np.ndarray:
    """Batched covariance assembly: R S S^T R^T per row.

    rotations: (..., 4) unnormalized quaternions; log_scales: (..., 3).
    Returns (..., 3, 3) symmetric positive-definite matrices.
    """
    R = quat_to_matrix(rotations)
    var = np.exp(2.0 * np.asarray(log_scales, dtype=np.float64))
    # R @ diag(var) @ R^T without materializing the diagonal matrices
    return np.einsum("...ik,...k,...jk->...ij", R, var, R)


def _vertex_dtype(sh_rest_width: int) -> np.dtype:
    names = ["x", "y", "z", "nx", "ny", "nz", "f_dc_0", "f_dc_1", "f_dc_2"]
    names += [f"f_rest_{i}" for i in range(sh_rest_width)]
    names += ["opacity", "scale_0", "scale_1", "scale_2",
              "rot_0", "rot_1", "rot_2", "rot_3"]
    return np.dtype([(name, "<f4") for name in names])


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
            if tokens[1] not in _FLOAT_NAMES:
                raise PlyFormatError(
                    f"{path}: property {tokens[-1]!r} has unsupported type {tokens[1]!r}")
            properties.append(tokens[2])
        elif tokens[0] == "end_header":
            break
    if not fmt_seen:
        raise PlyFormatError(f"{path}: missing format line")
    if vertex_count < 0:
        raise PlyFormatError(f"{path}: missing vertex element")
    return properties, vertex_count, header_bytes


def _read_records(stream: io.BufferedReader, path, properties: list[str],
                  count: int, header_bytes: int) -> np.ndarray:
    """The count float32 vertex records that follow the header.

    Raises PlyReadError with the byte offset when the body is truncated.
    """
    dtype = np.dtype([(name, "<f4") for name in properties])
    body = stream.read(count * dtype.itemsize)
    if len(body) < count * dtype.itemsize:
        raise PlyReadError(
            f"{path}: truncated body, expected {count * dtype.itemsize} bytes "
            f"after the header but the file ends at byte offset "
            f"{header_bytes + len(body)}")
    return np.frombuffer(body, dtype=dtype, count=count)


def read_gs_ply(path) -> GaussianCloud:
    """Read a Gaussian splat PLY file.

    Raises PlyFormatError naming the first missing required property,
    UnsupportedLayoutError for f_rest counts outside {0, 9, 24, 45}, and
    PlyReadError with the byte offset when the body is truncated.
    """
    with open(path, "rb") as stream:
        properties, count, header_bytes = _parse_header(stream, path)

        present = set(properties)
        for name in _REQUIRED_PROPERTIES:
            if name not in present:
                raise PlyFormatError(f"{path}: missing required property {name!r}")
        rest_names = [p for p in properties if p.startswith("f_rest_")]
        width = len(rest_names)
        if width not in _SH_DEGREE_BY_WIDTH or \
                set(rest_names) != {f"f_rest_{i}" for i in range(width)}:
            raise UnsupportedLayoutError(
                f"{path}: {width} f_rest properties do not form a supported "
                f"layout (expected a complete f_rest_0..K-1 with K in "
                f"{sorted(_SH_DEGREE_BY_WIDTH)})")

        records = _read_records(stream, path, properties, count,
                                header_bytes)

    def col(name):
        return records[name].astype(np.float64)

    centers = np.stack([col("x"), col("y"), col("z")], axis=1)
    sh_dc = np.stack([col(f"f_dc_{i}") for i in range(3)], axis=1)
    if width:
        sh_rest = np.stack([col(f"f_rest_{i}") for i in range(width)], axis=1)
    else:
        sh_rest = np.zeros((count, 0), dtype=np.float64)
    log_scales = np.stack([col(f"scale_{i}") for i in range(3)], axis=1)
    rotations = np.stack([col(f"rot_{i}") for i in range(4)], axis=1)
    return GaussianCloud(
        centers=centers,
        log_scales=log_scales,
        rotations=rotations,
        opacity_logits=col("opacity"),
        sh_dc=sh_dc,
        sh_rest=sh_rest,
    )


def write_gs_ply(cloud: GaussianCloud, path) -> None:
    """Write a cloud as a binary little-endian splat PLY.

    Serialization is deterministic: the same cloud always produces the same
    bytes, and write -> read -> write is byte-identical.
    """
    n = len(cloud)
    if n == 0:
        raise ValueError("refusing to write an empty cloud")
    width = cloud.sh_rest.shape[1]
    dtype = _vertex_dtype(width)
    records = np.zeros(n, dtype=dtype)
    records["x"] = cloud.centers[:, 0]
    records["y"] = cloud.centers[:, 1]
    records["z"] = cloud.centers[:, 2]
    records["f_dc_0"] = cloud.sh_dc[:, 0]
    records["f_dc_1"] = cloud.sh_dc[:, 1]
    records["f_dc_2"] = cloud.sh_dc[:, 2]
    for i in range(width):
        records[f"f_rest_{i}"] = cloud.sh_rest[:, i]
    records["opacity"] = cloud.opacity_logits
    for i in range(3):
        records[f"scale_{i}"] = cloud.log_scales[:, i]
    for i in range(4):
        records[f"rot_{i}"] = cloud.rotations[:, i]

    header_lines = ["ply", "format binary_little_endian 1.0",
                    f"element vertex {n}"]
    header_lines += [f"property float {name}" for name in dtype.names]
    header_lines.append("end_header")
    header = ("\n".join(header_lines) + "\n").encode("ascii")
    with open(path, "wb") as stream:
        stream.write(header)
        stream.write(records.tobytes())
