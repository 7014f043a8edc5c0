"""Gaussian splat data model and binary PLY interchange.

The on-disk layout is the de-facto splat PLY: one binary little-endian
"vertex" element whose float32 properties are, in order,

    x y z nx ny nz f_dc_0..2 [f_rest_0..K-1] opacity scale_0..2 rot_0..3

with K in {0, 9, 24, 45} for spherical-harmonics degrees 0..3. Normals are
ignored on read and written as zeros. The fields the warp computes on
(centers, scales, rotations) are float64 in memory and rounded to float32
only at the file boundary; the pass-through fields (opacity and the SH
coefficients) stay float32, the file's precision.

Every PLY the package reads or writes goes through read_vertex_blocks and
write_vertex_table: the vertex element as its property names and
(rows, properties) float32 tables. Reads, and splat writes, take blocks
of at most BLOCK_BYTES, so no splat PLY body is held whole.

Stored fields are pre-activation: scales as logs, opacity as a logit, the
rotation as an unnormalized (w, x, y, z) quaternion.
"""

from __future__ import annotations

import dataclasses
import io
import os
import tempfile
from contextlib import ExitStack, contextmanager
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
# The most bytes of PLY body read or written at a time: 1057 splats at SH
# width 45.
BLOCK_BYTES = 1 << 18


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


def _dtype_of(field: str):
    """float64 for the fields the warp computes on; the others pass
    through in the file's float32."""
    return np.float64 if field in ("centers", "log_scales", "rotations") \
        else np.float32


_REQUIRED_PROPERTIES = tuple(name for field, names in _vertex_layout(0)
                             if field for name in names)


@dataclass
class GaussianCloud:
    """An ordered collection of Gaussians stored as arrays-of-fields.

    Row i refers to the same Gaussian across every operation in this
    package; nothing reorders, drops, or inserts rows. centers,
    log_scales and rotations are float64; opacity_logits, sh_dc and
    sh_rest are float32, the file's precision, so a float64 value given
    for them is rounded to float32 on construction.
    """

    centers: np.ndarray        # (N, 3) float64
    log_scales: np.ndarray     # (N, 3) float64
    rotations: np.ndarray      # (N, 4) float64 quaternions w, x, y, z
    opacity_logits: np.ndarray  # (N,) float32
    sh_dc: np.ndarray          # (N, 3) float32
    sh_rest: np.ndarray        # (N, K) float32, K in {0, 9, 24, 45}

    def __post_init__(self):
        # A value outside float32's range becomes inf, which the finiteness
        # check below reports.
        with np.errstate(over="ignore"):
            for f in dataclasses.fields(self):
                setattr(self, f.name, np.ascontiguousarray(
                    getattr(self, f.name), dtype=_dtype_of(f.name)))

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
            if not all(np.isfinite(b).all() for b in _blocks_of(arr)):
                raise ValueError(f"{name} contains non-finite values")
        rest = self.sh_rest.shape
        if len(rest) != 2 or rest[0] != n or rest[1] not in _SH_REST_WIDTHS:
            raise UnsupportedLayoutError(
                f"sh_rest width must be one of {list(_SH_REST_WIDTHS)}, "
                f"got shape {rest}")
        if not all(np.isfinite(b).all() for b in _blocks_of(self.sh_rest)):
            raise ValueError("sh_rest contains non-finite values")
        if any(np.any(np.linalg.norm(b, axis=1) < QUAT_NORM_FLOOR)
               for b in _blocks_of(self.rotations)):
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


def _blocks_of(arr: np.ndarray):
    """arr in blocks of whole rows of at most BLOCK_BYTES."""
    rows = max(1, BLOCK_BYTES // max(arr[:1].nbytes, 1))
    return (arr[lo:lo + rows] for lo in range(0, len(arr), rows))


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


def _truncated(path, expected: int, offset: int) -> PlyReadError:
    return PlyReadError(
        f"{path}: truncated body, expected {expected} bytes after the "
        f"header but the file ends at byte offset {offset}")


@contextmanager
def read_vertex_blocks(path, required):
    """Open the vertex element of a binary PLY for reading in row blocks.

    Yields (names, count, blocks): the property names, the vertex count
    and an iterator of (first_row, table) pairs in row order, where table
    is a (rows, len(names)) float32 array of at most BLOCK_BYTES that the
    next block overwrites. Raises PlyFormatError naming the first missing
    required property and PlyReadError with the byte offset when the body
    is truncated, both before any block is read.
    """
    with open(path, "rb") as source, ExitStack() as spooled:
        names, count, header_bytes = _parse_header(source, path)
        for name in required:
            if name not in names:
                raise PlyFormatError(
                    f"{path}: missing required property {name!r}")
        expected = 4 * count * len(names)
        # Size a file before allocating. A pipe cannot be sized, so its
        # body is first copied to a temporary file in bounded blocks: a
        # header claiming too many vertices cannot exhaust memory.
        stream = source
        if source.seekable():
            body = os.fstat(source.fileno()).st_size - header_bytes
        else:
            stream = spooled.enter_context(tempfile.TemporaryFile())
            while block := source.read(min(expected - stream.tell(),
                                           BLOCK_BYTES)):
                stream.write(block)
            body = stream.tell()
            stream.seek(0)
        if body < expected:
            raise _truncated(path, expected, header_bytes + body)
        yield names, count, _row_blocks(stream, path, count, len(names),
                                        header_bytes)


def _row_blocks(stream, path, count: int, width: int, header_bytes: int):
    rows = max(1, BLOCK_BYTES // max(4 * width, 1))
    table = np.empty((min(rows, count), width), dtype="<f4")
    for first in range(0, count, rows):
        block = table[:min(rows, count - first)]
        got = stream.readinto(block)
        if got < block.nbytes:      # the file shrank after it was sized
            raise _truncated(path, 4 * count * width,
                             header_bytes + 4 * first * width + got)
        yield first, block


def write_vertex_table(path, names, count: int, blocks) -> None:
    """Write count records, given as (rows, len(names)) tables in row
    order, as the float32 vertex element of a binary little-endian PLY.

    A failure part-way through removes the file.
    """
    header = ["ply", "format binary_little_endian 1.0",
              f"element vertex {count}",
              *(f"property float {name}" for name in names), "end_header\n"]
    with open(path, "wb") as stream:
        try:
            stream.write("\n".join(header).encode("ascii"))
            for block in blocks:
                stream.write(np.ascontiguousarray(block, dtype="<f4"))
        except BaseException:
            stream.close()
            os.remove(path)
            raise


@contextmanager
def _splat_blocks(path):
    """read_vertex_blocks for a splat PLY: yields (count, columns, blocks),
    where columns maps each GaussianCloud field to its table columns (a
    list, or one index for opacity_logits).

    Raises UnsupportedLayoutError for f_rest counts outside
    {0, 9, 24, 45}.
    """
    with read_vertex_blocks(path, _REQUIRED_PROPERTIES) as (names, count,
                                                            blocks):
        width = sum(name.startswith("f_rest_") for name in names)
        if width not in _SH_REST_WIDTHS or any(
                f"f_rest_{i}" not in names for i in range(width)):
            raise UnsupportedLayoutError(
                f"{path}: {width} f_rest properties do not form a "
                f"supported layout (expected a complete f_rest_0..K-1 "
                f"with K in {list(_SH_REST_WIDTHS)})")
        columns = {field: [names.index(name) for name in props]
                   for field, props in _vertex_layout(width) if field}
        columns["opacity_logits"] = names.index("opacity")
        yield count, columns, blocks


def read_gs_ply(path) -> GaussianCloud:
    """Read a Gaussian splat PLY file.

    Raises PlyFormatError naming the first missing required property,
    UnsupportedLayoutError for f_rest counts outside {0, 9, 24, 45}, and
    PlyReadError with the byte offset when the body is truncated.
    """
    with _splat_blocks(path) as (count, columns, blocks):
        fields = {field: np.empty((count, *np.shape(cols)), _dtype_of(field))
                  for field, cols in columns.items()}
        for first, table in blocks:
            for field, cols in columns.items():
                fields[field][first:first + len(table)] = table[:, cols]
        table = None           # drop the last block before the cloud is built
    return GaussianCloud(**fields)


def verify_gs_ply(path) -> None:
    """Apply read_gs_ply's checks to a splat PLY one row block at a time,
    without holding the cloud: each block is built as a GaussianCloud.
    Raises what read_gs_ply would."""
    with _splat_blocks(path) as (_, columns, blocks):
        for _, table in blocks:
            GaussianCloud(**{field: table[:, cols]
                             for field, cols in columns.items()})


def write_gs_ply(cloud: GaussianCloud, path) -> None:
    """Write a cloud as a binary little-endian splat PLY, one row block at
    a time.

    Serialization is deterministic: the same cloud always produces the same
    bytes, and write -> read -> write is byte-identical. A value outside
    float32's range raises ValueError naming its field and row, and leaves
    no file.
    """
    n = len(cloud)
    if n == 0:
        raise ValueError("refusing to write an empty cloud")
    layout = _vertex_layout(cloud.sh_rest.shape[1])
    names = [name for _, props in layout for name in props]
    owners = [field for field, props in layout for _ in props]
    rows = BLOCK_BYTES // (4 * len(names))

    def blocks():
        table = np.zeros((min(rows, n), len(names)), dtype="<f4")
        for first in range(0, n, rows):
            block = table[:min(rows, n - first)]
            end = 0
            for field, props in layout:
                start, end = end, end + len(props)
                if field:
                    values = getattr(cloud, field)[first:first + len(block)]
                    with np.errstate(over="ignore"):    # checked below
                        block[:, start:end] = values.reshape(len(block), -1)
            if not np.isfinite(block).all():
                row, col = np.argwhere(~np.isfinite(block))[0]
                raise ValueError(
                    f"{owners[col]} of splat {first + row} ({names[col]}) "
                    f"is outside float32's range")
            yield block

    write_vertex_table(path, names, n, blocks())
