import os
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from cagewarp import splats
from cagewarp.errors import (
    DegenerateRotationError,
    PlyFormatError,
    PlyReadError,
    UnsupportedLayoutError,
)
from cagewarp.metrics import load_target
from cagewarp.rotations import quat_to_matrix
from cagewarp.splats import (
    BLOCK_BYTES,
    GaussianCloud,
    covariances_of,
    read_gs_ply,
    read_vertex_blocks,
    write_gs_ply,
)

from conftest import random_cloud, traced

FLOAT64_FIELDS = ("centers", "log_scales", "rotations")
FLOAT32_FIELDS = ("opacity_logits", "sh_dc", "sh_rest")


class TestCloudValidation:
    def test_shapes_and_degree(self):
        cloud = random_cloud(5, sh_rest_width=24)
        assert len(cloud) == 5
        assert cloud.sh_rest.shape == (5, 24)
        assert random_cloud(3, sh_rest_width=0).sh_rest.shape == (3, 0)

    def test_bad_sh_width_rejected(self):
        with pytest.raises(UnsupportedLayoutError):
            random_cloud(4, sh_rest_width=7)

    def test_one_dimensional_sh_rest_rejected(self):
        cloud = random_cloud(2, sh_rest_width=9)
        with pytest.raises(UnsupportedLayoutError, match=r"got shape \(18,\)"):
            cloud.copy(sh_rest=cloud.sh_rest.ravel())

    def test_zero_quaternion_rejected(self):
        cloud = random_cloud(4)
        rot = cloud.rotations.copy()
        rot[2] = 0.0
        with pytest.raises(DegenerateRotationError):
            GaussianCloud(cloud.centers, cloud.log_scales, rot,
                          cloud.opacity_logits, cloud.sh_dc, cloud.sh_rest)

    @pytest.mark.parametrize("name, row, bad, error", [
        ("sh_rest", -1, np.inf, ValueError),
        ("centers", 9000, np.nan, ValueError),
        ("rotations", -1, 0.0, DegenerateRotationError),
    ])
    def test_a_bad_row_past_the_first_check_block_is_found(self, name, row,
                                                           bad, error):
        # 10k splats at SH width 45 span several of the checks' blocks.
        cloud = random_cloud(10000, sh_rest_width=45, seed=32)
        values = getattr(cloud, name).copy()
        values[row] = bad
        with pytest.raises(error):
            cloud.copy(**{name: values})

    def test_nan_rejected(self):
        cloud = random_cloud(4)
        centers = cloud.centers.copy()
        centers[1, 2] = np.nan
        with pytest.raises(ValueError):
            GaussianCloud(centers, cloud.log_scales, cloud.rotations,
                          cloud.opacity_logits, cloud.sh_dc, cloud.sh_rest)


    def test_copy_takes_changed_fields_as_given(self):
        cloud = random_cloud(6)
        centers = cloud.centers + 1.0
        out = cloud.copy(centers=centers)
        assert out.centers is centers
        for name in ("log_scales", "rotations", "opacity_logits", "sh_dc",
                     "sh_rest"):
            assert np.array_equal(getattr(out, name), getattr(cloud, name))
            assert not np.shares_memory(getattr(out, name),
                                        getattr(cloud, name)), name


class TestFieldDtypes:
    def test_computed_fields_are_float64_and_pass_through_float32(
            self, tmp_path):
        cloud = random_cloud(9, sh_rest_width=45, seed=24)
        path = tmp_path / "dtypes.ply"
        write_gs_ply(cloud, path)
        for held in (cloud, cloud.copy(), read_gs_ply(path)):
            for name in FLOAT64_FIELDS:
                assert getattr(held, name).dtype == np.float64, name
            for name in FLOAT32_FIELDS:
                assert getattr(held, name).dtype == np.float32, name

    def test_a_float64_pass_through_value_is_rounded(self):
        cloud = random_cloud(3, seed=25)
        sh_dc = np.full((3, 3), 0.1)
        out = cloud.copy(sh_dc=sh_dc)
        assert out.sh_dc.dtype == np.float32
        assert np.all(out.sh_dc == np.float32(0.1))
        assert float(out.sh_dc[0, 0]) != 0.1

    @pytest.mark.parametrize("name", FLOAT32_FIELDS)
    def test_a_pass_through_value_outside_float32_is_rejected(self, name):
        cloud = random_cloud(3, seed=26)
        values = getattr(cloud, name).astype(np.float64)
        values[(1,) * values.ndim] = 1e39
        with pytest.raises(ValueError, match=f"{name} contains non-finite"):
            cloud.copy(**{name: values})


class TestCovariance:
    def test_identity_rotation_gives_diagonal(self):
        log_scale = np.array([0.1, -0.3, 0.7])
        cov = covariances_of(np.array([1.0, 0.0, 0.0, 0.0]), log_scale)
        assert np.allclose(cov, np.diag(np.exp(2 * log_scale)), rtol=0, atol=1e-15)

    def test_rotation_preserves_eigenvalues(self):
        rng = np.random.default_rng(3)
        q = rng.normal(size=4)
        log_scale = np.array([-1.0, 0.0, 0.5])
        cov = covariances_of(q, log_scale)
        eig = np.sort(np.linalg.eigvalsh(cov))
        assert np.allclose(eig, np.sort(np.exp(2 * log_scale)), rtol=1e-12)

    def test_scale_invariance_of_quaternion(self):
        # The stored quaternion is unnormalized; covariance must not change
        # when it is scaled.
        rng = np.random.default_rng(4)
        q = rng.normal(size=4)
        ls = rng.normal(size=3)
        assert np.allclose(covariances_of(q, ls), covariances_of(5.0 * q, ls),
                           rtol=1e-12)

    def test_batched_matches_single(self):
        cloud = random_cloud(10, seed=5)
        batch = covariances_of(cloud.rotations, cloud.log_scales)
        for i in range(10):
            single = covariances_of(cloud.rotations[i], cloud.log_scales[i])
            assert np.allclose(batch[i], single, rtol=0, atol=1e-15)

    def test_spd(self):
        cloud = random_cloud(50, seed=6)
        covs = covariances_of(cloud.rotations, cloud.log_scales)
        assert np.allclose(covs, np.transpose(covs, (0, 2, 1)))
        assert np.all(np.linalg.eigvalsh(covs) > 0)

    def test_explicit_construction(self):
        # Compare against a literal R @ S @ S.T @ R.T with materialized
        # diagonal matrices.
        rng = np.random.default_rng(7)
        q = rng.normal(size=4)
        ls = rng.normal(size=3)
        R = quat_to_matrix(q)
        S = np.diag(np.exp(ls))
        assert np.allclose(covariances_of(q, ls), R @ S @ S.T @ R.T, rtol=1e-14)


class TestPlyRoundtrip:
    @pytest.mark.parametrize("width", [0, 9, 24, 45])
    def test_roundtrip_exact_for_f32_values(self, width, tmp_path):
        cloud = random_cloud(17, sh_rest_width=width, seed=11, f32=True)
        path = tmp_path / "cloud.ply"
        write_gs_ply(cloud, path)
        back = read_gs_ply(path)
        assert len(back) == 17
        for name in ("centers", "log_scales", "rotations", "opacity_logits",
                     "sh_dc", "sh_rest"):
            assert np.array_equal(getattr(back, name), getattr(cloud, name)), name

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(width=st.sampled_from([0, 9, 24, 45]), data=st.data())
    def test_write_read_write_byte_identical(self, tmp_path, width, data):
        def field(*shape, elements=st.floats(-1e30, 1e30)):
            return data.draw(hnp.arrays(np.float64, shape,
                                        elements=elements))

        # Full float64 values, so the first write rounds them.
        n = data.draw(st.integers(1, 12))
        cloud = GaussianCloud(
            centers=field(n, 3), log_scales=field(n, 3),
            rotations=field(n, 4, elements=st.floats(0.25, 4.0)),
            opacity_logits=field(n), sh_dc=field(n, 3),
            sh_rest=field(n, width))
        p1 = tmp_path / "a.ply"
        p2 = tmp_path / "b.ply"
        write_gs_ply(cloud, p1)
        write_gs_ply(read_gs_ply(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_row_order_preserved(self, tmp_path):
        cloud = random_cloud(30, seed=13, f32=True)
        path = tmp_path / "c.ply"
        write_gs_ply(cloud, path)
        back = read_gs_ply(path)
        assert np.array_equal(back.centers, cloud.centers)

    def test_header_property_order(self, tmp_path):
        cloud = random_cloud(2, sh_rest_width=9, seed=14)
        path = tmp_path / "d.ply"
        write_gs_ply(cloud, path)
        header = path.read_bytes().split(b"end_header")[0].decode()
        names = [line.split()[-1] for line in header.splitlines()
                 if line.startswith("property")]
        assert names[:9] == ["x", "y", "z", "nx", "ny", "nz",
                             "f_dc_0", "f_dc_1", "f_dc_2"]
        assert names[9:18] == [f"f_rest_{i}" for i in range(9)]
        assert names[18:] == ["opacity", "scale_0", "scale_1", "scale_2",
                              "rot_0", "rot_1", "rot_2", "rot_3"]

    @pytest.mark.parametrize("width", [0, 9, 24, 45])
    def test_bytes_match_documented_layout(self, tmp_path, width):
        # The file is built here from the documented property order, with
        # a structured dtype the writer does not use.
        cloud = random_cloud(7, sh_rest_width=width, seed=20 + width)
        columns = [("x", cloud.centers[:, 0]), ("y", cloud.centers[:, 1]),
                   ("z", cloud.centers[:, 2]),
                   *((name, 0.0) for name in ("nx", "ny", "nz")),
                   *((f"f_dc_{i}", cloud.sh_dc[:, i]) for i in range(3)),
                   *((f"f_rest_{i}", cloud.sh_rest[:, i])
                     for i in range(width)),
                   ("opacity", cloud.opacity_logits),
                   *((f"scale_{i}", cloud.log_scales[:, i]) for i in range(3)),
                   *((f"rot_{i}", cloud.rotations[:, i]) for i in range(4))]
        records = np.empty(7, dtype=[(name, "<f4") for name, _ in columns])
        for name, values in columns:
            records[name] = values
        header = "".join(["ply\nformat binary_little_endian 1.0\n",
                          "element vertex 7\n",
                          *(f"property float {name}\n" for name, _ in columns),
                          "end_header\n"])
        path = tmp_path / "layout.ply"
        write_gs_ply(cloud, path)
        assert path.read_bytes() == header.encode("ascii") + records.tobytes()

    def test_permuted_properties_extra_field_and_face_element(self, tmp_path):
        cloud = random_cloud(6, sh_rest_width=9, seed=21, f32=True)
        columns = {"x": cloud.centers[:, 0], "y": cloud.centers[:, 1],
                   "z": cloud.centers[:, 2], "opacity": cloud.opacity_logits,
                   "confidence": np.arange(6.0)}
        for prefix, field in (("f_dc_", cloud.sh_dc),
                              ("f_rest_", cloud.sh_rest),
                              ("scale_", cloud.log_scales),
                              ("rot_", cloud.rotations)):
            columns.update({f"{prefix}{i}": field[:, i]
                            for i in range(field.shape[1])})
        names = sorted(columns, key=lambda name: name[::-1])
        records = np.empty(6, dtype=[(name, "<f4") for name in names])
        for name in names:
            records[name] = columns[name]
        header = "".join(["ply\nformat binary_little_endian 1.0\n",
                          "comment permuted\nelement vertex 6\n",
                          *(f"property float {name}\n" for name in names),
                          "element face 0\n",
                          "property list uchar int vertex_indices\n",
                          "end_header\n"])
        path = tmp_path / "permuted.ply"
        path.write_bytes(header.encode("ascii") + records.tobytes())
        assert names[:3] != ["x", "y", "z"]
        back = read_gs_ply(path)
        for name in ("centers", "log_scales", "rotations", "opacity_logits",
                     "sh_dc", "sh_rest"):
            assert np.array_equal(getattr(back, name), getattr(cloud, name)), name
        assert np.array_equal(load_target(path), cloud.centers)

    def test_normals_written_as_zero(self, tmp_path):
        cloud = random_cloud(4, seed=15)
        path = tmp_path / "e.ply"
        write_gs_ply(cloud, path)
        raw = path.read_bytes()
        body = raw.split(b"end_header\n", 1)[1]
        rec = np.frombuffer(body, dtype=np.dtype([(f"c{i}", "<f4")
                                                  for i in range(26)]))
        for i in (3, 4, 5):
            assert np.all(rec[f"c{i}"] == 0.0)

    def test_empty_cloud_write_rejected(self, tmp_path):
        cloud = GaussianCloud(
            centers=np.zeros((0, 3)), log_scales=np.zeros((0, 3)),
            rotations=np.zeros((0, 4)), opacity_logits=np.zeros(0),
            sh_dc=np.zeros((0, 3)), sh_rest=np.zeros((0, 9)))
        with pytest.raises(ValueError):
            write_gs_ply(cloud, tmp_path / "f.ply")


    @pytest.mark.parametrize("field, row, col, prop", [
        ("centers", 3, 1, "y"), ("log_scales", 1100, 0, "scale_0"),
        ("rotations", 2200, 3, "rot_3")])
    def test_a_value_outside_float32_names_its_field_and_row(
            self, tmp_path, field, row, col, prop):
        # 2500 splats at SH width 45 are three blocks, so rows 1100 and
        # 2200 fail after earlier blocks were written.
        cloud = random_cloud(2500, sh_rest_width=45, seed=27)
        getattr(cloud, field)[row, col] = -1e39
        path = tmp_path / "over.ply"
        path.write_bytes(b"an older file")
        with pytest.raises(ValueError, match=re.escape(
                f"{field} of splat {row} ({prop}) is outside float32's "
                f"range")):
            write_gs_ply(cloud, path)
        assert not path.exists()

    def test_block_size_changes_no_byte(self, tmp_path, monkeypatch):
        cloud = random_cloud(1000, sh_rest_width=24, seed=31)
        path = tmp_path / "default.ply"
        write_gs_ply(cloud, path)
        # 3 rows of 41 properties a block, so the last block is short.
        monkeypatch.setattr(splats, "BLOCK_BYTES", 3 * 4 * 41)
        small = tmp_path / "small.ply"
        write_gs_ply(cloud, small)
        assert small.read_bytes() == path.read_bytes()
        back = read_gs_ply(small)
        for name in FLOAT64_FIELDS + FLOAT32_FIELDS:
            assert np.array_equal(getattr(back, name),
                                  getattr(read_gs_ply(path), name)), name
        assert np.array_equal(load_target(small), back.centers)

    def test_a_value_at_float32_max_is_written(self, tmp_path):
        cloud = random_cloud(4, seed=28)
        cloud.centers[2, 0] = np.finfo(np.float32).max
        path = tmp_path / "max.ply"
        write_gs_ply(cloud, path)
        assert read_gs_ply(path).centers[2, 0] == np.finfo(np.float32).max


class TestPlyErrors:
    def test_missing_property_named(self, tmp_path):
        cloud = random_cloud(3, seed=16)
        path = tmp_path / "g.ply"
        write_gs_ply(cloud, path)
        raw = path.read_bytes().replace(b"property float opacity\n", b"")
        bad = tmp_path / "bad.ply"
        bad.write_bytes(raw)
        with pytest.raises(PlyFormatError, match="opacity"):
            read_gs_ply(bad)

    def test_unsupported_f_rest_count(self, tmp_path):
        cloud = random_cloud(3, sh_rest_width=9, seed=17)
        path = tmp_path / "h.ply"
        write_gs_ply(cloud, path)
        raw = path.read_bytes().replace(b"property float f_rest_8\n", b"")
        bad = tmp_path / "bad.ply"
        bad.write_bytes(raw)
        with pytest.raises(UnsupportedLayoutError):
            read_gs_ply(bad)

    def test_truncated_body_reports_offset(self, tmp_path):
        cloud = random_cloud(5, seed=18)
        path = tmp_path / "i.ply"
        write_gs_ply(cloud, path)
        raw = path.read_bytes()
        bad = tmp_path / "bad.ply"
        bad.write_bytes(raw[:-10])
        with pytest.raises(PlyReadError, match=f"{len(raw) - 10}"):
            read_gs_ply(bad)

    @pytest.mark.parametrize("reader", [read_gs_ply, load_target],
                             ids=["read_gs_ply", "load_target"])
    def test_huge_vertex_count_fails_before_allocating(self, tmp_path,
                                                       reader):
        path = tmp_path / "i.ply"
        write_gs_ply(random_cloud(1, seed=20), path)
        header = path.read_bytes().split(b"end_header\n")[0].replace(
            b"element vertex 1\n", b"element vertex 1000000000000\n") \
            + b"end_header\n"
        path.write_bytes(header)
        n_props = header.count(b"property float")
        tracemalloc.start()
        try:
            with pytest.raises(PlyReadError, match=(
                    f"i.ply: truncated body, expected {4 * 10**12 * n_props} "
                    f"bytes after the header but the file ends at byte "
                    f"offset {len(header)}")):
                reader(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_not_a_ply(self, tmp_path):
        bad = tmp_path / "x.ply"
        bad.write_bytes(b"OFF\n3 1 0\n")
        with pytest.raises(PlyFormatError):
            read_gs_ply(bad)

    @pytest.mark.parametrize("lines", [
        b"element vertex\nproperty float x\n",
        b"element vertex 2.5\nproperty float x\n",
        b"element vertex -3\nproperty float x\n",
        b"element vertex 1\nproperty float\n",
    ], ids=["no-count", "non-integer-count", "negative-count", "no-name"])
    @pytest.mark.parametrize("reader", [read_gs_ply, load_target],
                             ids=["read_gs_ply", "load_target"])
    def test_malformed_header_line_named(self, tmp_path, lines, reader):
        bad = tmp_path / "m.ply"
        bad.write_bytes(b"ply\nformat binary_little_endian 1.0\n" + lines
                        + b"end_header\n" + bytes(4))
        with pytest.raises(PlyFormatError,
                           match="m.ply: malformed header line"):
            reader(bad)

    @pytest.mark.parametrize("reader", [read_gs_ply, load_target],
                             ids=["read_gs_ply", "load_target"])
    def test_duplicate_property_named(self, tmp_path, reader):
        cloud = random_cloud(3, seed=19)
        path = tmp_path / "dup.ply"
        write_gs_ply(cloud, path)
        raw = path.read_bytes().replace(b"property float nx\n",
                                        b"property float x\n")
        path.write_bytes(raw)
        with pytest.raises(PlyFormatError,
                           match="dup.ply: duplicate property 'x'"):
            reader(path)

    def test_ascii_format_rejected(self, tmp_path):
        bad = tmp_path / "y.ply"
        bad.write_bytes(b"ply\nformat ascii 1.0\nelement vertex 0\nend_header\n")
        with pytest.raises(PlyFormatError, match="ascii"):
            read_gs_ply(bad)


def whole_table(path):
    """The property names and the vertex table joined from its blocks."""
    with read_vertex_blocks(path, ["x"]) as (names, _, blocks):
        return names, np.concatenate([table.copy() for _, table in blocks])


def read_through_a_fifo(tmp_path, raw, read):
    """read(path) of a named pipe that another thread fills with raw."""
    fifo = tmp_path / "pipe.ply"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(raw,),
                              daemon=True)
    writer.start()
    try:
        return read(fifo)
    finally:
        writer.join(timeout=30)
        assert not writer.is_alive()


class TestPlyPipe:
    """A pipe cannot be sized before it is read: its body is read in
    bounded blocks, so a header cannot claim more memory than the body
    delivers."""

    def test_full_body_equals_the_file_read(self, tmp_path):
        path = tmp_path / "g.ply"
        write_gs_ply(random_cloud(5000, sh_rest_width=45, seed=21), path)
        raw = path.read_bytes()
        assert len(raw) > 4 * BLOCK_BYTES   # more than one block
        names, table = whole_table(path)
        piped = read_through_a_fifo(tmp_path, raw, whole_table)
        assert piped[0] == names
        assert piped[1].dtype == table.dtype
        assert piped[1].tobytes() == table.tobytes()

    def test_truncated_body_reports_offset(self, tmp_path):
        path = tmp_path / "g.ply"
        write_gs_ply(random_cloud(5, seed=22), path)
        raw = path.read_bytes()
        body = len(raw) - len(b"end_header\n") - raw.index(b"end_header\n")
        with pytest.raises(PlyReadError, match=(
                f"pipe.ply: truncated body, expected {body} bytes after the "
                f"header but the file ends at byte offset {len(raw) - 10}")):
            read_through_a_fifo(tmp_path, raw[:-10], read_gs_ply)

    def test_huge_vertex_count_fails_before_allocating(self, tmp_path):
        path = tmp_path / "g.ply"
        write_gs_ply(random_cloud(1, seed=23), path)
        raw = path.read_bytes().replace(
            b"element vertex 1\n", b"element vertex 100000000000\n")
        tracemalloc.start()
        try:
            with pytest.raises(PlyReadError, match="truncated body"):
                read_through_a_fifo(tmp_path, raw, read_gs_ply)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20



class TestBlockedMemory:
    def test_construction_checks_in_row_blocks(self):
        # Arrays of the fields' dtypes are taken as they are, so beyond
        # them the checks hold only one block's masks and squares: not a
        # (n, 45) finiteness mask or (n, 4) squared quaternions.
        cloud = random_cloud(50000, sh_rest_width=45, seed=31)
        fields = [cloud.centers, cloud.log_scales, cloud.rotations,
                  cloud.opacity_logits, cloud.sh_dc, cloud.sh_rest]
        peak, kept = traced(lambda: GaussianCloud(*fields))
        assert kept <= 2**12
        assert peak <= 2**20

    def test_load_target_holds_only_the_points(self, tmp_path):
        # A splat PLY as a target: 20k splats at SH width 45 are a 5 MB
        # body, of which load_target keeps the 0.5 MB of float64 x/y/z.
        n = 20000
        path = tmp_path / "target.ply"
        write_gs_ply(random_cloud(n, sh_rest_width=45, seed=29), path)
        peak, kept = traced(lambda: load_target(path))
        assert kept <= 24 * n + 2**12
        assert peak <= 24 * n + 2 * BLOCK_BYTES

    def test_read_holds_only_the_cloud(self, tmp_path):
        n = 20000
        path = tmp_path / "source.ply"
        write_gs_ply(random_cloud(n, sh_rest_width=45, seed=30), path)
        cloud_bytes = n * (8 * 10 + 4 * 49)
        peak, kept = traced(lambda: read_gs_ply(path))
        assert kept <= cloud_bytes + 2**12
        # Beyond the cloud, row blocks alone: the reader's table and the
        # widest field gathered from it (1.76-1.86 blocks at BLOCK_BYTES
        # 2**17-2**19). The table is dropped before the cloud is built,
        # whose checks take about 1.5 blocks for one block of rotations
        # (the norm's squares and sums). No check makes a whole-field mask.
        assert peak <= cloud_bytes + 2 * BLOCK_BYTES
