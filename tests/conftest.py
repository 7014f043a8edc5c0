"""Shared synthetic-data and measuring helpers for the test suite."""

import tracemalloc

import numpy as np

from cagewarp.cage import TriangleMesh, build_template_cage
from cagewarp.splats import GaussianCloud


def random_cloud(n, sh_rest_width=9, seed=0, f32=False):
    """A random but valid splat cloud."""
    rng = np.random.default_rng(seed)
    cloud = GaussianCloud(
        centers=rng.normal(size=(n, 3)),
        log_scales=rng.normal(size=(n, 3)) - 2.0,
        rotations=rng.normal(size=(n, 4)),
        opacity_logits=rng.normal(size=n),
        sh_dc=rng.normal(size=(n, 3)),
        sh_rest=rng.normal(size=(n, sh_rest_width)),
    )
    if f32:
        # Round the float64 fields to float32 so a PLY read-back compares
        # exactly; the others are float32 already.
        cloud = cloud.copy(**{name: getattr(cloud, name).astype(np.float32)
                              for name in ("centers", "log_scales",
                                           "rotations")})
    return cloud


def cage_pair(seed=0, amplitude=0.15, resolution=2, n_anchor=40):
    """A template cage and a smoothly jiggled copy of it."""
    rng = np.random.default_rng(seed)
    anchor = rng.normal(size=(n_anchor, 3))
    source = build_template_cage(anchor, resolution=resolution)
    lo, hi = source.bbox()
    jiggle = amplitude * (hi - lo) * np.sin(
        source.vertices @ rng.normal(size=(3, 3)) * 0.7)
    return source, TriangleMesh(source.vertices + jiggle, source.triangles)


def interior_points(cage, n, seed, margin=0.25):
    """Random points comfortably inside a box-shaped cage."""
    lo, hi = cage.bbox()
    rng = np.random.default_rng(seed)
    pad = margin * (hi - lo)
    return rng.uniform(lo + pad, hi - pad, size=(n, 3))


def traced(call):
    """Bytes traced at call()'s peak and at its end (its result still
    held), beyond those traced before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()  # noqa: F841 -- held while measured
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before, kept - before
