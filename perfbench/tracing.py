"""Spans around the calls into each cagewarp layer, taken from outside.

`from .x import y` binds y separately in every importing module, so the
wrappers replace the names in the modules that make the calls (pipeline,
transport, fitting), not in the modules that define them. Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    counts: dict = field(default_factory=dict)


def _pairs(_result, points, cage, *_, **__):
    return {"pairs": len(points) * len(cage.triangles)}


def _rows(_result, first, *_, **__):
    return {"rows": len(first)}


def _bytes_read(_result, path, *_, **__):
    return {"bytes": os.path.getsize(path)}


def _bytes_written(_result, _cloud, path, *_, **__):
    return {"bytes": os.path.getsize(path)}


def _fit_iterations(result, *_, **__):
    return {"iterations": result[1].iterations_run}


def _covariance_rows(_result, _jacobians, rotations, *_, **__):
    return {"rows": len(rotations)}


# module -> {name: counter}. A counter gets the return value and the
# arguments of a call and returns the counts stored on its span.
WRAPPED = {
    "cagewarp.pipeline": {
        "deform_cloud": None, "fit_deformed_cage": _fit_iterations,
        "read_gs_ply": _bytes_read, "write_gs_ply": _bytes_written,
        "chamfer_distance": None, "load_target": None,
    },
    "cagewarp.transport": {
        "mvc_weights": _pairs, "jacobian_fd": _rows,
        "build_jacobian_field": None, "surface_distance": _pairs,
        "transform_covariance": _covariance_rows,
    },
    "cagewarp.fitting": {
        "alignment_loss": None, "mvc_weights": _pairs,
        "winding_numbers": _pairs,
    },
}


class Tracer:
    """Records one Span per wrapped call, on any thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, name: str, func, counter):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            # A pool thread's first span belongs to the main-thread span
            # that is waiting on the pool.
            parent = stack[-1] if stack else (
                self._main_stack[-1] if self._main_stack else None)
            span = Span(name, 0.0, 0.0, parent, threading.get_ident())
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.counts = counter(result, *args, **kwargs)
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        saved = []
        try:
            for module_name, names in WRAPPED.items():
                module = importlib.import_module(module_name)
                short = module_name.rsplit(".", 1)[1]
                for name, counter in names.items():
                    original = getattr(module, name)
                    saved.append((module, name, original))
                    setattr(module, name,
                            self._wrap(f"{short}.{name}", original, counter))
            yield self
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)

    def to_json(self) -> list:
        return [vars(s) for s in self.spans]


def _union(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


STAGES = ("load-source", "load-cages", "load-target", "sample-source",
          "fit-cage", "write-cages", "fit-trace", "deform", "metrics",
          "verify")

# name -> unit, in print order.
LAYER_UNITS = {
    "mvc.calls": "count", "mvc.pairs": "count", "mvc.busy_s": "s",
    "mvc.wall_s": "s", "mvc.pairs_per_s": "1/s",
    "transport.deform_calls": "count", "transport.jacobian_sites": "count",
    "transport.jacobian_fd_self_s": "s", "transport.field_self_s": "s",
    "transport.covariance_s": "s", "transport.covariance_splats": "count",
    "cage.surface_distance_s": "s", "cage.surface_distance_pairs": "count",
    "cage.winding_s": "s",
    "splats.read_s": "s", "splats.write_s": "s",
    "splats.bytes_read": "B", "splats.bytes_written": "B",
    "fitting.fit_s": "s", "fitting.iterations": "count",
    "fitting.align_calls": "count", "fitting.align_s": "s",
    "fitting.iter_s": "s",
    "metrics.chamfer_s": "s", "metrics.load_target_s": "s",
    **{f"pipeline.stage.{stage}_s": "s" for stage in STAGES},
    "pipeline.trace_overhead_s": "s",
}


def layer_metrics(spans: list[Span], stage_seconds: dict) -> dict:
    """Per-layer numbers of one traced run, every LAYER_UNITS name but the
    trace overhead (which needs the untraced runs too)."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)

    def of(*names):
        return [(i, s) for i, s in enumerate(spans) if s.name in names]

    def busy(*names):
        return sum(s.end - s.start for _, s in of(*names))

    def self_time(*names):
        return sum(s.end - s.start - _union(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(i, ())) for i, s in of(*names))

    def count(key, *names):
        return sum(s.counts.get(key, 0) for _, s in of(*names))

    mvc = ("transport.mvc_weights", "fitting.mvc_weights")
    mvc_busy = busy(*mvc)
    align = [s for _, s in of("fitting.alignment_loss")]
    out = {
        "mvc.calls": len(of(*mvc)),
        "mvc.pairs": count("pairs", *mvc),
        "mvc.busy_s": mvc_busy,
        "mvc.wall_s": _union((s.start, s.end) for _, s in of(*mvc)),
        "mvc.pairs_per_s": count("pairs", *mvc) / mvc_busy
        if mvc_busy else 0.0,
        "transport.deform_calls": len(of("pipeline.deform_cloud")),
        "transport.jacobian_sites": count("rows", "transport.jacobian_fd"),
        "transport.jacobian_fd_self_s": self_time("transport.jacobian_fd"),
        "transport.field_self_s": self_time("transport.build_jacobian_field"),
        "transport.covariance_s": busy("transport.transform_covariance"),
        "transport.covariance_splats":
            count("rows", "transport.transform_covariance"),
        "cage.surface_distance_s": busy("transport.surface_distance"),
        "cage.surface_distance_pairs":
            count("pairs", "transport.surface_distance"),
        "cage.winding_s": busy("fitting.winding_numbers"),
        "splats.read_s": busy("pipeline.read_gs_ply"),
        "splats.write_s": busy("pipeline.write_gs_ply"),
        "splats.bytes_read": count("bytes", "pipeline.read_gs_ply"),
        "splats.bytes_written": count("bytes", "pipeline.write_gs_ply"),
        "fitting.fit_s": busy("pipeline.fit_deformed_cage"),
        "fitting.iterations":
            count("iterations", "pipeline.fit_deformed_cage"),
        "fitting.align_calls": len(align),
        "fitting.align_s": busy("fitting.alignment_loss"),
        # Mean loop period: one alignment_loss call per fit iteration.
        "fitting.iter_s": (align[-1].start - align[0].start)
        / (len(align) - 1) if len(align) > 1 else 0.0,
        "metrics.chamfer_s": busy("pipeline.chamfer_distance"),
        "metrics.load_target_s": busy("pipeline.load_target"),
    }
    for stage in STAGES:
        out[f"pipeline.stage.{stage}_s"] = sum(
            sec for name, sec in stage_seconds.items()
            if name == stage or (stage == "deform"
                                 and name.startswith("deform-lam")))
    return out
