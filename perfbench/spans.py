"""In-memory spans around sktap's public functions, installed from outside.

The benchmark does not change the package.  ``install`` replaces each public
name at the place where the caller looks it up (for example
``sktap.ensemble.htap1_residuals``, not ``sktap.tap.htap1_residuals``), and
wraps a few methods on their classes.  Every call then appends one span:
name, parent span, start and end in nanoseconds, and a size (the number of
enumerated states for the ``BlockEnumerator`` methods, else 0).  Spans live in
flat integer arrays until the run ends, when ``save`` writes them out and
``layer_metrics`` reduces them.

Self time is a span's duration minus the time its child spans cover.  The
program is single-threaded, so children of one span never overlap and the
covered time is the sum of their durations.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

# (span name, module holding the looked-up name, attribute)
_FUNCTIONS = (
    ("ensemble.run_ensemble", "sktap.cli", "run_ensemble"),
    ("tap.htap1_residuals", "sktap.ensemble", "htap1_residuals"),
    ("spectral.resolvent_error", "sktap.ensemble", "resolvent_error"),
    ("dynamics.ito_decomposition_residual", "sktap.ensemble", "ito_decomposition_residual"),
    ("model.sample_couplings", "sktap.ensemble", "sample_couplings"),
    ("model.sample_path", "sktap.ensemble", "sample_path"),
    ("gibbs.magnetizations", "sktap.tap", "magnetizations"),
    ("gibbs.gibbs_tables", "sktap.spectral", "gibbs_tables"),
)

# (span name, module, class, method)
_METHODS = (
    ("gibbs.BlockEnumerator.init", "sktap.gibbs", "BlockEnumerator", "__init__"),
    ("gibbs.BlockEnumerator.moments", "sktap.gibbs", "BlockEnumerator", "moments"),
    ("model.CouplingPath.row_at", "sktap.model", "CouplingPath", "row_at"),
    ("model.CouplingPath.row_increment", "sktap.model", "CouplingPath", "row_increment"),
)

# One call per disorder sample; their span count is the sample count.
_SAMPLERS = ("model.sample_couplings", "model.sample_path")
_EXPERIMENTS = (
    "tap.htap1_residuals",
    "spectral.resolvent_error",
    "dynamics.ito_decomposition_residual",
)


def _pass_states(args) -> int:
    return 1 << args[0].na


def _built_states(args) -> int:
    return 1 << args[1].shape[0]


_SIZES = {"__init__": _built_states, "moments": _pass_states}


class SpanRecorder:
    """Flat, append-only span store shared by every wrapper of one run."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.size = array("q")
        self._stack = [-1]

    def wrap(self, name: str, fn, size=None):
        """Return ``fn`` recording one span per call under ``name``."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_id, parent, start, end, sizes = (
            self.name_id, self.parent, self.start, self.end, self.size
        )
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            sizes.append(size(args) if size is not None else 0)
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return traced

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "size": np.frombuffer(self.size, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def install(recorder: SpanRecorder) -> None:
    """Wrap every traced name of an imported ``sktap`` in ``recorder`` spans."""
    import importlib

    for name, module, attr in _FUNCTIONS:
        mod = importlib.import_module(module)
        setattr(mod, attr, recorder.wrap(name, getattr(mod, attr)))
    for name, module, cls_name, method in _METHODS:
        cls = getattr(importlib.import_module(module), cls_name)
        setattr(cls, method, recorder.wrap(name, getattr(cls, method), _SIZES.get(method)))


def self_times(arrays: dict) -> np.ndarray:
    """Per-span self time in nanoseconds."""
    duration = arrays["end_ns"] - arrays["start_ns"]
    parent = arrays["parent"]
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=duration.size
    )
    return duration - covered


def layer_metrics(recorder: SpanRecorder, samples: int) -> tuple[dict, dict]:
    """Per-layer metrics and the self-time share of every span name.

    Returns ``(metrics, shares)``: ``metrics`` maps a metric name to
    ``(value, unit)``; ``shares`` maps each span name to its share of the
    total self time.  Percentiles of a function that the workload never
    calls read 0.
    """
    arrays = recorder.arrays()
    selfs = self_times(arrays)
    duration = arrays["end_ns"] - arrays["start_ns"]
    ids = arrays["name_id"]
    by_name = {name: ids == nid for nid, name in enumerate(recorder.names)}
    empty = np.zeros(ids.size, dtype=bool)

    def mask(name):
        return by_name.get(name, empty)

    def calls(name):
        return int(mask(name).sum())

    def self_s(name):
        return float(selfs[mask(name)].sum()) / 1e9

    def ms_quantile(name, q):
        d = duration[mask(name)]
        return float(np.percentile(d, q)) / 1e6 if d.size else 0.0

    states = int(arrays["size"][mask("gibbs.BlockEnumerator.moments")].sum())
    moments_self = self_s("gibbs.BlockEnumerator.moments")
    # One float64 grid of 2^na entries per enumeration: built by the
    # constructor (cross-block couplings) and again by each pass (log-weights).
    grid_bytes = 8 * (states + int(arrays["size"][mask("gibbs.BlockEnumerator.init")].sum()))
    counted = sum(calls(name) for name in _SAMPLERS)

    metrics = {
        "gibbs.BlockEnumerator.moments.calls": (calls("gibbs.BlockEnumerator.moments"), "count"),
        "gibbs.BlockEnumerator.moments.self_s": (moments_self, "s"),
        "gibbs.BlockEnumerator.init.calls": (calls("gibbs.BlockEnumerator.init"), "count"),
        "gibbs.BlockEnumerator.init.self_s": (self_s("gibbs.BlockEnumerator.init"), "s"),
        "gibbs.magnetizations.calls": (calls("gibbs.magnetizations"), "count"),
        "gibbs.gibbs_tables.calls": (calls("gibbs.gibbs_tables"), "count"),
        "gibbs.enumerations_per_sample": (calls("gibbs.BlockEnumerator.moments") / samples, "count"),
        "gibbs.states_visited": (states / samples, "states/sample"),
        "gibbs.moments.ns_per_state": (moments_self * 1e9 / states if states else 0.0, "ns"),
        "gibbs.grid_bytes_computed": (grid_bytes / samples, "B/sample"),
        "model.CouplingPath.row_at.calls": (calls("model.CouplingPath.row_at"), "count"),
        "model.CouplingPath.row_at.self_s": (self_s("model.CouplingPath.row_at"), "s"),
        "model.CouplingPath.row_increment.calls": (calls("model.CouplingPath.row_increment"), "count"),
        "model.CouplingPath.row_increment.self_s": (self_s("model.CouplingPath.row_increment"), "s"),
        "model.sample_couplings.self_s": (self_s("model.sample_couplings"), "s"),
        "model.sample_path.self_s": (self_s("model.sample_path"), "s"),
        "ensemble.run_ensemble.self_ms": (self_s("ensemble.run_ensemble") * 1e3, "ms"),
        "ensemble.samples": (counted, "count"),
        "cli.main.self_ms": (self_s("cli.main") * 1e3, "ms"),
    }
    for name in _EXPERIMENTS:
        metrics[f"{name}.ms_p50"] = (ms_quantile(name, 50), "ms")
        metrics[f"{name}.ms_p90"] = (ms_quantile(name, 90), "ms")
        metrics[f"{name}.self_s"] = (self_s(name), "s")

    total_self = float(selfs.sum())
    shares = {
        name: float(selfs[by_name[name]].sum()) / total_self for name in recorder.names
    }
    return metrics, shares

