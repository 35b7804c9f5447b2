"""One benchmark process: import sktap, time one ``sktap.cli.main`` call.

``run.py`` starts this script in a fresh interpreter with the BLAS thread
pools pinned to 1 and ``PYTHONPATH`` pointing at the checkout's ``src``.  Its
only argument is a JSON object:

    {"argv": [...], "src": "<checkout>/src", "samples": k,
     "trace": null | {"spans_out": path, "probe": {"n": .., "t": .., "h": ..,
                                                   "want_pair": ..}}}

The last line of standard output is one JSON object with the exit code of
``main``, the set-up and timed wall times, the CPU time and peak RSS of this
process, the calibration times measured just before the timed call, and,
when tracing, the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _calibrate() -> dict:
    """Seconds of two fixed numpy kernels: how fast the machine runs right now.

    ``calls`` makes 6,000 small numpy calls from a Python loop, as an Ito path
    does; ``grid`` exponentiates a 2^16 float64 grid 256 times, as enumeration
    passes do.  Neither touches sktap.  They run before the timed call, so
    nothing the call leaves behind (heap layout, caches) can move them, and
    they hold 1 MiB, below the growth of any workload's own peak RSS.
    """
    import numpy as np

    small = np.linspace(-1.0, 0.0, 32)
    grid = np.linspace(-30.0, 0.0, 1 << 16)
    out = np.exp(grid)
    start = time.perf_counter()
    for _ in range(6000):
        float(np.exp(small - small.max()).sum())
    mid = time.perf_counter()
    for _ in range(256):
        np.exp(grid, out=out)
    return {"calls": mid - start, "grid": time.perf_counter() - mid}


def _exp_ns_per_element(shape: tuple) -> float:
    """Median time of one ``np.exp`` over a float64 grid, per element."""
    import numpy as np

    x = np.random.default_rng(0).uniform(-30.0, 0.0, size=shape)
    y = np.empty_like(x)
    calls = max(1, (1 << 22) // x.size)
    times = []
    for _ in range(7):
        start = time.perf_counter_ns()
        for _ in range(calls):
            np.exp(x, out=y)
        times.append((time.perf_counter_ns() - start) / (calls * x.size))
    return statistics.median(times)


def _span_cost_s(spans) -> float:
    """Median cost of recording one span: a wrapped no-op minus a bare one."""

    def nothing():
        pass

    wrapped = spans.SpanRecorder().wrap("probe", nothing)
    calls = 100_000
    costs = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        mid = time.perf_counter()
        for _ in range(calls):
            nothing()
        costs.append((2 * mid - start - time.perf_counter()) / calls)
    return statistics.median(costs)


def _peak_alloc_mb(n: int, t: float, h: float, want_pair: bool) -> float:
    """Peak traced allocation of one enumerator construction plus one pass."""
    import tracemalloc

    from sktap.gibbs import BlockEnumerator
    from sktap.model import ModelParams, sample_couplings

    params = ModelParams.uniform(n, t, h)
    couplings = sample_couplings(params, 0).entries
    tracemalloc.start()
    try:
        BlockEnumerator(couplings).moments(params.field, want_pair=want_pair)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def _layer_report(spans, recorder, spec: dict, wall_s: float) -> dict:
    """Per-layer metrics of the traced call, then the probes that need no spans."""
    trace = spec["trace"]
    metrics, shares = spans.layer_metrics(recorder, spec["samples"])
    self_cover = float(spans.self_times(recorder.arrays()).sum()) / 1e9 / wall_s
    recorded = len(recorder.start)
    recorder.save(trace["spans_out"])

    # The probes below still run through the wrappers; their spans are not
    # part of the saved or reduced set.
    probe = trace["probe"]
    n = probe["n"]
    floor_ns = _exp_ns_per_element((1 << (n + 1) // 2, 1 << n // 2))
    metrics["gibbs.exp_floor_ratio"] = (metrics["gibbs.moments.ns_per_state"][0] / floor_ns, "ratio")
    metrics["gibbs.moments.peak_alloc_mb"] = (
        _peak_alloc_mb(n, probe["t"], probe["h"], probe["want_pair"]),
        "MiB",
    )
    # Speed phases of a shared machine swamp a traced-versus-untraced
    # comparison, so the overhead is the measured cost of the spans.
    span_cost = _span_cost_s(spans)
    metrics["trace.overhead_share"] = (recorded * span_cost / wall_s, "share")
    return {"self_cover": self_cover, "shares": shares, "exp_ns_per_element": floor_ns,
            "span_cost_s": span_cost, "layer_metrics": metrics}


def main() -> int:
    spec = json.loads(sys.argv[1])
    start = time.perf_counter()
    import sktap.cli

    setup_s = time.perf_counter() - start
    src = Path(spec["src"]).resolve()
    if src not in Path(sktap.cli.__file__).resolve().parents:
        print(f"sktap imported from {sktap.cli.__file__}, not from {src}", file=sys.stderr)
        return 3

    calibration = _calibrate()
    main_fn = sktap.cli.main
    recorder = None
    if spec["trace"] is not None:
        import spans

        recorder = spans.SpanRecorder()
        spans.install(recorder)
        main_fn = recorder.wrap("cli.main", main_fn)

    cpu0 = _cpu_s()
    wall0 = time.perf_counter()
    # The CLI prints a one-line fit summary; keep stdout for the result line.
    with contextlib.redirect_stdout(sys.stderr):
        code = main_fn(spec["argv"])
    wall_s = time.perf_counter() - wall0
    cpu_s = _cpu_s() - cpu0
    result = {
        "code": code,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "calibration": calibration,
    }

    if recorder is not None:
        result.update(_layer_report(spans, recorder, spec, wall_s))

    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
