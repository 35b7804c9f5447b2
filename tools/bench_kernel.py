"""Time ``BlockEnumerator`` passes at n = 5..26, ``htap1_residuals`` at n = 8..20, Ito paths and start-up.

    python tools/bench_kernel.py change=src parent=../parent/src > BENCH_kernel.json

Each ``LABEL=SRC`` argument names the ``src`` directory of a checkout.  The
script runs ``ROUNDS`` rounds; in every round each label runs its workers,
each a fresh interpreter with the BLAS pools pinned to one thread, and the
order of the labels alternates from round to round, so slow phases of a
shared machine fall on both sides.  First, one worker per size, one after
another, runs the cavity sweep ``htap1_residuals`` of criterion 04 on
``HTAP1_SAMPLES`` disorder samples after one untimed sample, and records the
time and the minor page faults (``ru_minflt``) per sample.  A fresh
interpreter per size keeps the fault count from depending on what the
allocator still holds from earlier sizes.  Then one worker times the rest:
for every size and with and without the pair matrix, the enumerator
construction and one ``moments`` call (after one untimed warm-up pass), with
the split that pass ran on (b, the tiles and the columns of each), and one
``np.exp`` over a float64 grid of the same 2^ceil(n/2) x 2^floor(n/2) shape;
above 2^24 states the floor runs over a 2^24-state grid as many times as
make up 2^n states, so it holds 256 MiB at most.  Every timing is the
median of its calls, so a spike from another tenant of a shared machine
moves one call, not the timing.  A kernel row makes at least
``KERNEL_CALLS`` calls of each, and small sizes repeat the call until it
covers 2^20 states; the floor takes one call at n >= 20.  Before the kernel
rows, while the interpreter is still fresh, it
times the ensemble of criterion 04 itself (``tests/test_acceptance.py``,
500 samples at each of n = 8, 12, 16, 20).  For the small systems of the
Ito check it times one ``moments`` call, magnetizations only, on the stack
of the pair check on a 2049-point grid at n = 6, 4 x 2049 rows at na = 4
(both clamped spins of site 0, each with site 1 clamped both ways), and on
2 x 2049 rows at na = 5, as many states in systems one site larger
(``SMALL``); and one whole check,
``ito_decomposition_residual`` on a 2048-step path at n = 6 (the ``ito-n6``
workload's sample), per path over ``ITO_PATHS`` paths, and the traced
(``tracemalloc``) peak of one more check, traced from after its path is
drawn.
For the stacks that chunks batch it times a fresh enumerator and one
``moments`` call, magnetizations only, over 20 coupling blocks at na = 17,
18 and 19 (``STACKS``: the htap1 cavity stacks at n = 18-20 have na + 1),
and over the field rows of one block (``ONE_BLOCK``): 4100 at na = 9 and
11, the stacks of the Ito pair check at n = 11 and 13 with 1024 steps, and
2049 at na = 17.
After the htap1 workers of each round, ``STARTUP_REPEATS`` fresh
interpreters each time ``import sktap.cli`` and read their peak RSS
(``ru_maxrss``) right after it, as many run ``python -m sktap.cli
--help``, timed from start to exit: the floor of every CLI call, and as
many time one ``sktap.cli.main`` call of the ``ito-n6`` workload's argv
(2 samples) right after ``import sktap.cli``, as a benchmark worker makes
it, counting with ``gc.callbacks`` the collections of each generation
inside the call, and as many time the first ``build_parser`` and its
``parse_args`` of the ``htap1-n20`` workload's argv right after the import.
After the start-up rows, one fresh interpreter per size of ``ALLOC_SIZES``,
with and without the pair matrix, counts the minor faults of the first
enumerator construction and ``moments`` call, and of a second one after
it, then traces (``tracemalloc``) the transient of a third call: its peak
less what was allocated before it.  One more per size traces a first
construction, whose sign matrices are not cached yet: its peak, and what
the process holds after it.  One more runs the ``spectral-n24``
workload's argv (2 samples) after the benchmark's own calibration kernels
(``perfbench/worker.py``'s ``_calibrate``), as a benchmark worker does, and
records the time, the minor faults and the peak RSS so far (``ru_maxrss``)
of each sample.  Last, one fresh interpreter traces (``tracemalloc``) the
peak of one whole ``ito`` sample, draw included, at n = 12 and 20 with 2048
steps, each after a 2-step warm-up sample, and one more counts the minor
faults of each of its first three Ito checks at n = 6, on 2048-step paths
drawn before the first: the rows ``ito_memory``.
The report gives the min and median over the rounds (over every repeat of
every round for the start-up rows).
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

SIZES = (12, 16, 20, 22, 23, 24, 26)
HTAP1_SIZES = (8, 12, 16, 20)
HTAP1_SAMPLES = 16
SMALL = ((4, 4 * 2049), (5, 2 * 2049))  # (na, field rows), magnetizations only
STACKS = ((17, 20), (18, 20), (19, 20))  # (na, coupling blocks), magnetizations only
STACK_CALLS = 20
# (na, field rows, calls) on one coupling block, magnetizations only
ONE_BLOCK = ((9, 4100, STACK_CALLS), (11, 4100, STACK_CALLS), (17, 2049, 2))
ITO_PATHS = 16
FLOOR_STATES = 24  # log2 of the largest grid the floor allocates
ROUNDS = 7
KERNEL_CALLS = 16  # fewest calls behind a kernel row's timing
THREADS = 1
STARTUP_REPEATS = 5
# Run by ``python -c`` rather than as this file, whose own imports (subprocess
# among them) would already be loaded when sktap.cli's import is timed.
IMPORT_PROBE = """\
import resource, time
start = time.perf_counter()
import sktap.cli
ms = (time.perf_counter() - start) * 1e3
print(ms, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""
# One ``main`` call on the probe's own argv; it prints the exit code, the
# milliseconds of the call and the collections of each generation inside it.
MAIN_PROBE = """\
import gc, sys, time
import sktap.cli
collections = [0, 0, 0]
def count(phase, info):
    if phase == "start":
        collections[info["generation"]] += 1
gc.callbacks.append(count)
start = time.perf_counter()
code = sktap.cli.main(sys.argv[1:])
ms = (time.perf_counter() - start) * 1e3
gc.callbacks.remove(count)
print(code, ms, *collections)
"""
ITO_ARGV = ("scaling", "--experiment", "ito", "--n", "6", "--steps", "2048", "--t", "0.5",
            "--h", "0.3", "--threads", "1", "--samples", "2", "--seed", "42")
# The first parser ``main`` builds in a fresh interpreter, and its parse of the
# probe's own argv; it prints the milliseconds of both.
PARSE_PROBE = """\
import sys, time
import sktap.cli
start = time.perf_counter()
sktap.cli.build_parser(sys.argv[1]).parse_args(sys.argv[1:])
print((time.perf_counter() - start) * 1e3)
"""
HTAP1_ARGV = ("scaling", "--experiment", "htap1", "--n", "20", "--t", "0.5", "--h", "0.3",
              "--threads", "1", "--samples", "4", "--seed", "42")
ALLOC_SIZES = (20, 22, 24)
# The minor faults of a first and of a second construction and pass, then
# the traced transient of a third pass: its peak less what came before it.
ALLOC_PROBE = """\
import resource, sys, tracemalloc
from sktap.gibbs import BlockEnumerator
from sktap.model import ModelParams, sample_couplings
n, want_pair = int(sys.argv[1]), sys.argv[2] == "1"
params = ModelParams.uniform(n, 0.4, 0.3)
couplings = sample_couplings(params, 0).entries
faults = []
for _ in range(2):
    start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    BlockEnumerator(couplings).moments(params.field, want_pair=want_pair)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start)
tracemalloc.start()
ctx = BlockEnumerator(couplings)
before, _ = tracemalloc.get_traced_memory()
tracemalloc.reset_peak()
ctx.moments(params.field, want_pair=want_pair)
print(*faults, (tracemalloc.get_traced_memory()[1] - before) / 2**20)
"""
# The traced peak of a first construction, with no sign matrix cached yet,
# and what the process holds after it, in MiB.
INIT_PROBE = """\
import sys, tracemalloc
from sktap.gibbs import BlockEnumerator
from sktap.model import ModelParams, sample_couplings
couplings = sample_couplings(ModelParams.uniform(int(sys.argv[1]), 0.4, 0.3), 0).entries
tracemalloc.start()
ctx = BlockEnumerator(couplings)
held, peak = tracemalloc.get_traced_memory()
print(peak / 2**20, held / 2**20)
"""
# The traced peak of one whole ``ito`` sample, draw included, at each size in
# argv (2048 steps), after a 2-step warm-up sample, as the memory budget of
# the test suite traces it; in MiB.
ITO_SAMPLE_PROBE = """\
import sys, tracemalloc
from sktap.ensemble import EnsembleConfig, _scalar
from sktap.model import substream_seed
peaks = []
for n in map(int, sys.argv[1:]):
    cfg = EnsembleConfig((n,), 2, 0.5, 0.3, 1, "ito", ito_steps=2048)
    warm = EnsembleConfig((n,), 2, 0.5, 0.3, 1, "ito", ito_steps=2)
    _scalar(warm, n, 0, substream_seed(1, n, 0))
    tracemalloc.start()
    _scalar(cfg, n, 1, substream_seed(1, n, 1))
    peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
    tracemalloc.stop()
print(*peaks)
"""
# The minor faults of each of the first argv[1] checks of a fresh
# interpreter, on 2048-step paths at n = 6 drawn before the first check.
ITO_FAULT_PROBE = """\
import resource, sys
from sktap.dynamics import ItoCheckConfig, ito_decomposition_residual
from sktap.model import ModelParams, sample_path
params = ModelParams.uniform(6, 0.5, 0.3)
check = ItoCheckConfig(clamped_site=0, target_site=1)
paths = [sample_path(params, 2048, seed) for seed in range(int(sys.argv[1]))]
faults = []
for path in paths:
    start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    ito_decomposition_residual(path, check, params)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start)
print(*faults)
"""
# One ``main`` call on the probe's argv after perfbench's calibration, the
# ms and minor faults of each sample recorded around the experiment's entry
# in ``EXPERIMENTS``; argv[1] is the perfbench directory.
SAMPLES_PROBE = """\
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from worker import _calibrate
import sktap.cli, sktap.ensemble
_calibrate()
experiments = sktap.ensemble.EXPERIMENTS
sample = experiments["spectral"]
record = []
def timed(*args):
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    value = sample(*args)
    ms = (time.perf_counter() - start) * 1e3
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record.append([ms, usage.ru_minflt - faults, usage.ru_maxrss / 1024])
    return value
experiments["spectral"] = timed
code = sktap.cli.main(sys.argv[2:])
print(code, json.dumps(record))
"""
SPECTRAL_ARGV = ("scaling", "--experiment", "spectral", "--n", "24", "--t", "0.4", "--h", "0.3",
                 "--threads", "1", "--samples", "2", "--seed", "42")
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _timed(fn, calls: int) -> float:
    """Median ms of ``calls`` calls of ``fn``."""
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def _htap1_row(n: int) -> dict:
    import resource

    from sktap.model import ModelParams, sample_couplings
    from sktap.tap import htap1_residuals

    params = ModelParams.uniform(n, 0.5, 0.3)
    samples = [sample_couplings(params, seed) for seed in range(HTAP1_SAMPLES + 1)]
    htap1_residuals(samples.pop(), params)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    for cm in samples:
        htap1_residuals(cm, params)
    ms = (time.perf_counter() - start) / HTAP1_SAMPLES * 1e3
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return {"n": n, "ms_per_sample": ms, "minflt_per_sample": faults / HTAP1_SAMPLES}


def _criterion_04_s() -> float:
    from sktap.ensemble import EnsembleConfig, run_ensemble

    cfg = EnsembleConfig(n_values=(8, 12, 16, 20), samples=500, t=0.5, h=0.3,
                         master_seed=42, experiment="htap1")
    start = time.perf_counter()
    run_ensemble(cfg)
    return time.perf_counter() - start


def _small_rows() -> list:
    import numpy as np

    from sktap.gibbs import BlockEnumerator
    from sktap.model import ModelParams, sample_couplings

    rows = []
    for na, count in SMALL:
        params = ModelParams.uniform(na, 0.5, 0.3)
        ctx = BlockEnumerator(sample_couplings(params, 0).entries)
        fields = np.random.default_rng(na).normal(0.3, 0.5, (count, na))
        ctx.moments(fields, want_pair=False)
        calls = max(1, (1 << 20) // (count << na))
        ms = _timed(lambda: ctx.moments(fields, want_pair=False), calls)
        rows.append({"na": na, "rows": count, "moments_ms": ms})
    return rows


def _stack_rows() -> list:
    import numpy as np

    from sktap.gibbs import BlockEnumerator
    from sktap.model import ModelParams, sample_couplings

    rows = []
    for na, count in STACKS:
        params = ModelParams.uniform(na, 0.5, 0.3)
        G = np.array([sample_couplings(params, seed).entries for seed in range(count)])
        fields = np.random.default_rng(na).normal(0.3, 0.5, (count, na))
        BlockEnumerator(G).moments(fields, want_pair=False)
        ms = _timed(lambda: BlockEnumerator(G).moments(fields, want_pair=False), STACK_CALLS)
        rows.append({"na": na, "blocks": count, "rows": count, "init_moments_ms": ms})
    for na, count, calls in ONE_BLOCK:
        params = ModelParams.uniform(na, 0.5, 0.3)
        G = sample_couplings(params, 0).entries
        fields = np.random.default_rng(na).normal(0.3, 0.5, (count, na))
        BlockEnumerator(G).moments(fields, want_pair=False)
        ms = _timed(lambda: BlockEnumerator(G).moments(fields, want_pair=False), calls)
        rows.append({"na": na, "blocks": 1, "rows": count, "init_moments_ms": ms})
    return rows


def _ito_path() -> tuple:
    """ms per check over ``ITO_PATHS`` paths, then the traced peak of one
    more check (MiB), traced from after its path is drawn."""
    import tracemalloc

    from sktap.dynamics import ItoCheckConfig, ito_decomposition_residual
    from sktap.model import ModelParams, sample_path

    params = ModelParams.uniform(6, 0.5, 0.3)
    check = ItoCheckConfig(clamped_site=0, target_site=1)
    paths = [sample_path(params, 2048, seed) for seed in range(ITO_PATHS + 2)]
    ito_decomposition_residual(paths.pop(), check, params)
    traced = paths.pop()
    start = time.perf_counter()
    for path in paths:
        ito_decomposition_residual(path, check, params)
    ms = (time.perf_counter() - start) / ITO_PATHS * 1e3
    tracemalloc.start()
    try:
        ito_decomposition_residual(traced, check, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return ms, peak / 2**20


def worker() -> None:
    import numpy as np

    from sktap.gibbs import BlockEnumerator, _Layout
    from sktap.model import ModelParams, sample_couplings

    criterion_04_s = _criterion_04_s()
    small = _small_rows()
    stacks = _stack_rows()
    ito_path_ms, ito_path_peak_mib = _ito_path()
    rows = []
    for n in SIZES:
        calls = max(KERNEL_CALLS, (1 << 20) >> n)
        m = min(n, FLOOR_STATES)
        grid = np.random.default_rng(0).uniform(-30.0, 0.0, (1 << (m + 1) // 2, 1 << m // 2))
        out = np.empty_like(grid)
        np.exp(grid, out=out)
        floor_ms = _timed(lambda: np.exp(grid, out=out), max(1, (1 << 20) >> n)) * (1 << n - m)
        del grid, out
        params = ModelParams.uniform(n, 0.4, 0.3)
        couplings = sample_couplings(params, 0).entries
        probe = BlockEnumerator(couplings)
        layout = _Layout(probe.n1, probe.n2, int(probe.low[0]))
        split = {"b": layout.low, "tiles": layout.tiles, "tile_cols": layout.tile_cols}
        for want_pair in (False, True):
            BlockEnumerator(couplings).moments(params.field, want_pair=want_pair)
            init_ms = _timed(lambda: BlockEnumerator(couplings), calls)
            ctx = BlockEnumerator(couplings)
            moments_ms = _timed(lambda: ctx.moments(params.field, want_pair=want_pair), calls)
            rows.append({"n": n, "want_pair": want_pair, **split, "init_ms": init_ms,
                         "moments_ms": moments_ms, "exp_floor_ms": floor_ms})
    print(json.dumps({"kernel": rows, "criterion_04_s": criterion_04_s,
                      "small": small, "stacks": stacks, "ito_path_ms": ito_path_ms,
                      "ito_path_peak_mib": ito_path_peak_mib}))


def _env(src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    return env


def _worker(src: str, *args: str):
    done = subprocess.run([sys.executable, __file__, "--worker", *args], env=_env(src),
                          check=True, capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def _startup(src: str) -> dict:
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=_env(src), check=True,
                          capture_output=True, text=True)
    import_ms, maxrss_mib = (float(v) for v in done.stdout.split())
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "sktap.cli", "--help"], env=_env(src), check=True,
                   capture_output=True)
    help_ms = (time.perf_counter() - start) * 1e3
    with tempfile.TemporaryDirectory() as tmp:
        done = subprocess.run([sys.executable, "-c", MAIN_PROBE, *ITO_ARGV,
                               "--out", os.path.join(tmp, "ito.json")],
                              env=_env(src), check=True, capture_output=True, text=True)
    code, ito_main_ms, *collections = done.stdout.splitlines()[-1].split()
    if code != "0":
        raise RuntimeError(f"sktap exit {code}: {done.stderr}")
    done = subprocess.run([sys.executable, "-c", PARSE_PROBE, *HTAP1_ARGV], env=_env(src),
                          check=True, capture_output=True, text=True)
    return {"import_ms": import_ms, "import_maxrss_mib": maxrss_mib, "help_ms": help_ms,
            "htap1_parse_ms": float(done.stdout), "ito_main_ms": float(ito_main_ms),
            **{f"ito_main_gen{g}_collections": int(c) for g, c in enumerate(collections)}}


def _alloc(src: str) -> list:
    rows = []
    for n in ALLOC_SIZES:
        done = subprocess.run([sys.executable, "-c", INIT_PROBE, str(n)], env=_env(src),
                              check=True, capture_output=True, text=True)
        init_peak, init_held = (float(v) for v in done.stdout.split())
        for want_pair in (False, True):
            done = subprocess.run([sys.executable, "-c", ALLOC_PROBE, str(n), str(int(want_pair))],
                                  env=_env(src), check=True, capture_output=True, text=True)
            first, second, transient = done.stdout.split()
            rows.append({"n": n, "want_pair": want_pair, "minflt_first": int(first),
                         "minflt_second": int(second), "transient_mib": float(transient),
                         "init_peak_mib": init_peak, "init_held_mib": init_held})
    return rows


def _spectral_samples(src: str) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        done = subprocess.run([sys.executable, "-c", SAMPLES_PROBE, PERFBENCH, *SPECTRAL_ARGV,
                               "--out", os.path.join(tmp, "spectral.json")],
                              env=_env(src), check=True, capture_output=True, text=True)
    code, record = done.stdout.splitlines()[-1].split(" ", 1)
    if code != "0":
        raise RuntimeError(f"sktap exit {code}: {done.stderr}")
    return {f"sample{k}_{key}": value for k, row in enumerate(json.loads(record))
            for key, value in zip(("ms", "minflt", "maxrss_mib"), row)}


def _ito_memory(src: str) -> dict:
    done = subprocess.run([sys.executable, "-c", ITO_SAMPLE_PROBE, "12", "20"],
                          env=_env(src), check=True, capture_output=True, text=True)
    peaks = [float(v) for v in done.stdout.split()]
    done = subprocess.run([sys.executable, "-c", ITO_FAULT_PROBE, "3"],
                          env=_env(src), check=True, capture_output=True, text=True)
    return {**{f"n{n}_sample_peak_mib": peak for n, peak in zip((12, 20), peaks)},
            **{f"path{k}_minflt": int(v) for k, v in enumerate(done.stdout.split())}}


def _run(src: str) -> dict:
    htap1 = [_worker(src, "htap1", str(n)) for n in HTAP1_SIZES]
    startup = [_startup(src) for _ in range(STARTUP_REPEATS)]
    return {**_worker(src), "htap1": htap1, "startup": startup, "alloc": _alloc(src),
            "spectral_samples": _spectral_samples(src), "ito_memory": _ito_memory(src)}


def _summary(values: list) -> dict:
    return {"min": min(values), "median": statistics.median(values)}


def _machine() -> dict:
    import numpy as np

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            model = next(line.split(":", 1)[1].strip() for line in info
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu": model, "logical_cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
            "blas_threads": THREADS,
            # when set, every start-up row includes compiling sktap's sources
            "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))}


def main(argv: list) -> int:
    labels = dict(arg.split("=", 1) for arg in argv)
    if not labels:
        print(__doc__, file=sys.stderr)
        return 1
    runs = {label: [] for label in labels}
    order = list(labels)
    for r in range(ROUNDS):
        for label in order if r % 2 == 0 else order[::-1]:
            runs[label].append(_run(labels[label]))
    results, htap1, criterion_04, small, stacks, ito_path, startup = {}, {}, {}, {}, {}, {}, {}
    ito_peak, alloc, spectral, ito_memory = {}, {}, {}, {}
    for label, rounds in runs.items():
        ito_memory[label] = {key: _summary([rnd["ito_memory"][key] for rnd in rounds])
                             for key in rounds[0]["ito_memory"]}
        alloc[label] = [
            {"n": row["n"], "want_pair": row["want_pair"],
             **{key: _summary([rnd["alloc"][i][key] for rnd in rounds])
                for key in ("minflt_first", "minflt_second", "transient_mib",
                            "init_peak_mib", "init_held_mib")}}
            for i, row in enumerate(rounds[0]["alloc"])
        ]
        spectral[label] = {key: _summary([rnd["spectral_samples"][key] for rnd in rounds])
                           for key in rounds[0]["spectral_samples"]}
        startup[label] = {key: _summary([rep[key] for rnd in rounds for rep in rnd["startup"]])
                          for key in rounds[0]["startup"][0]}
        criterion_04[label] = _summary([rnd["criterion_04_s"] for rnd in rounds])
        ito_path[label] = _summary([rnd["ito_path_ms"] for rnd in rounds])
        ito_peak[label] = _summary([rnd["ito_path_peak_mib"] for rnd in rounds])
        small[label] = [
            {"na": row["na"], "rows": row["rows"],
             "moments_ms": _summary([rnd["small"][i]["moments_ms"] for rnd in rounds])}
            for i, row in enumerate(rounds[0]["small"])
        ]
        stacks[label] = [
            {**row, "init_moments_ms": _summary([rnd["stacks"][i]["init_moments_ms"]
                                                 for rnd in rounds])}
            for i, row in enumerate(rounds[0]["stacks"])
        ]
        results[label] = []
        for i, row in enumerate(rounds[0]["kernel"]):
            cell = {key: row[key] for key in ("n", "want_pair", "b", "tiles", "tile_cols")}
            for key in ("init_ms", "moments_ms", "exp_floor_ms"):
                cell[key] = _summary([rnd["kernel"][i][key] for rnd in rounds])
            cell["moments_over_floor"] = cell["moments_ms"]["median"] / cell["exp_floor_ms"]["median"]
            results[label].append(cell)
        htap1[label] = [
            {"n": row["n"], **{key: _summary([rnd["htap1"][i][key] for rnd in rounds])
                               for key in ("ms_per_sample", "minflt_per_sample")}}
            for i, row in enumerate(rounds[0]["htap1"])
        ]
    print(json.dumps({"what": __doc__.strip().splitlines()[0], "rounds": ROUNDS,
                      "machine": _machine(), "results": results, "htap1": htap1,
                      "criterion_04_s": criterion_04, "small": small, "stacks": stacks,
                      "ito_path_ms": ito_path, "ito_path_peak_mib": ito_peak,
                      "ito_memory": ito_memory,
                      "startup": startup, "alloc": alloc,
                      "spectral_n24_samples": spectral}, indent=1))
    return 0


if __name__ == "__main__":
    if sys.argv[1:3] == ["--worker", "htap1"]:
        print(json.dumps(_htap1_row(int(sys.argv[3]))))
    elif sys.argv[1:] == ["--worker"]:
        worker()
    else:
        raise SystemExit(main(sys.argv[1:]))
