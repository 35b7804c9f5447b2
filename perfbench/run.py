"""sktap benchmark: three ``sktap scaling`` ensembles, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload htap1-n20 --seed 42 --seconds 30 --trace 0

Every timed call of ``sktap.cli.main`` runs in a fresh interpreter
(``worker.py``) with ``--threads 1`` and the BLAS pools pinned to one thread.
A run starts ``round(seconds / process_s)`` (at least 2) such processes on the
workload's argv with ``--seed`` as the master seed, plus one process on the
same argv with the recorded reference seed.  It checks each payload:

* the timed payloads are byte-identical to each other;
* the reference payload's rows match ``reference.json`` within ``RTOL``;
* every payload has the expected shape, finite values and a consistent
  standard error.

``--trace 0`` prints the end-to-end metrics as medians over the timed
processes.  Times are scaled by the machine's speed just before each process's
call, from a calibration kernel that does not use sktap (README, "Noise").
``--trace 1`` runs two untraced processes (for the byte-identity check), the
reference, and one traced process of ``TRACED_SAMPLES`` samples, and prints
the per-layer metrics.  The last line of standard output is the result
object; the line before it records the machine.  Everything the run writes
goes to ``perfbench/out``.  ``perfbench/README.md`` documents the workloads
and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 42
# Claims are verified on this seed too; it is not used while tuning a change.
HELD_OUT_SEED = 7919
REFERENCE_SEED = 42
# Rows are means of squares and of residuals that cancel O(0.1) terms down to
# ~1e-4, so a 1e-12 change in an observable can move them by ~1e-11 relative.
RTOL = 1e-9
TRACED_SAMPLES = 100
UNTRACED_IN_TRACE_RUN = 2
MIN_SELF_COVER = 0.95
BUDGET_S = 170.0
# No timed process starts after this many times ``--seconds``, so that a run
# on a slow machine still takes about as long as asked.
OVERRUN = 1.25
# Median seconds of each worker calibration kernel on the reference machine
# (README); times are reported as if the machine always ran at that speed.
CALIBRATION_REF_S = {"calls": 0.037, "grid": 0.020}
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    argv: tuple
    samples: int          # samples per timed process
    process_s: float      # wall time of one timed process, start to exit (README)
    probe_n: int          # active sites of the largest enumeration
    want_pair: bool       # whether that enumeration builds the pair matrix
    calibration: str      # the calibration kernel that slows down as it does

    def flag(self, name: str) -> float:
        return float(self.argv[self.argv.index(name) + 1])

    def call(self, samples: int, seed: int, out: Path) -> list:
        return [*self.argv, "--samples", str(samples), "--seed", str(seed), "--out", str(out)]


WORKLOADS = {
    "htap1-n20": Workload(
        ("scaling", "--experiment", "htap1", "--n", "20", "--t", "0.5", "--h", "0.3",
         "--threads", "1"),
        samples=4, process_s=0.75, probe_n=20, want_pair=False, calibration="grid",
    ),
    "spectral-n24": Workload(
        ("scaling", "--experiment", "spectral", "--n", "24", "--t", "0.4", "--h", "0.3",
         "--threads", "1"),
        samples=2, process_s=0.85, probe_n=24, want_pair=True, calibration="grid",
    ),
    "ito-n6": Workload(
        ("scaling", "--experiment", "ito", "--n", "6", "--steps", "2048", "--t", "0.5",
         "--h", "0.3", "--threads", "1"),
        samples=2, process_s=1.2, probe_n=5, want_pair=False, calibration="calls",
    ),
}


class PayloadError(Exception):
    """A payload that is missing, malformed or off its reference."""


def run_worker(spec: dict, deadline: float) -> dict:
    """Run ``worker.py`` in a fresh interpreter; its result, or ``{"error": ...}``."""
    env = dict(os.environ, PYTHONPATH=spec["src"])
    env.update({name: "1" for name in BLAS_ENV})
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return {"error": "time budget exhausted before start"}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            capture_output=True, text=True, env=env, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"worker exceeded {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    result = json.loads(lines[-1])
    if result["code"] != 0:
        result["error"] = f"sktap exit {result['code']}: {proc.stderr.strip()[-500:]}"
    return result


def read_rows(path: Path, wl: Workload, samples: int, seed: int) -> tuple[list, str]:
    """Rows of a ``scaling`` payload after shape checks, and its SHA-256."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise PayloadError(f"no payload: {exc}") from exc
    payload = json.loads(data)
    config = payload["config"]
    if config["samples"] != samples or config["seed"] != seed:
        raise PayloadError(f"payload config {config} does not match the call")
    if payload["columns"] != ["n", "mean", "variance", "stderr"]:
        raise PayloadError(f"unexpected columns {payload['columns']}")
    rows = payload["rows"]
    n = int(wl.flag("--n"))
    if len(rows) != 1 or rows[0][0] != n:
        raise PayloadError(f"expected one row for n={n}, got {rows}")
    _, mean, var, stderr = rows[0]
    if not all(math.isfinite(v) for v in (mean, var, stderr)) or mean <= 0 or var < 0:
        raise PayloadError(f"row out of range: {rows[0]}")
    if not math.isclose(stderr, math.sqrt(var / samples), rel_tol=1e-12):
        raise PayloadError(f"stderr {stderr} != sqrt(variance / samples)")
    return rows, hashlib.sha256(data).hexdigest()


def check_reference(name: str, rows: list, samples: int) -> None:
    ref = json.loads(REFERENCE.read_text())[name]
    if ref["samples"] != samples or ref["seed"] != REFERENCE_SEED:
        raise PayloadError(f"reference for {name} was recorded with another call")
    for got, want in zip(rows[0], ref["rows"][0]):
        if not math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0):
            raise PayloadError(f"row {rows[0]} differs from reference {ref['rows'][0]}")


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _caches() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return caches


def git_commit(root: Path) -> str:
    """Commit of a git checkout, read from its files; "unknown" elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": 1,
        "git_commit": git_commit(root),
    }


_PAYLOAD_ERRORS = (PayloadError, ValueError, KeyError, TypeError)


def run_timed(wl: Workload, seed: int, count: int, src: Path, out: Path,
              started: float, seconds: int) -> list:
    """Up to ``count`` timed processes on one argv, then the byte-identity check."""
    results = []
    for i in range(count):
        if i >= 2 and time.monotonic() - started > OVERRUN * seconds:
            break
        path = out / f"timed-{i}.json"
        path.unlink(missing_ok=True)
        res = run_worker(worker_spec(wl.call(wl.samples, seed, path), src, wl.samples),
                         started + BUDGET_S)
        if "error" not in res:
            try:
                _, res["sha256"] = read_rows(path, wl, wl.samples, seed)
            except _PAYLOAD_ERRORS as exc:
                res["error"] = str(exc)
        results.append(res)
    digests = [res["sha256"] for res in results if "sha256" in res]
    if digests:
        majority = max(set(digests), key=digests.count)
        for res in results:
            if res.get("sha256", majority) != majority:
                res["error"] = f"payload bytes differ across processes ({res['sha256']})"
    return results


def run_reference(name: str, wl: Workload, src: Path, out: Path, deadline: float) -> dict:
    path = out / "reference.json"
    path.unlink(missing_ok=True)
    res = run_worker(worker_spec(wl.call(wl.samples, REFERENCE_SEED, path), src, wl.samples),
                     deadline)
    if "error" not in res:
        try:
            rows, _ = read_rows(path, wl, wl.samples, REFERENCE_SEED)
            check_reference(name, rows, wl.samples)
        except _PAYLOAD_ERRORS as exc:
            res["error"] = str(exc)
    return res


def run_traced(wl: Workload, seed: int, src: Path, out: Path, deadline: float) -> dict:
    path = out / "traced.json"
    path.unlink(missing_ok=True)
    probe = {"n": wl.probe_n, "t": wl.flag("--t"), "h": wl.flag("--h"),
             "want_pair": wl.want_pair}
    trace = {"spans_out": str(out / "spans.npz"), "probe": probe}
    res = run_worker(worker_spec(wl.call(TRACED_SAMPLES, seed, path), src, TRACED_SAMPLES, trace),
                     deadline)
    if "error" not in res:
        try:
            read_rows(path, wl, TRACED_SAMPLES, seed)
            if res["self_cover"] < MIN_SELF_COVER:
                raise PayloadError(
                    f"self times cover {res['self_cover']:.3f} of the traced wall time"
                )
        except _PAYLOAD_ERRORS as exc:
            res["error"] = str(exc)
    return res


def worker_spec(argv: list, src: Path, samples: int, trace=None) -> dict:
    return {"argv": argv, "src": str(src), "samples": samples, "trace": trace}


def _slowdown(res: dict, kernel: str) -> float:
    """Calibration time just before one process's call over the reference time."""
    return res["calibration"][kernel] / CALIBRATION_REF_S[kernel]


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"master seed of the timed calls (held out for claims: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "sktap" / "cli.py").is_file():
        print(f"no sktap sources under {src}: run from the root of a checkout", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("--seconds must be at least 1", file=sys.stderr)
        return 2
    started = time.monotonic()
    deadline = started + BUDGET_S
    wl = WORKLOADS[args.workload]
    out = OUT / args.workload
    out.mkdir(parents=True, exist_ok=True)

    planned = UNTRACED_IN_TRACE_RUN if args.trace else max(2, round(args.seconds / wl.process_s))
    timed = run_timed(wl, args.seed, planned, src, out, started, args.seconds)
    records = [("timed", res) for res in timed]
    records.append(("reference", run_reference(args.workload, wl, src, out, deadline)))
    if args.trace:
        traced = run_traced(wl, args.seed, src, out, deadline)
        records.append(("traced", traced))

    attempted = len(records)
    failed = sum("error" in res for _, res in records)
    for role, res in records:
        if "error" in res:
            print(f"{role} process failed: {res['error']}", file=sys.stderr)
    good = [res for res in timed if "error" not in res]
    if not good or (args.trace and "error" in traced):
        print("no successful measurement to report", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {name: _metric(v, unit) for name, (v, unit) in traced["layer_metrics"].items()}
    else:
        def median(values):
            return statistics.median(list(values))

        kernel = wl.calibration
        metrics = {
            "samples_per_s": _metric(
                median(wl.samples / r["wall_s"] * _slowdown(r, kernel) for r in good), "1/s"
            ),
            "cpu_ms_per_sample": _metric(
                median(1e3 * r["cpu_s"] / wl.samples / _slowdown(r, kernel) for r in good), "ms"
            ),
            "peak_rss_mb": _metric(median(r["peak_rss_mib"] for r in good), "MiB"),
            "setup_s": _metric(median(r["setup_s"] / _slowdown(r, "calls") for r in good), "s"),
            # Add-one estimate over the planned processes and the reference:
            # never 0, independent of how many processes fit in the run, and
            # at least doubled by the first failure.
            "failed_share": _metric((failed + 1) / (planned + 1 + 2), "share"),
        }

    env = environment(root)
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "processes": records, **summary}
    (out / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
