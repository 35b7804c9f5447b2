"""Record ``reference.json``: each workload's payload rows at the reference seed.

Run from the root of a checkout of the commit the reference should pin:

    python3 perfbench/record_reference.py

Each workload's timed argv runs once, in a fresh worker process, with
``--seed REFERENCE_SEED``; its rows are stored with the call that made them.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import run


def main() -> int:
    src = Path.cwd() / "src"
    reference = {}
    run.OUT.mkdir(parents=True, exist_ok=True)
    for name, wl in run.WORKLOADS.items():
        path = run.OUT / f"record-{name}.json"
        spec = run.worker_spec(wl.call(wl.samples, run.REFERENCE_SEED, path), src, wl.samples)
        res = run.run_worker(spec, time.monotonic() + run.BUDGET_S)
        if "error" in res:
            raise SystemExit(f"{name}: {res['error']}")
        rows, digest = run.read_rows(path, wl, wl.samples, run.REFERENCE_SEED)
        reference[name] = {"argv": list(wl.argv), "samples": wl.samples,
                           "seed": run.REFERENCE_SEED, "rows": rows, "sha256": digest,
                           "commit": run.git_commit(Path.cwd())}
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
