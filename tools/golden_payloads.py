"""Print a sha256 of the payload of every command in README's "Command line" block.

    PYTHONPATH=src python tools/golden_payloads.py > golden.json

The commands are read from the first ``sh`` block after the README heading
"## Command line", so the README stays the only list of them.  Each command
runs in this process through ``sktap.cli.main`` with the BLAS pools pinned
to one thread and its ``--out`` redirected into a temporary directory; a
command without ``--out`` gets one.  The ``sktap`` run is whichever is
importable, so point ``PYTHONPATH`` at the checkout to test; its location
goes to standard error.  The output is a JSON object mapping each command,
as written in the README, to the digest of its payload file.  Two checkouts
whose digests match print byte-identical payloads.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import hashlib
import io
import json
import shlex
import sys
import tempfile
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands(text: str) -> list[str]:
    """The ``sktap`` commands of the README's "Command line" block, one per entry."""
    section = text.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    joined = block.replace("\\\n", " ")
    return [" ".join(line.split()) for line in joined.splitlines() if line.startswith("sktap ")]


def with_out(argv: list[str], path: Path) -> list[str]:
    """``argv`` with its ``--out`` value replaced by ``path`` (or ``--out path`` added)."""
    if "--out" in argv:
        k = argv.index("--out")
        return argv[:k + 1] + [str(path)] + argv[k + 2:]
    return argv + ["--out", str(path)]


def main() -> int:
    import sktap.cli

    print(f"sktap from {Path(sktap.cli.__file__).parent}", file=sys.stderr)
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for index, command in enumerate(readme_commands(README.read_text())):
            out = Path(tmp) / f"payload-{index}"
            argv = with_out(shlex.split(command)[1:], out)
            with contextlib.redirect_stdout(io.StringIO()):
                code = sktap.cli.main(argv)
            if code != 0:
                print(f"{command!r} exited {code}", file=sys.stderr)
                return 1
            digests[command] = hashlib.sha256(out.read_bytes()).hexdigest()
    print(json.dumps(digests, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
