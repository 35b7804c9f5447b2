"""Hash, save and compare the payloads of the commands in README's "Command line" block.

    PYTHONPATH=src python tools/golden_payloads.py > golden.json
    PYTHONPATH=src python tools/golden_payloads.py --save out/change > golden.json
    python tools/golden_payloads.py --compare out/parent out/change

The commands are read from the first ``sh`` block after the README heading
"## Command line", so the README stays the only list of them.  Each command
runs in this process through ``sktap.cli.main`` with the BLAS pools pinned
to one thread and its ``--out`` redirected into a temporary directory (or
into ``--save DIR``, with ``DIR/commands.json`` naming the command of each
payload file); a command without ``--out`` gets one.  The ``sktap`` run is
whichever is importable, so point ``PYTHONPATH`` at the checkout to test; its
location goes to standard error.  The output is a JSON object mapping each
command, as written in the README, to the sha256 of its payload file.  Two
checkouts whose digests match print byte-identical payloads.

``--compare A B`` reads two ``--save`` directories, made from two checkouts,
and prints for each command the largest absolute and relative change of any
number in the lines its two payloads share.  A payload that differs in more
than its numbers also reports its first line of changed text, marked ``-``
when only the old payload has it and ``+`` otherwise.  It exits 1 when any
payload differs, so it is the byte-for-byte gate.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import math
import re
import shlex
import sys
import tempfile
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

# a JSON or CSV number, including the non-finite values json.dumps writes
NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|NaN|-?Infinity")


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


def numeric_change(old: str, new: str) -> dict:
    """Largest absolute and relative change between the numbers of two payloads.

    Lines are paired where the payloads agree in everything but their
    numbers.  The relative change of a pair of numbers is
    |new - old| / max(|old|, |new|); NaN against NaN counts as no change.  A
    line without a partner is reported as ``text_change``, the first one only.
    """
    old_lines, new_lines = old.splitlines(), new.splitlines()
    matcher = difflib.SequenceMatcher(None, *(
        [NUMBER.sub("#", line) for line in lines] for lines in (old_lines, new_lines)
    ))
    report = {"max_abs": 0.0, "max_rel": 0.0}
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag != "equal":
            first = f"- {old_lines[i1]}" if i1 < i2 else f"+ {new_lines[j1]}"
            report.setdefault("text_change", first)
            continue
        for a, b in zip(old_lines[i1:i2], new_lines[j1:j2]):
            for x, y in zip(map(float, NUMBER.findall(a)), map(float, NUMBER.findall(b))):
                if x == y or (math.isnan(x) and math.isnan(y)):
                    continue
                report["max_abs"] = max(report["max_abs"], abs(y - x))
                report["max_rel"] = max(report["max_rel"], abs(y - x) / max(abs(x), abs(y)))
    return report


def run_commands(save: Path | None) -> int:
    import sktap.cli

    print(f"sktap from {Path(sktap.cli.__file__).parent}", file=sys.stderr)
    digests, names = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp) if save is None else save
        folder.mkdir(parents=True, exist_ok=True)
        for index, command in enumerate(readme_commands(README.read_text())):
            out = folder / f"payload-{index}"
            argv = with_out(shlex.split(command)[1:], out)
            with contextlib.redirect_stdout(io.StringIO()):
                code = sktap.cli.main(argv)
            if code != 0:
                print(f"{command!r} exited {code}", file=sys.stderr)
                return 1
            digests[command] = hashlib.sha256(out.read_bytes()).hexdigest()
            names[out.name] = command
        if save is not None:
            (folder / "commands.json").write_text(json.dumps(names, indent=2) + "\n")
    print(json.dumps(digests, indent=2))
    return 0


def compare(old: Path, new: Path) -> int:
    names = json.loads((old / "commands.json").read_text())
    report = {}
    for name, command in names.items():
        a, b = (old / name).read_text(), (new / name).read_text()
        report[command] = {"identical": a == b, **numeric_change(a, b)}
    print(json.dumps(report, indent=2))
    return 0 if all(entry["identical"] for entry in report.values()) else 1


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save", type=Path, help="keep the payloads in this directory")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("OLD", "NEW"),
                        help="report the numeric change between two --save directories")
    args = parser.parse_args(argv)
    if args.compare is not None:
        return compare(*args.compare)
    return run_commands(args.save)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
