"""Pinned payloads of README commands whose numbers come from the block pass.

The block pass enumerates systems of 7 or more active sites; the scaling
means that ``test_cli.py`` pins (n = 4-6) all go through the Walsh pass.
These seven README commands run at the README's sizes, with fewer samples,
and every number of their payloads is pinned at 1e-12 relative, as
``PINNED_SCALING_MEANS`` is.  A change that keeps every byte passes
exactly; a formula error, or a pass that moves a magnetization by 1e-13
relative, moves some pinned number far past that.  The identity residuals
of ``verify-identities`` are float noise near 1e-16, so they are bounded
there instead of pinned.  A change that moves a pinned number on purpose
rewrites the pins from the checkout with

    PYTHONPATH=src python tests/test_pinned_payloads.py

and reports the drift.
"""

import json
import tempfile
from pathlib import Path

import pytest

from sktap.cli import main

PINS = Path(__file__).with_name("pinned_payloads.json")

COMMANDS = (
    "tap-residuals --n 12 --t 0.5 --h 0.3 --seed 1",
    "dynamics --n 8 --t 0.5 --h 0.3 --steps 256 --seed 1",
    "spectral --n 16 --t 0.4 --h 0.3 --samples 20 --seed 42",
    "scaling --experiment htap1 --n 8,12,16,20 --t 0.5 --h 0.3 --samples 3 --seed 42",
    "overlap --n 8,20 --t 0.5 --h 0.3 --samples 3 --seed 42",
    "mij-variance --n 20 --t 0.5 --h 0.3 --samples 3 --seed 42",
    "verify-identities --n 8 --t 0.5 --h 0.3 --seed 1 --trials 20",
)

# the float-noise residuals of verify-identities: their rows and maxima
NOISE = ("pair_identity", "triple_identity")
NOISE_BOUND = 4e-16


def run(command: str, directory: Path) -> dict:
    out = directory / "payload.json"
    assert main([*command.split(), "--out", str(out)]) == 0
    return json.loads(out.read_text())


def take_noise(payload: dict) -> list:
    """Remove the float-noise numbers from ``payload``, rows left as null; return them."""
    noise = []
    for c, name in enumerate(payload["columns"]):
        if name in NOISE:
            for row in payload["rows"]:
                noise.append(row[c])
                row[c] = None
            noise.append(payload["summary"].pop(f"max_{name}"))
    return noise


def assert_close(got, pinned, where: str) -> None:
    if isinstance(pinned, float):
        assert got == pytest.approx(pinned, rel=1e-12, abs=0), where
    elif isinstance(pinned, dict):
        assert isinstance(got, dict) and got.keys() == pinned.keys(), where
        for key in pinned:
            assert_close(got[key], pinned[key], f"{where}[{key!r}]")
    elif isinstance(pinned, list):
        assert isinstance(got, list) and len(got) == len(pinned), where
        for k, (a, b) in enumerate(zip(got, pinned)):
            assert_close(a, b, f"{where}[{k}]")
    else:
        assert got == pinned, where


@pytest.mark.parametrize("command", COMMANDS, ids=[c.split()[0] for c in COMMANDS])
def test_block_pass_payload_matches_its_pins(command, tmp_path, capsys):
    payload = run(command, tmp_path)
    capsys.readouterr()
    noise = take_noise(payload)
    if command.startswith("verify-identities"):
        assert len(noise) == 2 * (20 + 1)
    assert all(abs(x) <= NOISE_BOUND for x in noise), noise
    assert_close(payload, json.loads(PINS.read_text())[command], command)


def write_pins() -> None:
    """Rewrite ``PINS`` from this checkout's payloads, one line per row."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for command in COMMANDS:
            payload = run(command, Path(tmp))
            take_noise(payload)
            rows = ",\n".join(f"   {json.dumps(row)}" for row in payload.pop("rows"))
            fields = "".join(f"  {json.dumps(key)}: {json.dumps(value, sort_keys=True)},\n"
                             for key, value in sorted(payload.items()))
            lines.append(f" {json.dumps(command)}: {{\n{fields}  \"rows\": [\n{rows}\n  ]\n }}")
    PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    write_pins()
