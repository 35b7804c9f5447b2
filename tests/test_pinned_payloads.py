"""Pinned payloads, every number of each at 1e-12 relative.

``BLOCK_PASS`` holds seven README commands whose numbers come from the
block pass, which enumerates systems of 7 or more active sites; they run at
the README's sizes, with fewer samples.  ``SMALL_SCALING`` holds the
``scaling --n 4,5,6`` run of every experiment and ``ITO_CLAMPS`` the ``ito``
run at n = 2 and 3, all through the Walsh pass; ``test_cli.py`` checks those
with ``check_pins``.  A change that keeps every byte passes exactly; a
formula error, or a pass that moves a magnetization by 1e-13 relative,
moves some pinned number far past that bound.  The identity residuals of
``verify-identities`` are float noise near 1e-16, so they are bounded
there instead of pinned.  A change that moves a pinned number on purpose
rewrites every pin from the checkout with

    PYTHONPATH=src python tests/test_pinned_payloads.py

and reports the drift.
"""

import json
import tempfile
from pathlib import Path

import pytest

from sktap import EXPERIMENTS
from sktap.cli import main

PINS = Path(__file__).with_name("pinned_payloads.json")

BLOCK_PASS = (
    "tap-residuals --n 12 --t 0.5 --h 0.3 --seed 1",
    "dynamics --n 8 --t 0.5 --h 0.3 --steps 256 --seed 1",
    "spectral --n 16 --t 0.4 --h 0.3 --samples 20 --seed 42",
    "scaling --experiment htap1 --n 8,12,16,20 --t 0.5 --h 0.3 --samples 3 --seed 42",
    "overlap --n 8,20 --t 0.5 --h 0.3 --samples 3 --seed 42",
    "mij-variance --n 20 --t 0.5 --h 0.3 --samples 3 --seed 42",
    "verify-identities --n 8 --t 0.5 --h 0.3 --seed 1 --trials 20",
)

# --steps 8 for the one experiment that reads it; the others refuse it
SMALL_SCALING = {
    name: f"scaling --experiment {name} --n 4,5,6 --t 0.5 --h 0.3 --samples 3 --seed 1"
    + (" --steps 8" if name == "ito" else "")
    for name in sorted(key.replace("_", "-") for key in EXPERIMENTS)
}

# the pair check removes site 0 and clamps site 1 both ways, so its clamped
# systems have no site left at n = 2 and one at n = 3
ITO_CLAMPS = "scaling --experiment ito --n 2,3 --samples 2 --steps 8 --t 0.5 --h 0.3"

COMMANDS = (*BLOCK_PASS, *SMALL_SCALING.values(), ITO_CLAMPS)

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


def check_pins(command: str, directory: Path, capsys) -> None:
    """Run ``command`` and hold its payload to its pins."""
    payload = run(command, directory)
    capsys.readouterr()
    noise = take_noise(payload)
    if command.startswith("verify-identities"):
        assert len(noise) == 2 * (20 + 1)
    assert all(abs(x) <= NOISE_BOUND for x in noise), noise
    assert_close(payload, json.loads(PINS.read_text())[command], command)


@pytest.mark.parametrize("command", BLOCK_PASS, ids=[c.split()[0] for c in BLOCK_PASS])
def test_block_pass_payload_matches_its_pins(command, tmp_path, capsys):
    check_pins(command, tmp_path, capsys)


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
