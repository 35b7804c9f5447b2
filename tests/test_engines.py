"""Every ensemble scalar and every README payload on both enumeration engines.

The block engine (``sktap.gibbs.BlockEnumerator``) and the Gray-code walk of
``oracles.GrayEnumerator`` share no enumeration or reduction code, and
``on_engine`` runs the package's own code, unchanged, on either.  So a fault
of the block engine that reaches any scalar or any payload number shows
here as a gap between the two routes, whatever the code around the kernel
does with the moments.
"""

import json
import math
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

from sktap.cli import main
from sktap.ensemble import EXPERIMENTS, EnsembleConfig, _scalar
from sktap.model import ModelParams, sample_couplings, substream_seed
from sktap.spectral import s_prime_at_e0
from oracles import on_engine

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from golden_payloads import README, readme_commands, with_out  # noqa: E402

# Each scalar mapped back to a quantity of the scale of a magnetization, on
# which both engines agree to the north star's 1e-12.  A square of a residual
# near 0 has no useful relative bound (htap2's 8e-8 moved by 9.6e-13 of
# itself between the engines), and its absolute gap shrinks with it, so the
# bound goes on the residual: the root mean square of the TAP residuals
# (htap1, tap1), the residual itself (htap2, tap2, qn_conc), |M_01|
# (mij_sq = n M_01^2, mij_moment = |M_01|^p).  The Ito residual is the gap
# between two sums of O(1) increments, and the resolvent error an O(1)
# ratio, so they are bounded as they are.
UNSQUARED = {
    "htap1": lambda value, n, cfg: math.sqrt(value),
    "tap1": lambda value, n, cfg: math.sqrt(value),
    "htap2": lambda value, n, cfg: math.sqrt(value),
    "tap2": lambda value, n, cfg: math.sqrt(value),
    "qn_conc": lambda value, n, cfg: math.sqrt(value),
    "mij_sq": lambda value, n, cfg: math.sqrt(value / n),
    "mij_moment": lambda value, n, cfg: value ** (1.0 / cfg.moment_p),
    "ito": lambda value, n, cfg: value,
    "spectral": lambda value, n, cfg: value,
}


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_every_scalar_agrees_on_both_engines(name):
    # n = 4 runs through the Walsh pass, n = 7 and 9 through the block pass
    # (the cavities and clamped systems of n = 7 are Walsh systems again)
    assert UNSQUARED.keys() == EXPERIMENTS.keys()
    for n in (4, 7, 9):
        cfg = EnsembleConfig((n,), 2, 0.5, 0.3, 1, name, ito_steps=16)
        for index in range(3):
            seed = substream_seed(1, n, index)
            block = _scalar(cfg, n, index, seed)
            gray = on_engine("gray", _scalar, cfg, n, index, seed)
            unsquared = UNSQUARED[name]
            gap = abs(unsquared(block, n, cfg) - unsquared(gray, n, cfg))
            assert gap < 1e-12, (n, index, block, gray)


# The README commands at n <= 10, with 3 samples, 4 trials and 16 steps: the
# sizes where the Gray walk, one Python step per state, stays fast.
SMALLER = {
    "--n": lambda value: ",".join(str(n) for n in sorted({min(int(v), 10) for v in value.split(",")})),
    "--samples": lambda value: "3",
    "--trials": lambda value: "4",
    "--steps": lambda value: "16",
}

COMMANDS = readme_commands(README.read_text())

# Finite-difference residuals of verify-identities: m(x + step) - m(x - step)
# over 2 step = 2e-5, less the exact value.  The engines' gap in m, a few
# 1e-16, comes out 5e4 times larger there (8.3e-12 was measured); their
# bound, 5e-10, is what a gap of 1e-14 in m would give.
FINITE_DIFFERENCES = {"susceptibility", "coupling_derivative"}
BOUND, FD_BOUND = 1e-12, 5e-10


def number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def smaller(command: str) -> list:
    argv = shlex.split(command)[1:]
    for flag, cut in SMALLER.items():
        if flag in argv:
            at = argv.index(flag) + 1
            argv[at] = cut(argv[at])
    return argv


def entries(text: str) -> list:
    """(name, value) of every entry of a payload, in order: JSON rows by
    column, summaries by key; CSV ``# key=value`` lines by key, rows by column."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        lines = text.splitlines()
        heads = [line[2:].split("=", 1) for line in lines if line.startswith("# ")]
        body = [line.split(",") for line in lines if not line.startswith("#")]
        return [(key, number(value)) for key, value in heads] + [
            (column, float(value)) for row in body[1:] for column, value in zip(body[0], row)
        ]
    found = [(f"config.{key}", value) for key, value in payload["config"].items()]
    found += [(column, value) for row in payload["rows"] for column, value in zip(payload["columns"], row)]
    return found + [(key.removeprefix("max_"), value) for key, value in payload["summary"].items()]


@pytest.mark.parametrize("command", COMMANDS, ids=[c.split()[1] for c in COMMANDS])
def test_every_readme_payload_agrees_on_both_engines(command, tmp_path, capsys):
    # Every number of the payload, against the one the Gray engine gives for
    # the same argv: payload numbers are magnetizations, correlations,
    # residuals, means and fits of them, none past a few units.  Every other
    # entry, text and integers included, must be equal.
    argv = smaller(command)
    payloads = []
    for engine in ("block", "gray"):
        out = tmp_path / engine
        assert on_engine(engine, main, with_out(argv, out)) == 0
        payloads.append(entries(out.read_text()))
    capsys.readouterr()
    block, gray = payloads
    assert [name for name, _ in block] == [name for name, _ in gray]
    for (name, a), (_, b) in zip(block, gray):
        if isinstance(a, float) and isinstance(b, float):
            bound = FD_BOUND if name in FINITE_DIFFERENCES else BOUND
            assert abs(a - b) <= bound or (np.isnan(a) and np.isnan(b)), (name, a, b)
        else:
            assert a == b, (name, a, b)


def test_s_prime_fd_agrees_on_both_engines_on_random_samples():
    # The engines' few 1e-16 in m can move S(E0 +- 1e-5) by an ulp, 1.1e-11
    # of their float difference over 2e-5; with the parts of the two roots
    # below their last bits the difference keeps the north star's 1e-12
    for n in (6, 8):
        p = ModelParams.uniform(n, 0.4, 0.3)
        for seed in range(6):
            cm = sample_couplings(p, seed)
            block, _ = s_prime_at_e0(cm, p)
            gray, _ = on_engine("gray", s_prime_at_e0, cm, p)
            assert abs(block - gray) <= BOUND, (n, seed, block, gray)
