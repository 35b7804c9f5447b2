import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import sktap.dynamics
import sktap.gibbs
from sktap import (
    CouplingMatrix,
    CouplingPath,
    ItoCheckConfig,
    ModelParams,
    fit_power_law,
    ito_decomposition_residual,
    ito_decomposition_trace,
    magnetizations,
    sample_path,
    substream_seed,
)
from oracles import Kahan, cavity_system, coarsened, on_engine

P6 = ModelParams.uniform(6, 0.5, 0.3)


def test_config_validation():
    with pytest.raises(ValueError):
        ItoCheckConfig(clamped_site=0, target_site=0)
    with pytest.raises(ValueError):
        ItoCheckConfig(clamped_site=0, target_site=1, variant="two_point")
    with pytest.raises(ValueError):
        ItoCheckConfig(clamped_site=0, target_site=1, variant="bogus")


def test_degenerate_path_has_zero_residual():
    cfg = ItoCheckConfig(clamped_site=0, target_site=1)
    path = CouplingPath(n=6, grid=np.zeros(1), increments=np.zeros((0, 15)))
    assert ito_decomposition_residual(path, cfg, P6) == 0.0


@pytest.mark.parametrize(
    "check",
    [lambda path: ito_decomposition_residual(path, ItoCheckConfig(0, 1), P6)],
    ids=["ito"],
)
def test_path_of_another_size_is_rejected(check):
    path = sample_path(ModelParams.uniform(5, 0.5, 0.3), 4, 3)
    with pytest.raises(ValueError, match="path size 5 != params n 6"):
        check(path)


@pytest.mark.parametrize(
    "check",
    [
        lambda path: ito_decomposition_trace(path, ItoCheckConfig(0, 9), P6),
        lambda path: ito_decomposition_trace(path, ItoCheckConfig(0, -1), P6),
        lambda path: ito_decomposition_trace(
            path, ItoCheckConfig(0, 1, second_site=6, variant="two_point"), P6),
    ],
    ids=["ito-target", "ito-target-negative", "ito-second"],
)
def test_sites_out_of_range_are_named_so(check):
    # a usage error naming n, not a site missing from the reduced measure
    path = sample_path(P6, 4, 3)
    with pytest.raises(ValueError, match="out of range for n=6"):
        check(path)


def test_single_segment_path_rejected():
    cfg = ItoCheckConfig(clamped_site=0, target_site=1)
    path = sample_path(P6, 1, 3)
    with pytest.raises(ValueError):
        ito_decomposition_residual(path, cfg, P6)


def test_zero_increment_path_is_exact():
    # frozen couplings: the clamped row never moves, both sides vanish exactly
    path = CouplingPath(6, np.linspace(0.0, 0.5, 9), np.zeros((8, 15)))
    cfg = ItoCheckConfig(clamped_site=0, target_site=1)
    trace = ito_decomposition_trace(path, cfg, P6)
    assert trace["residual"] == 0.0
    assert np.all(trace["cavity_difference"] == 0.0)


@pytest.mark.parametrize(
    "variant,second,n,steps",
    [
        ("pair", None, 6, 16),
        ("two_point", 2, 6, 16),
        ("product", 2, 6, 16),
        # 11 active sites: 81 grid points per chunk, 101 points split 81 + 20
        ("pair", None, 12, 100),
        ("product", 2, 12, 100),
    ],
    ids=["pair-None", "two_point-2", "product-2", "pair-None-n12", "product-2-n12"],
)
def test_engines_agree(variant, second, n, steps):
    params = ModelParams.uniform(n, 0.5, 0.3)
    path = sample_path(params, steps, 9)
    cfg = ItoCheckConfig(0, 1, second_site=second, variant=variant)
    tb = ito_decomposition_trace(path, cfg, params)
    tg = on_engine("gray", ito_decomposition_trace, path, cfg, params)
    assert abs(tb["residual"] - tg["residual"]) < 1e-12
    for key in ("lhs", "martingale_increments", "drift_increments"):
        assert np.max(np.abs(tb[key] - tg[key])) < 1e-12


@pytest.mark.parametrize("n, steps", [(6, 2048), (12, 100)])
def test_one_stacked_call_over_both_spins_equals_one_call_per_spin(n, steps):
    # the stack of the pair check: the +1 grid, then the -1 grid, each with
    # site 1 clamped both ways.  At n = 6 its 8196 Walsh rows run in two
    # chunks of 4098, at n = 12 its 404 block-pass rows in chunks of 134,
    # 135 and 135 that straddle the grids; every row keeps the bits of its
    # one-spin call
    params = ModelParams.uniform(n, 0.5, 0.3)
    path = sample_path(params, steps, 9)
    _, (m, pairs, _), _ = sktap.dynamics._row_moments(path, params, 0, (+1, -1), (1,))
    for half, spin in enumerate((+1, -1)):
        _, (m_one, pairs_one, _), _ = sktap.dynamics._row_moments(path, params, 0, (spin,), (1,))
        rows = slice(half * (steps + 1), (half + 1) * (steps + 1))
        assert np.array_equal(m[rows], m_one)
        assert np.array_equal(pairs[:, rows], pairs_one)


def test_one_pair_check_makes_one_kernel_call(monkeypatch):
    # both grids of the clamped spin, each with the target clamped both ways
    rows = []
    moments = sktap.gibbs.BlockEnumerator.moments

    def spy(self, h, *args, **kwargs):
        rows.append(len(h))
        return moments(self, h, *args, **kwargs)

    monkeypatch.setattr(sktap.gibbs.BlockEnumerator, "moments", spy)
    ito_decomposition_residual(sample_path(P6, 16, 3), ItoCheckConfig(0, 1), P6)
    assert rows == [4 * 17]


@pytest.mark.parametrize("variant,second", [("pair", None), ("two_point", 2), ("product", 2)])
def test_each_check_builds_one_enumerator_and_makes_one_kernel_call(monkeypatch, variant, second):
    # the benchmark counts both per Ito path; two_point and product clamp j
    # and k over the +1 grid, 4 x 17 rows at 3 active sites
    calls = []
    init, moments = sktap.gibbs.BlockEnumerator.__init__, sktap.gibbs.BlockEnumerator.moments

    def spy_init(self, G):
        calls.append(("init", G.shape[-1]))
        init(self, G)

    def spy_moments(self, h, *args, **kwargs):
        calls.append(("moments", len(h)))
        return moments(self, h, *args, **kwargs)

    monkeypatch.setattr(sktap.gibbs.BlockEnumerator, "__init__", spy_init)
    monkeypatch.setattr(sktap.gibbs.BlockEnumerator, "moments", spy_moments)
    cfg = ItoCheckConfig(0, 1, second, variant)
    ito_decomposition_residual(sample_path(P6, 16, 3), cfg, P6)
    na = 4 if variant == "pair" else 3
    assert calls == [("init", na), ("moments", 4 * 17)]


def test_residual_shrinks_under_refinement_of_one_path():
    fine = sample_path(P6, 512, 9)
    points = []
    for steps in (32, 64, 128, 256, 512):
        path = coarsened(fine, 512 // steps)
        cfg = ItoCheckConfig(clamped_site=0, target_site=1)
        points.append((steps, ito_decomposition_residual(path, cfg, P6)))
    slope, _, _ = fit_power_law(points)
    assert slope <= -0.4


def test_paired_refinement_smoke():
    wins = 0
    for s in range(12):
        fine = sample_path(P6, 256, substream_seed(2**20, 6, s))
        rf = ito_decomposition_residual(fine, ItoCheckConfig(0, 1), P6)
        rc = ito_decomposition_residual(coarsened(fine, 64), ItoCheckConfig(0, 1), P6)
        wins += rf < rc
    assert wins >= 8


def test_variant_residuals_shrink_under_refinement():
    # rms over seeds scales like sqrt(ds): a factor-16 refinement should cut
    # it by ~4; a systematic error in either decomposition would plateau
    for variant in ("two_point", "product"):
        sq = {16: 0.0, 256: 0.0}
        for s in range(8):
            fine = sample_path(P6, 256, substream_seed(777, 6, s))
            for steps in (16, 256):
                cfg = ItoCheckConfig(0, 1, second_site=3, variant=variant)
                r = ito_decomposition_residual(coarsened(fine, 256 // steps), cfg, P6)
                sq[steps] += r * r
        assert math.sqrt(sq[16] / sq[256]) > 1.8


def test_trace_partial_sums_and_fixed_reduction():
    path = sample_path(P6, 32, 5)
    cfg = ItoCheckConfig(clamped_site=0, target_site=1)
    trace = ito_decomposition_trace(path, cfg, P6)
    # compensated partial sums agree with exact summation of the increments
    assert abs(trace["martingale"][-1] - math.fsum(trace["martingale_increments"])) < 1e-15
    assert abs(trace["drift"][-1] - math.fsum(trace["drift_increments"])) < 1e-15
    # re-partitioning the reduction does not change the result
    half = len(trace["martingale_increments"]) // 2
    split = math.fsum(trace["martingale_increments"][:half]) + math.fsum(
        trace["martingale_increments"][half:]
    )
    assert abs(trace["martingale"][-1] - split) < 1e-12
    # the residual identity ties the pieces together
    lhs = trace["lhs"][-1] - trace["lhs"][0]
    assert trace["residual"] == pytest.approx(
        abs(lhs - (trace["martingale"][-1] + trace["drift"][-1])), abs=1e-15
    )
    # reruns are bit-identical
    again = ito_decomposition_trace(path, cfg, P6)
    assert np.array_equal(trace["lhs"], again["lhs"])
    assert trace["residual"] == again["residual"]


def test_partial_sums_equal_the_kahan_reference_bit_for_bit():
    path = sample_path(P6, 512, 12)
    cfg = ItoCheckConfig(clamped_site=0, target_site=1)
    trace = ito_decomposition_trace(path, cfg, P6)
    for name in ("martingale", "drift"):
        acc, partial = Kahan(), [0.0]
        for x in trace[f"{name}_increments"].tolist():
            acc.add(x)
            partial.append(acc.total)
        assert trace[name].tolist() == partial
    # the partial sums are a display: the residual reads the totals of fsum
    lhs = trace["lhs"][-1] - trace["lhs"][0]
    total = math.fsum(trace["martingale_increments"]) + math.fsum(trace["drift_increments"])
    assert trace["residual"] == abs(lhs - total)


def _exact_residual(trace) -> float:
    """The residual with each integral the exact sum of its increments,
    rounded once."""
    mart, drift = (float(sum(map(Fraction, trace[f"{name}_increments"].tolist())))
                   for name in ("martingale", "drift"))
    return float(abs(trace["lhs"][-1] - trace["lhs"][0] - (mart + drift)))


ONE_POINT = CouplingPath(n=6, grid=np.zeros(1), increments=np.zeros((0, 15)))


@pytest.mark.parametrize(
    "variant, second, path",
    [
        ("pair", None, sample_path(P6, 2048, 3)),
        ("pair", None, sample_path(P6, 2048, 4)),
        ("two_point", 2, sample_path(P6, 2048, 5)),
        ("product", 2, sample_path(P6, 2048, 6)),
        ("pair", None, ONE_POINT),
    ],
    ids=["pair-3", "pair-4", "two_point-5", "product-6", "pair-one-point"],
)
def test_residual_is_the_exactly_rounded_sum_of_the_increments(variant, second, path):
    # on the one-point path both sums are empty and the residual is 0.0
    cfg = ItoCheckConfig(0, 1, second_site=second, variant=variant)
    trace = ito_decomposition_trace(path, cfg, P6)
    assert ito_decomposition_residual(path, cfg, P6) == trace["residual"]
    assert trace["residual"] == _exact_residual(trace)


def test_one_check_allocates_less_than_two_mebibytes():
    # A fresh interpreter, traced from after the draw.  A 2048-step pair
    # check at n = 6 enumerates 4 x 2049 clamped systems of 4 sites.  It
    # holds one 0.81 MiB block (the 4098-row chunk's grid of 16 states, a
    # scratch half its size and log Z), the clamped mix (320 KiB), whose
    # free rows the pass overwrites with the magnetizations, the stacked
    # fields (160 KiB) and the row's increments (80 KiB), which the residual
    # reads after the call.  Its peak, 1.40 MiB, falls as the clamped
    # weights, a view of that block, are normalized, each step with one
    # 32 KiB vector over the 4098 rows.  The bound is the 1.32 MiB peak of
    # the check with the increments gathered again after the call, plus 10%,
    # rounded up to 0.01 MiB.  With the field term of the weights added
    # through a 64 KiB temporary, that peak was 1.35 MiB; with the moments
    # in the block (1.06 MiB) and the row path
    # and its increments held through the call, at 1.79 MiB; with two grids
    # sized for 4608 rows, and the partial sums built for the residual, at
    # 2.17 MiB.
    script = (
        "import tracemalloc\n"
        "from sktap import ItoCheckConfig, ModelParams, ito_decomposition_residual, sample_path\n"
        "params = ModelParams.uniform(6, 0.5, 0.3)\n"
        "path = sample_path(params, 2048, 42)\n"
        "tracemalloc.start()\n"
        "ito_decomposition_residual(path, ItoCheckConfig(0, 1), params)\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    src = str(Path(sktap.dynamics.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 1.46 * 2**20


def test_integrands_match_independent_clamped_route():
    # rebuild two martingale increments from public clamped tables, summing
    # the site contributions in reversed order with exact summation: the
    # site-sum re-partition must not move the result
    import math as _math

    from sktap import CouplingMatrix, gibbs_tables

    path = sample_path(P6, 8, 6)
    cfg = ItoCheckConfig(clamped_site=0, target_site=1)
    trace = ito_decomposition_trace(path, cfg, P6)
    terminal = path.terminal().entries
    for k in (0, 3):
        entries = np.array(terminal)
        row = path.row_at(0, k)
        entries[0, :] = row
        entries[:, 0] = row
        cm_k = CouplingMatrix(6, entries)
        up = gibbs_tables(cm_k, P6, {0: +1})
        dn = gibbs_tables(cm_k, P6, {0: -1})
        drow = path.row_increment(0, k)
        terms = [
            0.5 * (up.pair[l, 1] + dn.pair[l, 1]) * drow[l]
            for l in reversed(range(1, 6))
        ]
        assert abs(trace["martingale_increments"][k] - _math.fsum(terms)) < 1e-12


def test_trace_left_endpoint_lhs_starts_at_zero():
    path = sample_path(P6, 16, 8)
    cfg = ItoCheckConfig(clamped_site=0, target_site=1)
    trace = ito_decomposition_trace(path, cfg, P6)
    # at time 0 the clamped row vanishes, so the half-difference is exactly 0
    assert trace["lhs"][0] == 0.0


def test_cavity_difference_starts_at_zero_and_moves():
    path = sample_path(P6, 16, 9)
    diff = ito_decomposition_trace(path, ItoCheckConfig(0, 1), P6)["cavity_difference"]
    assert diff.shape == (17,)
    assert diff[0] == 0.0
    assert abs(diff[-1]) > 1e-4
    with pytest.raises(ValueError, match="distinct"):
        ito_decomposition_trace(path, ItoCheckConfig(0, 0), P6)


def test_cavity_difference_is_exactly_zero_at_time_zero():
    # at s = 0 the clamped row is zero, so the clamped fields must be the
    # cavity fields h bit for bit (adding the terminal row and taking it off
    # again left 1 ulp on some sites), and the s = 0 row of the +1 grid, the
    # cavity reference of the difference, is the cavity enumeration itself
    params = ModelParams.uniform(8, 0.5, 0.3)
    for seed in range(1, 41):
        path = sample_path(params, 64, seed)
        trace = ito_decomposition_trace(path, ItoCheckConfig(0, 1), params)
        assert trace["cavity_difference"][0] == 0.0
        _, (m, _, _), _ = sktap.dynamics._row_moments(path, params, 0, (+1,), ())
        cavity = magnetizations(*cavity_system(path.terminal(), params, 0))
        assert np.array_equal(m[0], cavity)  # sites 1..7


@pytest.mark.parametrize("n", [6, 8])
def test_trace_reads_the_cavity_difference_of_its_own_enumeration(n):
    # The trace reads m_j of its own +1 grid, which each variant mixes from
    # other clamped systems: the pair check clamps j, the other two j and k.
    # So the three agree with a plain +1 call only to float noise (1.1e-15
    # at most here), not bit for bit.  n = 6 takes the Walsh pass and n = 8
    # the block pass.
    params = ModelParams.uniform(n, 0.5, 0.3)
    for seed in (1, 2, 3):
        path = sample_path(params, 64, seed)
        _, (m, _, _), _ = sktap.dynamics._row_moments(path, params, 0, (+1,), ())
        mag = m[:, 0]  # site 1, the first site of the cavity of site 0
        for variant, second in [("pair", None), ("two_point", 2), ("product", 2)]:
            cfg = ItoCheckConfig(0, 1, second, variant)
            trace = ito_decomposition_trace(path, cfg, params)
            assert np.max(np.abs(trace["cavity_difference"] - (mag - mag[0]))) < 1e-14


@pytest.mark.parametrize(
    "spin, i, j", [(1, 0, 1), (1, 3, 1), (1, 3, 5)], ids=["1", "j-below-i", "j-above-i"]
)
def test_cavity_difference_matches_independent_clamped_route(spin, i, j):
    # The check enumerates the cavity of i, the 5 other sites, in which the
    # target j sits at j when j < i and at j - 1 when j > i.
    path = sample_path(P6, 16, 4)
    diff = ito_decomposition_trace(path, ItoCheckConfig(i, j), P6)["cavity_difference"]
    terminal = path.terminal()
    others = [site for site in range(6) if site != i]
    cavity = magnetizations(*cavity_system(terminal, P6, i))[others.index(j)]
    for k in (0, 5, 16):
        entries = np.array(terminal.entries)
        row = path.row_at(i, k)
        entries[i, :] = row
        entries[:, i] = row
        m = magnetizations(CouplingMatrix(6, entries), P6, {i: spin})
        assert abs(diff[k] - (m[j] - cavity)) < 1e-12
    assert abs(diff[-1]) > 1e-4


def test_cavity_difference_terminal_square_scales_inversely_with_n():
    samples = 100
    means = []
    sizes = (6, 10, 14)
    for n in sizes:
        params = ModelParams.uniform(n, 0.5, 0.3)
        acc = 0.0
        for s in range(samples):
            path = sample_path(params, 2, substream_seed(314, n, s))
            trace = ito_decomposition_trace(path, ItoCheckConfig(0, 1), params)
            acc += trace["cavity_difference"][-1] ** 2
        means.append(acc / samples)
    slope, _, _ = fit_power_law(list(zip(sizes, means)))
    assert -1.35 <= slope <= -0.65
