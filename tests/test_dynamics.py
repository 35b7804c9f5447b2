import math

import numpy as np
import pytest

from sktap import (
    CouplingMatrix,
    CouplingPath,
    ItoCheckConfig,
    ModelParams,
    ReducedSpec,
    cavity_difference_path,
    fit_power_law,
    ito_decomposition_residual,
    ito_decomposition_trace,
    magnetizations,
    sample_path,
    substream_seed,
)

P6 = ModelParams.uniform(6, 0.5, 0.3)


def test_config_validation():
    with pytest.raises(ValueError):
        ItoCheckConfig(clamped_site=0, target_site=0, steps=4)
    with pytest.raises(ValueError):
        ItoCheckConfig(clamped_site=0, target_site=1, steps=1)
    with pytest.raises(ValueError):
        ItoCheckConfig(clamped_site=0, target_site=1, steps=4, variant="two_point")
    with pytest.raises(ValueError):
        ItoCheckConfig(clamped_site=0, target_site=1, steps=4, clamped_spin=0)
    with pytest.raises(ValueError):
        ItoCheckConfig(
            clamped_site=0, target_site=1, steps=4, reduced=ReducedSpec(clamped={1: 1})
        )
    with pytest.raises(ValueError):
        ItoCheckConfig(clamped_site=0, target_site=1, steps=4, variant="bogus")


def test_degenerate_path_has_zero_residual():
    cfg = ItoCheckConfig(clamped_site=0, target_site=1, steps=4)
    path = CouplingPath.degenerate(6)
    assert ito_decomposition_residual(path, cfg, P6) == 0.0


def test_single_segment_path_rejected():
    cfg = ItoCheckConfig(clamped_site=0, target_site=1, steps=2)
    path = sample_path(P6, 1, 3)
    with pytest.raises(ValueError):
        ito_decomposition_residual(path, cfg, P6)


def test_zero_increment_path_is_exact():
    # frozen couplings: the clamped row never moves, both sides vanish exactly
    path = CouplingPath(6, np.linspace(0.0, 0.5, 9), np.zeros((8, 15)))
    cfg = ItoCheckConfig(clamped_site=0, target_site=1, steps=8)
    assert ito_decomposition_residual(path, cfg, P6) == 0.0
    assert np.all(cavity_difference_path(path, P6, 0, 1) == 0.0)


@pytest.mark.parametrize(
    "variant,second,n,steps",
    [
        ("pair", None, 6, 16),
        ("two_point", 2, 6, 16),
        ("product", 2, 6, 16),
        # 11 active sites: 8 grid points per chunk, 21 points split 8 + 8 + 5
        ("pair", None, 12, 20),
        ("product", 2, 12, 20),
    ],
    ids=["pair-None", "two_point-2", "product-2", "pair-None-n12", "product-2-n12"],
)
def test_engines_agree(variant, second, n, steps):
    params = ModelParams.uniform(n, 0.5, 0.3)
    path = sample_path(params, steps, 9)
    cfg = ItoCheckConfig(0, 1, steps, second_site=second, variant=variant)
    tb = ito_decomposition_trace(path, cfg, params, engine="block")
    tg = ito_decomposition_trace(path, cfg, params, engine="gray")
    assert abs(tb["residual"] - tg["residual"]) < 1e-12
    for key in ("lhs", "martingale_increments", "drift_increments"):
        assert np.max(np.abs(tb[key] - tg[key])) < 1e-12


def test_residual_shrinks_under_refinement_of_one_path():
    fine = sample_path(P6, 512, 9)
    points = []
    for steps in (32, 64, 128, 256, 512):
        path = fine.coarsened(512 // steps)
        cfg = ItoCheckConfig(clamped_site=0, target_site=1, steps=steps)
        points.append((steps, ito_decomposition_residual(path, cfg, P6)))
    slope, _, _ = fit_power_law(points)
    assert slope <= -0.4


def test_paired_refinement_smoke():
    wins = 0
    for s in range(12):
        fine = sample_path(P6, 256, substream_seed(2**20, 6, s))
        rf = ito_decomposition_residual(fine, ItoCheckConfig(0, 1, 256), P6)
        rc = ito_decomposition_residual(fine.coarsened(64), ItoCheckConfig(0, 1, 4), P6)
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
                cfg = ItoCheckConfig(0, 1, steps, second_site=3, variant=variant)
                r = ito_decomposition_residual(fine.coarsened(256 // steps), cfg, P6)
                sq[steps] += r * r
        assert math.sqrt(sq[16] / sq[256]) > 1.8


def test_trace_partial_sums_and_fixed_reduction():
    path = sample_path(P6, 32, 5)
    cfg = ItoCheckConfig(clamped_site=0, target_site=1, steps=32)
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


def test_integrands_match_independent_clamped_route():
    # rebuild two martingale increments from public clamped tables, summing
    # the site contributions in reversed order with exact summation: the
    # site-sum re-partition must not move the result
    import math as _math

    from sktap import CouplingMatrix, ReducedSpec, gibbs_tables

    path = sample_path(P6, 8, 6)
    cfg = ItoCheckConfig(clamped_site=0, target_site=1, steps=8)
    trace = ito_decomposition_trace(path, cfg, P6)
    terminal = path.terminal().entries
    for k in (0, 3):
        entries = np.array(terminal)
        row = path.row_at(0, k)
        entries[0, :] = row
        entries[:, 0] = row
        cm_k = CouplingMatrix(6, entries)
        up = gibbs_tables(cm_k, P6, ReducedSpec(clamped={0: +1}))
        dn = gibbs_tables(cm_k, P6, ReducedSpec(clamped={0: -1}))
        drow = path.row_increment(0, k)
        terms = [
            0.5 * (up.pair[l, 1] + dn.pair[l, 1]) * drow[l]
            for l in reversed(range(1, 6))
        ]
        assert abs(trace["martingale_increments"][k] - _math.fsum(terms)) < 1e-12


def test_trace_left_endpoint_lhs_starts_at_zero():
    path = sample_path(P6, 16, 8)
    cfg = ItoCheckConfig(clamped_site=0, target_site=1, steps=16)
    trace = ito_decomposition_trace(path, cfg, P6)
    # at time 0 the clamped row vanishes, so the half-difference is exactly 0
    assert trace["lhs"][0] == 0.0


def test_cavity_difference_starts_at_zero_and_moves():
    path = sample_path(P6, 16, 9)
    diff = cavity_difference_path(path, P6, 0, 1)
    assert diff.shape == (17,)
    assert diff[0] == 0.0
    assert abs(diff[-1]) > 1e-4
    with pytest.raises(ValueError):
        cavity_difference_path(path, P6, 0, 0)


@pytest.mark.parametrize("spin", [1, -1])
def test_cavity_difference_matches_independent_clamped_route(spin):
    path = sample_path(P6, 16, 4)
    diff = cavity_difference_path(path, P6, 0, 1, clamped_spin=spin)
    terminal = path.terminal().entries
    cavity = magnetizations(path.terminal(), P6, ReducedSpec(removed={0}))[1]
    for k in (0, 5, 16):
        entries = np.array(terminal)
        row = path.row_at(0, k)
        entries[0, :] = row
        entries[:, 0] = row
        m = magnetizations(CouplingMatrix(6, entries), P6, ReducedSpec(clamped={0: spin}))
        assert abs(diff[k] - (m[1] - cavity)) < 1e-12


def test_cavity_difference_terminal_square_scales_inversely_with_n():
    samples = 100
    means = []
    sizes = (6, 10, 14)
    for n in sizes:
        params = ModelParams.uniform(n, 0.5, 0.3)
        acc = 0.0
        for s in range(samples):
            path = sample_path(params, 2, substream_seed(314, n, s))
            acc += cavity_difference_path(path, params, 0, 1)[-1] ** 2
        means.append(acc / samples)
    slope, _, _ = fit_power_law(list(zip(sizes, means)))
    assert -1.35 <= slope <= -0.65
