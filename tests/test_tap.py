import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sktap.tap
from sktap import (
    BranchError,
    CouplingMatrix,
    ModelParams,
    NonConvergenceError,
    NumericalError,
    at_value,
    f_map,
    gibbs_tables,
    htap1_residuals,
    htap2_residual,
    magnetizations,
    predicted_mij_sq,
    sample_couplings,
    solve_q,
    tap1_residuals,
    tap2_residual,
)
from sktap.gibbs import BlockEnumerator, _cavity_order
from sktap.tap import _last_true, gauss_hermite
from oracles import (
    GrayEnumerator,
    bisect_fixed_point,
    cavity_system,
    f_prime,
    halvings_last_true,
    naive_tables,
    on_engine,
)

GAUSS_MOMENTS = {0: 1.0, 1: 0.0, 2: 1.0, 3: 0.0, 4: 3.0, 5: 0.0, 6: 15.0, 7: 0.0, 8: 105.0}


def test_quadrature_integrates_low_degree_polynomials_exactly():
    z, w = gauss_hermite(61)
    for deg, want in GAUSS_MOMENTS.items():
        assert float(w @ z**deg) == pytest.approx(want, abs=1e-12)
    assert abs(w.sum() - 1.0) < 1e-13
    assert gauss_hermite(122)[0].size == 122
    # one cached table per count, which no caller can write into
    assert gauss_hermite(61) is gauss_hermite(61)
    with pytest.raises(ValueError, match="read-only"):
        w[0] = 1.0


def test_quadrature_validation():
    with pytest.raises(ValueError, match="nodes must be >= 1"):
        gauss_hermite(0)


@pytest.mark.parametrize("nodes", [371, 400])
def test_quadrature_rejects_a_count_numpy_cannot_build(nodes):
    # numpy's weights underflow to 0 at 371 nodes and are NaN at 400; the
    # error names the count, and numpy's own warnings stay quiet
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"cannot build a {nodes}-node Gauss-Hermite rule"):
            gauss_hermite(nodes)


def test_quadrature_builds_counts_up_to_370():
    for nodes in (1, 2, 185, 370):
        z, w = gauss_hermite(nodes)
        assert z.size == nodes and np.isfinite(z).all()
        assert (w > 0).all() and abs(w.sum() - 1.0) < 1e-12


def test_f_map_zero_coupling_is_field_only():
    for x in (0.0, 0.4, 2.0):
        assert f_map(x, 0.0, 0.3) == pytest.approx(math.tanh(0.3) ** 2, abs=1e-14)
    with pytest.raises(ValueError):
        f_map(-0.1, 0.5, 0.0)


def test_f_prime_at_origin_equals_t():
    for t in (0.2, 0.69):
        assert f_prime(0.0, t, 0.0) == pytest.approx(t, abs=1e-13)


def test_f_prime_bounded_by_t():
    for t in (0.2, 0.5, 0.69):
        for h in (0.0, 0.3, 1.0):
            for x in np.linspace(0.0, 3.0, 31):
                assert abs(f_prime(float(x), t, h)) <= t + 1e-12


def test_f_map_against_monte_carlo():
    rng = np.random.default_rng(60)
    z = rng.standard_normal(1_000_000)
    vals = np.tanh(0.3 + np.sqrt(0.5 * 0.2) * z) ** 2
    mc = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(vals.size))
    assert abs(f_map(0.2, 0.5, 0.3) - mc) < 3 * se


def test_solve_q_trivial_cases():
    assert solve_q(0.7, 0.0) == 0.0
    assert solve_q(0.0, 0.3) == pytest.approx(math.tanh(0.3) ** 2, abs=1e-14)


def test_solve_q_certified_by_bisection():
    x, w = np.polynomial.hermite.hermgauss(201)

    def expect(fn):
        return float(w @ np.vectorize(fn)(math.sqrt(2.0) * x)) / math.sqrt(math.pi)

    for t, h in ((0.5, 0.3), (0.8, 0.1), (0.3, 1.0)):
        q = solve_q(t, h, 201)
        q_bis = bisect_fixed_point(t, h, expect)
        assert abs(q - q_bis) < 1e-10
        assert abs(q - f_map(q, t, h, 201)) <= 1e-12
        assert 0.0 <= q <= 1.0


def test_solve_q_monotone_in_field():
    qs = [solve_q(0.5, h) for h in (0.0, 0.1, 0.3, 0.6, 1.0)]
    assert all(b >= a - 1e-13 for a, b in zip(qs, qs[1:]))
    # depends on the field only through |h|
    assert solve_q(0.5, -0.3) == pytest.approx(solve_q(0.5, 0.3), abs=1e-13)


def test_solve_q_bisection_rescues_stalled_iteration(monkeypatch):
    # starve the iteration; the bisection fallback must still land on
    # a genuine fixed point instead of returning a partial value
    monkeypatch.setattr(sktap.tap, "_MAX_ITER", 1)
    q = solve_q(0.5, 0.3)
    assert abs(q - f_map(q, 0.5, 0.3)) <= 1e-12


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=400, deadline=None)
@given(
    ends=st.lists(FINITE, min_size=2, max_size=2).map(sorted),
    threshold=st.one_of(FINITE, st.just(math.inf)),
    strict=st.booleans(),
)
@example(ends=[-0.0, 0.0], threshold=0.0, strict=False)
@example(ends=[0.0, 1.0], threshold=1.0, strict=False)
@example(ends=[0.0, 1.0], threshold=math.inf, strict=True)
def test_last_true_stops_early_at_the_point_of_200_halvings(ends, threshold, strict):
    # an infinite threshold, or one at hi, makes the predicate true at hi;
    # a bracket of -0.0 and 0.0 moves lo by its sign alone
    holds = (lambda x: x < threshold) if strict else (lambda x: x <= threshold)
    got, want = _last_true(holds, *ends), halvings_last_true(holds, *ends)
    assert got.hex() == want.hex()


def test_last_true_stops_once_its_ends_are_neighbours():
    calls = []

    def below_a_third(x):
        calls.append(x)
        return x <= 1.0 / 3.0

    assert _last_true(below_a_third, 0.0, 1.0) == 1.0 / 3.0
    assert len(calls) < 60


def test_solve_q_rejects_bad_tolerances():
    # inf would accept the start point tanh^2(h) unconverged, and nan would
    # fail every check and end as a numerical failure, not a usage error
    for tol in (0.0, -1e-12, math.inf, math.nan):
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            solve_q(0.5, 0.3, tol=tol)


@pytest.mark.parametrize(
    "t, h", [(math.nan, 0.3), (0.5, math.nan), (math.inf, 0.3), (0.5, -math.inf)]
)
def test_solve_q_rejects_non_finite_parameters(t, h):
    # a NaN residual compares False against the tolerance, which once let
    # the bisection fallback return q = 0 as if it were a fixed point
    with pytest.raises(ValueError, match="finite"):
        solve_q(t, h)


def test_solve_q_never_accepts_a_nan_residual(monkeypatch):
    # finite t and h never make f NaN, and the table cannot hold a NaN node,
    # so a map that returns NaN stands in for any other route to a NaN
    # residual; the final check must read it as not converged
    monkeypatch.setattr(sktap.tap, "f_map", lambda x, t, h, nodes=61: math.nan)
    monkeypatch.setattr(sktap.tap, "_MAX_ITER", 1)
    with pytest.raises(NonConvergenceError):
        solve_q(0.5, 0.3)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: f_map(0.1, -0.5, 0.3), "t must be >= 0"),
        (lambda: at_value(0.5, 0.3, 1.5), r"q must be in \[0, 1\]"),
        (lambda: at_value(0.5, 0.3, -0.1), r"q must be in \[0, 1\]"),
        (lambda: at_value(-0.5, 0.3, 0.2), "t must be >= 0"),
        (lambda: predicted_mij_sq(0.5, 0.3, 0), "n must be >= 1"),
        # NaN and inf pass the range checks above, and the maps returned NaN
        (lambda: f_map(0.5, math.nan, 0.3), "t must be >= 0 and finite"),
        (lambda: f_map(math.inf, 0.5, 0.3), "x must be >= 0 and finite"),
        (lambda: f_map(math.nan, 0.5, 0.3), "x must be >= 0 and finite"),
        (lambda: f_map(0.1, 0.5, -math.inf), "h must be finite"),
        (lambda: at_value(math.inf, 0.3, 0.5), "t must be >= 0 and finite"),
        (lambda: at_value(math.nan, 0.3, 0.5), "t must be >= 0 and finite"),
        (lambda: at_value(0.5, math.nan, 0.5), "h must be finite"),
    ],
    ids=["f_map-t", "at_value-q-above", "at_value-q-below", "at_value-t",
         "predicted_mij_sq-n", "f_map-t-nan", "f_map-x-inf", "f_map-x-nan", "f_map-h-inf",
         "at_value-t-inf", "at_value-t-nan", "at_value-h-nan"],
)
def test_gaussian_maps_reject_arguments_out_of_range(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_predicted_mij_sq_refuses_a_rule_that_node_doubling_moves():
    # two nodes against four differ far beyond the 1e-10 certification
    with pytest.raises(NumericalError, match="node-doubling delta"):
        predicted_mij_sq(0.5, 0.3, 20, 2)


def test_predicted_mij_sq_names_the_doubled_count_numpy_cannot_build():
    # 200 nodes build, but their certification needs 400
    with pytest.raises(ValueError, match="cannot build a 400-node"):
        predicted_mij_sq(0.5, 0.3, 20, 200)


def test_at_value_closed_forms():
    assert at_value(0.9, 0.0, 0.0) == pytest.approx(0.9, abs=1e-13)
    assert at_value(1.2, 0.0, 0.0) == pytest.approx(1.2, abs=1e-13)
    q = solve_q(0.5, 0.3)
    val = at_value(0.5, 0.3, q)
    assert val < 1.0
    rng = np.random.default_rng(61)
    z = rng.standard_normal(1_000_000)
    samples = 0.5 / np.cosh(0.3 + math.sqrt(0.5 * q) * z) ** 4
    se = float(samples.std(ddof=1) / math.sqrt(samples.size))
    assert abs(val - float(samples.mean())) < 3 * se


def test_predicted_mij_sq_values():
    assert predicted_mij_sq(0.5, 0.0, 10) == pytest.approx(0.1, abs=1e-13)
    assert predicted_mij_sq(0.0, 0.7, 12) == 0.0
    # node-doubling certification is built in; a converged call just works
    v61 = predicted_mij_sq(0.5, 0.3, 20, 61)
    v121 = predicted_mij_sq(0.5, 0.3, 20, 121)
    assert abs(v61 - v121) < 1e-10
    # (t/n) (E sech^4)^2 / (1 - t E sech^4) with E sech^4 from its own
    # quadrature: at h = 0, q = 0 and E sech^4 = 1 hide a dropped square
    x, w = np.polynomial.hermite.hermgauss(61)
    y = 0.3 + math.sqrt(2.0 * 0.5 * solve_q(0.5, 0.3)) * x
    es4 = float(w @ np.cosh(y) ** -4) / math.sqrt(math.pi)
    assert v61 == pytest.approx((0.5 / 20) * es4**2 / (1.0 - 0.5 * es4), rel=1e-12)


def test_predicted_mij_sq_fails_beyond_at_line():
    with pytest.raises(BranchError):
        predicted_mij_sq(1.2, 0.0, 10)


def test_all_residuals_vanish_at_zero_coupling():
    p = ModelParams.uniform(6, 0.0, 0.3)
    cm = sample_couplings(p, 3)
    assert htap1_residuals(cm, p).mean_square < 1e-24
    assert tap1_residuals(cm, p).mean_square < 1e-24
    assert abs(htap2_residual(cm, p, 0, 1)) < 1e-12
    assert abs(tap2_residual(cm, p, 0, 1)) < 1e-12


def test_magnetization_residuals_vanish_at_zero_field():
    p = ModelParams.uniform(6, 0.6, 0.0)
    cm = sample_couplings(p, 4)
    assert htap1_residuals(cm, p).mean_square < 1e-24
    assert tap1_residuals(cm, p).mean_square < 1e-24
    p2 = ModelParams.uniform(2, 0.8, 0.0)
    cm2 = sample_couplings(p2, 1)
    assert htap1_residuals(cm2, p2).mean_square < 1e-24


def test_pair_residuals_are_exchangeable_under_relabeling():
    # with a uniform field, permuting the sites permutes the residuals
    p = ModelParams.uniform(7, 0.5, 0.3)
    cm = sample_couplings(p, 15)
    perm = np.array([3, 6, 0, 2, 5, 1, 4])
    cm_perm = CouplingMatrix(7, cm.entries[np.ix_(perm, perm)])
    # site a of the permuted system is site perm[a] of the original
    orig = htap2_residual(cm, p, int(perm[0]), int(perm[1]))
    relabeled = htap2_residual(cm_perm, p, 0, 1)
    assert relabeled == pytest.approx(orig, abs=1e-12)
    orig_t2 = tap2_residual(cm, p, int(perm[0]), int(perm[1]))
    relabeled_t2 = tap2_residual(cm_perm, p, 0, 1)
    assert relabeled_t2 == pytest.approx(orig_t2, abs=1e-12)


def test_htap2_two_site_closed_form():
    # with two sites the cavity sum collapses to the diagonal-convention term
    g = 0.4
    p = ModelParams.uniform(2, 1.0, 0.2)
    cm = CouplingMatrix(2, np.array([[0.0, g], [g, 0.0]]))
    tabs = gibbs_tables(cm, p)
    m1_cav = math.tanh(0.2)
    expected = tabs.pair[0, 1] - (
        1.0 - math.tanh(0.2 + g * m1_cav) ** 2
    ) * g * (1.0 - m1_cav**2)
    assert htap2_residual(cm, p, 0, 1) == pytest.approx(expected, abs=1e-13)
    with pytest.raises(ValueError):
        htap2_residual(cm, p, 1, 1)


@pytest.mark.parametrize("i, j", [(4, 1), (1, 4)], ids=["j-below-i", "j-above-i"])
def test_htap2_matches_the_naive_oracle_on_either_side_of_the_cavity_site(i, j):
    # In the cavity of i, the n - 1 other sites, site j sits at j when j < i
    # and at j - 1 when j > i.  The naive oracle of the full system gives
    # m_ij, and that of the cut cavity m^{(i)} and its column j.
    p = ModelParams(n=7, t=0.6, field=np.random.default_rng(7).normal(0.2, 0.4, 7))
    cm = sample_couplings(p, 11)
    _, _, pair, _ = naive_tables(cm.entries.tolist(), p.field.tolist())
    cav_cm, cav_p = cavity_system(cm, p, i)
    _, m_cav, pair_cav, _ = naive_tables(cav_cm.entries.tolist(), cav_p.field.tolist())
    others = [site for site in range(7) if site != i]
    g_i = cm.entries[i, others]
    arg = p.field[i] + math.fsum(g_i * np.array(m_cav))
    column = math.fsum(g_i * np.array(pair_cav)[:, others.index(j)])
    expected = pair[i][j] - (1.0 - math.tanh(arg) ** 2) * column
    assert abs(expected) > 1e-3
    assert htap2_residual(cm, p, i, j) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("residual", [htap2_residual, tap2_residual])
@pytest.mark.parametrize("i,j", [(0, 4), (0, 9), (0, -1), (-4, 1)])
def test_pair_residuals_reject_sites_out_of_range(residual, i, j):
    # j = -1 must not wrap around to site n - 1
    p = ModelParams.uniform(4, 0.5, 0.3)
    cm = sample_couplings(p, 5)
    with pytest.raises(ValueError, match="out of range"):
        residual(cm, p, i, j)


@pytest.mark.parametrize("h", [0.0, 0.3])
def test_tap2_three_site_hand_expansion(h):
    # m_ij - (1 - m_i^2) (sum_k g_ik m_kj + (2t/n) (M m)_j m_i - t (1 - q) m_ij)
    # from the naive oracle; at h = 0 all magnetizations vanish and it reads
    # m_ij - sum_k g_ik m_kj + t m_ij, so only h != 0 reaches the (2t/n) term
    p = ModelParams.uniform(3, 0.5, h)
    cm = sample_couplings(p, 9)
    _, m, pair, _ = naive_tables(cm.entries.tolist(), p.field.tolist())
    m, pair = np.array(m), np.array(pair)
    i, j = 0, 1
    q = float(np.sum(m**2)) / 3
    inner = (
        float(cm.entries[i] @ pair[:, j])
        + (2.0 * p.t / 3) * float(pair[j] @ m) * m[i]
        - p.t * (1.0 - q) * pair[i, j]
    )
    expected = pair[i, j] - (1.0 - m[i] ** 2) * inner
    assert tap2_residual(cm, p, i, j) == pytest.approx(expected, abs=1e-12)


def test_htap1_report_matches_direct_recomputation():
    # per-site fields exercise the general case, not just uniform h
    rng = np.random.default_rng(55)
    p = ModelParams(n=12, t=0.5, field=rng.normal(0.3, 0.2, 12))
    cm = sample_couplings(p, 5)
    report = htap1_residuals(cm, p)
    full = gibbs_tables(cm, p)
    for i in range(12):
        cav = magnetizations(*cavity_system(cm, p, i))
        others = [j for j in range(12) if j != i]
        arg = p.field[i] + sum(cm.entries[i, j] * c for j, c in zip(others, cav))
        assert report.residuals[i] == pytest.approx(full.m[i] - math.tanh(arg), abs=1e-12)


@pytest.mark.parametrize("n", [8, 12, 19])
def test_cavity_sweep_matches_one_enumeration_per_site_and_the_oracles(n, monkeypatch):
    # One stacked enumeration of the n cavity systems, each in the group
    # order of ``_cavity_order``, against that cavity enumerated alone in
    # the same site order, bit for bit; against the cut (n - 1)-site system
    # in site order to 1e-12, as the order moves the rounding; the
    # Gray-code engine (every cavity up to n = 12, two of them at n = 19)
    # and, at n = 8, the naive oracle.  At n = 19 the cavities share one D
    # grid per group of 4 sites (the last of 3), in chunks of one, two and
    # two groups: 4 + 8 + 7 systems.
    rng = np.random.default_rng(n)
    p = ModelParams(n=n, t=0.5, field=rng.normal(0.3, 0.2, n))
    cm = sample_couplings(p, n)
    g = cm.entries
    stacks = []
    moments = BlockEnumerator.moments

    def spy(self, h, *args, **kwargs):
        fields = np.array(h)  # the pass writes the magnetizations over h
        raw = moments(self, h, *args, **kwargs)
        if len(self.G) > 1:
            stacks.append((self.G, fields, raw.mag.copy()))
        return raw

    monkeypatch.setattr(BlockEnumerator, "moments", spy)
    report = htap1_residuals(cm, p)
    monkeypatch.undo()
    ((G, fields, stacked),) = stacks
    order, _ = _cavity_order(n)
    assert np.array_equal(G, g[order[:, :, None], order[:, None, :]])
    full = magnetizations(cm, p)
    cavities = []
    for i in range(n):
        alone = BlockEnumerator(G[i]).moments(fields[i], want_pair=False).mag[0]
        assert np.array_equal(stacked[i], alone)
        cav = np.empty(n)
        cav[order[i]], cav[i] = alone, 0.0
        assert np.max(np.abs(np.delete(cav, i) - magnetizations(*cavity_system(cm, p, i)))) < 1e-12
        cavities.append(cav)
        expected = full[i] - math.tanh(p.field[i] + g[i] @ cav)
        assert report.residuals[i] == pytest.approx(expected, abs=1e-12)
    if n <= 12:
        gray = on_engine("gray", htap1_residuals, cm, p)
        for i in range(n):
            assert report.residuals[i] == pytest.approx(gray.residuals[i], abs=1e-12)
    else:
        for i in (3, n - 3):
            keep = [j for j in range(n) if j != i]
            m = GrayEnumerator(g[np.ix_(keep, keep)]).moments(p.field[keep], want_pair=False).mag[0]
            assert np.max(np.abs(m - cavities[i][keep])) < 1e-12
    if n == 8:
        _, m_full, _, _ = naive_tables(g.tolist(), p.field.tolist())
        for i in range(n):
            keep = [j for j in range(n) if j != i]
            _, m_cav, _, _ = naive_tables(g[np.ix_(keep, keep)].tolist(), p.field[keep].tolist())
            expected = m_full[i] - math.tanh(p.field[i] + math.fsum(g[i, keep] * np.array(m_cav)))
            assert report.residuals[i] == pytest.approx(expected, abs=1e-12)


def test_tap1_report_matches_direct_recomputation():
    p = ModelParams.uniform(10, 0.5, 0.3)
    cm = sample_couplings(p, 6)
    report = tap1_residuals(cm, p)
    tabs = gibbs_tables(cm, p)
    q = float(np.sum(tabs.m**2)) / 10
    for i in range(10):
        arg = p.field[i] + float(cm.entries[i] @ tabs.m) - p.t * (1 - q) * tabs.m[i]
        assert report.residuals[i] == pytest.approx(tabs.m[i] - math.tanh(arg), abs=1e-12)


def test_report_mean_square_consistency():
    p = ModelParams.uniform(8, 0.5, 0.3)
    cm = sample_couplings(p, 7)
    report = htap1_residuals(cm, p)
    recomputed = np.mean([v**2 for v in report.residuals])
    assert abs(report.mean_square - recomputed) < 1e-14
