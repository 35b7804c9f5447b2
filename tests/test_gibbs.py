import json
import math

import numpy as np
import pytest

from sktap import (
    CouplingMatrix,
    ModelParams,
    ReducedSpec,
    coupling_derivative_residual,
    delta_op,
    eps_op,
    gibbs_tables,
    key_identity_residual,
    log_partition,
    magnetization_observable,
    magnetizations,
    pair_observable,
    sample_couplings,
    susceptibility_fd,
    triple_correlation,
)
from oracles import naive_raw_moment, naive_tables


def two_site_matrix(g):
    return CouplingMatrix(2, np.array([[0.0, g], [g, 0.0]]))


def random_instance(rng, n):
    t = float(rng.uniform(0.1, 0.9))
    params = ModelParams(n=n, t=t, field=rng.normal(0.0, 0.5, n))
    cm = sample_couplings(params, int(rng.integers(0, 2**63)))
    return params, cm


def test_log_partition_single_spin():
    p = ModelParams.uniform(1, 0.0, 0.7)
    cm = sample_couplings(p, 0)
    assert log_partition(cm, p) == pytest.approx(math.log(2 * math.cosh(0.7)), abs=1e-13)


def test_log_partition_two_spins():
    p = ModelParams.uniform(2, 1.0, 0.0)
    assert log_partition(two_site_matrix(0.4), p) == pytest.approx(
        math.log(4 * math.cosh(0.4)), abs=1e-13
    )


def test_log_partition_clamped_reduces_to_single_site():
    p = ModelParams.uniform(2, 1.0, 0.2)
    got = log_partition(two_site_matrix(0.4), p, ReducedSpec(clamped={0: +1}))
    assert got == pytest.approx(math.log(2 * math.cosh(0.2 + 0.4)), abs=1e-13)


def test_log_partition_rejects_oversized_systems():
    p = ModelParams(n=6, t=0.5, field=np.zeros(6), enum_cap=4)
    cm = sample_couplings(p, 1)
    with pytest.raises(ValueError):
        log_partition(cm, p)
    # removing enough sites brings the active count under the cap
    log_partition(cm, p, ReducedSpec(removed=frozenset({0, 1})))


def test_product_measure_at_zero_coupling():
    p = ModelParams.uniform(5, 0.0, 0.3)
    cm = sample_couplings(p, 9)
    tabs = gibbs_tables(cm, p)
    assert np.max(np.abs(tabs.m - math.tanh(0.3))) < 1e-13
    off = tabs.pair - np.diag(np.diag(tabs.pair))
    assert np.max(np.abs(off)) < 1e-13
    assert tabs.log_z == pytest.approx(5 * math.log(2 * math.cosh(0.3)), abs=1e-12)
    assert tabs.q_n == pytest.approx(math.tanh(0.3) ** 2, abs=1e-13)


def test_two_spin_pair_correlation():
    p = ModelParams.uniform(2, 1.0, 0.0)
    tabs = gibbs_tables(two_site_matrix(0.4), p)
    assert np.max(np.abs(tabs.m)) < 1e-15
    assert tabs.pair[0, 1] == pytest.approx(math.tanh(0.4), abs=1e-13)


@pytest.mark.parametrize("engine", ["block", "gray"])
def test_engines_match_naive_oracle(engine):
    rng = np.random.default_rng(2024)
    for _ in range(12):
        n = int(rng.integers(2, 9))
        params, cm = random_instance(rng, n)
        tabs = gibbs_tables(cm, params, engine=engine)
        log_z, m, pair, q_full = naive_tables(cm.entries.tolist(), params.field.tolist())
        assert abs(tabs.log_z - log_z) < 1e-12
        assert np.max(np.abs(tabs.m - np.array(m))) < 1e-12
        assert np.max(np.abs(tabs.pair - np.array(pair))) < 1e-12
        assert abs(tabs.q_n - q_full) < 1e-12


def test_engines_match_each_other_with_reductions():
    rng = np.random.default_rng(77)
    params, cm = random_instance(rng, 12)
    spec = ReducedSpec(clamped={1: -1, 4: +1}, removed=frozenset({7}))
    tb = gibbs_tables(cm, params, spec, engine="block")
    tg = gibbs_tables(cm, params, spec, engine="gray")
    assert abs(tb.log_z - tg.log_z) < 1e-12
    assert np.allclose(tb.m, tg.m, atol=1e-12, equal_nan=True)
    assert np.allclose(tb.pair, tg.pair, atol=1e-12, equal_nan=True)


@pytest.mark.parametrize("na,rows", [(12, 7), (16, 3)])
def test_stacked_moments_match_one_call_per_row(na, rows):
    # na = 12 fits 4 systems per chunk, so 7 rows split 4 + 3; at na = 16
    # each chunk holds one system
    from sktap.gibbs import BlockEnumerator

    rng = np.random.default_rng(na)
    params, cm = random_instance(rng, na)
    fields = rng.normal(0.0, 0.5, (rows, na))
    fields[1] *= 600.0  # |H| ~ 1e3: each row needs its own log-sum-exp shift
    fields[-1] = fields[0]
    cols = [(0,), (na - 1,), (1, na - 2)]
    ctx = BlockEnumerator(cm.entries)
    stacked = ctx.moments(fields, want_pair=True, cols=cols)
    assert stacked.mag.shape == (rows, na)
    for r, h in enumerate(fields):
        one = ctx.moments(h[None, :], want_pair=True, cols=cols)
        assert abs(stacked.log_z[r] - one.log_z[0]) <= 1e-15 * abs(one.log_z[0])
        assert np.max(np.abs(stacked.mag[r] - one.mag[0])) <= 1e-15
        assert np.max(np.abs(stacked.second[r] - one.second[0])) <= 1e-15
        for key in cols:
            assert np.max(np.abs(stacked.cols[key][r] - one.cols[key][0])) <= 1e-15
    # equal field rows in different chunks give equal bits
    assert np.array_equal(stacked.mag[-1], stacked.mag[0])
    assert np.array_equal(stacked.cols[(0,)][-1], stacked.cols[(0,)][0])


def test_empty_active_set_edge_cases():
    p = ModelParams.uniform(3, 0.5, 0.4)
    cm = sample_couplings(p, 2)
    spec = ReducedSpec(clamped={0: 1, 1: -1}, removed=frozenset({2}))
    assert log_partition(cm, p, spec) == 0.0
    tabs = gibbs_tables(cm, p, spec)
    assert tabs.q_n == 0.0
    assert tabs.m[0] == 1.0 and tabs.m[1] == -1.0 and math.isnan(tabs.m[2])


def test_log_sum_exp_survives_huge_energies():
    # |H| up to ~1200 must not overflow the weight handling;
    # log Z = 4 log(2 cosh 300) = 1200 to float precision
    p = ModelParams.uniform(4, 0.0, 300.0)
    cm = sample_couplings(p, 1)
    tabs = gibbs_tables(cm, p)
    assert np.isfinite(tabs.log_z)
    assert tabs.log_z == pytest.approx(1200.0, abs=1e-9)
    assert np.all(np.abs(tabs.m) <= 1.0)
    assert np.all(np.isfinite(tabs.pair))


def test_tables_invariants_random_sweep():
    rng = np.random.default_rng(5150)
    for _ in range(10):
        n = int(rng.integers(2, 10))
        params, cm = random_instance(rng, n)
        tabs = gibbs_tables(cm, params)
        assert np.all(np.abs(tabs.m) <= 1.0)
        assert np.all(np.abs(tabs.pair) <= 2.0)
        assert np.array_equal(tabs.pair, tabs.pair.T)
        assert np.array_equal(np.diag(tabs.pair), 1.0 - tabs.m**2)
        assert 0.0 <= tabs.q_n <= 1.0


def test_reduced_tables_masking_semantics():
    rng = np.random.default_rng(31)
    params, cm = random_instance(rng, 6)
    spec = ReducedSpec(clamped={2: -1}, removed=frozenset({4}))
    tabs = gibbs_tables(cm, params, spec)
    assert tabs.m[2] == -1.0
    assert math.isnan(tabs.m[4])
    assert np.all(np.isnan(tabs.pair[4, :]))
    assert np.all(np.isnan(tabs.pair[:, 4]))
    assert tabs.pair[2, 0] == 0.0 and tabs.pair[2, 2] == 0.0
    assert not np.any(np.isnan(tabs.pair[np.ix_([0, 1, 3, 5], [0, 1, 3, 5])]))


def test_overlap_normalizations():
    rng = np.random.default_rng(8)
    params, cm = random_instance(rng, 6)
    spec = ReducedSpec(removed=frozenset({0}))
    full = gibbs_tables(cm, params, spec, overlap_norm="full")
    act = gibbs_tables(cm, params, spec, overlap_norm="active")
    assert full.q_n * 6 == pytest.approx(act.q_n * 5, abs=1e-15)
    with pytest.raises(ValueError):
        gibbs_tables(cm, params, spec, overlap_norm="other")


def test_triple_symmetry_zeros():
    # odd centered moments vanish under the global spin flip at zero field
    p = ModelParams.uniform(6, 0.7, 0.0)
    cm = sample_couplings(p, 12)
    assert abs(triple_correlation(cm, p, None, 0, 2, 5)) < 1e-13
    # independence at zero coupling
    p0 = ModelParams.uniform(6, 0.0, 0.4)
    cm0 = sample_couplings(p0, 1)
    assert abs(triple_correlation(cm0, p0, None, 1, 2, 3)) < 1e-13


def test_triple_matches_raw_moment_expansion():
    p = ModelParams.uniform(6, 0.5, 0.3)
    cm = sample_couplings(p, 2)
    g = cm.entries.tolist()
    h = p.field.tolist()
    i, j, k = 0, 3, 5
    raw3 = naive_raw_moment(g, h, (i, j, k))
    _, m, _, _ = naive_tables(g, h)
    rij = naive_raw_moment(g, h, (i, j))
    rik = naive_raw_moment(g, h, (i, k))
    rjk = naive_raw_moment(g, h, (j, k))
    expansion = raw3 - m[i] * rjk - m[j] * rik - m[k] * rij + 2 * m[i] * m[j] * m[k]
    assert triple_correlation(cm, p, None, i, j, k) == pytest.approx(expansion, abs=1e-12)


def test_triple_rejects_bad_indices():
    p = ModelParams.uniform(5, 0.5, 0.1)
    cm = sample_couplings(p, 3)
    with pytest.raises(ValueError):
        triple_correlation(cm, p, None, 1, 1, 2)
    with pytest.raises(ValueError):
        triple_correlation(cm, p, ReducedSpec(removed=frozenset({2})), 1, 2, 3)


def test_delta_op_closed_form():
    p = ModelParams.uniform(2, 1.0, 0.0)
    cm = two_site_matrix(0.4)
    got = delta_op(cm, p, ReducedSpec(), 0, magnetization_observable(1))
    assert got == pytest.approx(math.tanh(0.4), abs=1e-13)


def test_eps_op_kills_odd_observables_at_zero_field():
    p = ModelParams.uniform(4, 0.6, 0.0)
    cm = sample_couplings(p, 21)
    assert abs(eps_op(cm, p, ReducedSpec(), 0, magnetization_observable(2))) < 1e-14
    # even observables survive
    assert abs(eps_op(cm, p, ReducedSpec(), 0, pair_observable(1, 2))) > 1e-6


def test_delta_op_rejects_busy_sites():
    p = ModelParams.uniform(3, 0.5, 0.1)
    cm = sample_couplings(p, 4)
    with pytest.raises(ValueError):
        delta_op(cm, p, ReducedSpec(clamped={0: 1}), 0, magnetization_observable(1))


def test_key_identity_two_site_closed_form():
    p = ModelParams.uniform(2, 1.0, 0.0)
    assert abs(key_identity_residual(two_site_matrix(0.4), p, {}, 0, 1)) < 1e-14


def test_key_identity_zero_coupling():
    p = ModelParams.uniform(5, 0.0, 0.3)
    cm = sample_couplings(p, 6)
    assert abs(key_identity_residual(cm, p, {}, 0, 1)) < 1e-14
    assert abs(key_identity_residual(cm, p, {}, 0, 1, 2)) < 1e-14


def test_key_identities_randomized():
    rng = np.random.default_rng(99)
    p = ModelParams.uniform(8, 0.6, 0.3)
    cm = sample_couplings(p, 13)
    for _ in range(50):
        sites = rng.permutation(8)
        i, j, k = (int(v) for v in sites[:3])
        clamp_count = int(rng.integers(0, 4))
        clamped = {int(s): int(rng.choice((-1, 1))) for s in sites[3 : 3 + clamp_count]}
        assert abs(key_identity_residual(cm, p, clamped, i, j)) < 1e-12
        assert abs(key_identity_residual(cm, p, clamped, i, j, k)) < 1e-12


def test_susceptibility_matches_pair():
    p = ModelParams.uniform(8, 0.5, 0.3)
    cm = sample_couplings(p, 5)
    tabs = gibbs_tables(cm, p)
    for i, j in ((0, 5), (3, 3), (7, 1)):
        fd = susceptibility_fd(cm, p, i, j, 1e-5)
        assert abs(fd - tabs.pair[i, j]) < 1e-8
    with pytest.raises(ValueError):
        susceptibility_fd(cm, p, 0, 1, 0.0)


def test_susceptibility_richardson_step_check():
    # halving the step must be consistent with the O(step^2) error model:
    # the Richardson combination lands much closer to the exact covariance
    p = ModelParams.uniform(8, 0.5, 0.3)
    cm = sample_couplings(p, 5)
    tabs = gibbs_tables(cm, p)
    i, j = 2, 6
    fd1 = susceptibility_fd(cm, p, i, j, 1e-5)
    fd2 = susceptibility_fd(cm, p, i, j, 2e-5)
    richardson = (4.0 * fd1 - fd2) / 3.0
    assert abs(richardson - tabs.pair[i, j]) < 5e-10
    assert abs(fd1 - fd2) < 1e-7


def test_susceptibility_trivial_cases():
    p = ModelParams.uniform(3, 0.0, 0.0)
    cm = sample_couplings(p, 2)
    assert abs(susceptibility_fd(cm, p, 0, 2)) < 1e-9
    assert susceptibility_fd(cm, p, 1, 1) == pytest.approx(1.0, abs=1e-9)


def test_coupling_derivative_identity():
    p = ModelParams.uniform(8, 0.5, 0.3)
    cm = sample_couplings(p, 5)
    for i, l, k in ((0, 1, 2), (3, 7, 5), (2, 6, 0)):
        assert abs(coupling_derivative_residual(cm, p, i, l, k)) < 1e-7


def test_coupling_derivative_repeated_index_conventions():
    # two-site case: the derivative target coincides with one bond end
    p = ModelParams.uniform(2, 1.0, 0.0)
    cm = two_site_matrix(0.4)
    assert abs(coupling_derivative_residual(cm, p, 0, 1, 1)) < 1e-8
    ph = ModelParams.uniform(5, 0.5, 0.3)
    cmh = sample_couplings(ph, 8)
    assert abs(coupling_derivative_residual(cmh, ph, 1, 3, 3)) < 1e-7
    assert abs(coupling_derivative_residual(cmh, ph, 1, 3, 1)) < 1e-7
    with pytest.raises(ValueError):
        coupling_derivative_residual(cmh, ph, 2, 2, 0)


def test_coupling_derivative_zero_baseline():
    p = ModelParams.uniform(4, 0.0, 0.0)
    cm = sample_couplings(p, 1)
    assert abs(coupling_derivative_residual(cm, p, 0, 1, 2)) < 1e-10


def _pair_derivative_fd(cm, p, i, k, a, b, step=1e-5):
    up = gibbs_tables(cm.bumped(i, k, +step), p)
    dn = gibbs_tables(cm.bumped(i, k, -step), p)
    return (up.pair[a, b] - dn.pair[a, b]) / (2.0 * step)


def test_pair_derivative_same_site_expansion():
    # d m_kj / d g_ik expands through the half-difference operator at site j:
    # -2 m_j (m_i m_jk + m_k m_ij + m_ijk) delta_j m_k^[j]
    #   + (1 - m_j^2) delta_j[(1 - (m_k^[j])^2) m_i^[j] - m_k^[j] m_ik^[j]]
    p = ModelParams.uniform(6, 0.5, 0.3)
    cm = sample_couplings(p, 17)
    base = gibbs_tables(cm, p)
    for i, k, j in ((0, 1, 2), (3, 5, 0), (4, 2, 5)):
        up = gibbs_tables(cm, p, ReducedSpec(clamped={j: +1}))
        dn = gibbs_tables(cm, p, ReducedSpec(clamped={j: -1}))
        delta_mk = 0.5 * (up.m[k] - dn.m[k])
        inner_up = (1.0 - up.m[k] ** 2) * up.m[i] - up.m[k] * up.pair[i, k]
        inner_dn = (1.0 - dn.m[k] ** 2) * dn.m[i] - dn.m[k] * dn.pair[i, k]
        trip = triple_correlation(cm, p, None, i, j, k)
        rhs = -2.0 * base.m[j] * (
            base.m[i] * base.pair[j, k] + base.m[k] * base.pair[i, j] + trip
        ) * delta_mk + (1.0 - base.m[j] ** 2) * 0.5 * (inner_up - inner_dn)
        lhs = _pair_derivative_fd(cm, p, i, k, k, j)
        assert abs(lhs - rhs) < 1e-7


def test_pair_derivative_distinct_site_expansion():
    # d m_lj / d g_ik expands through the half-difference operator at site l:
    # -2 m_l (m_i m_kl + m_k m_il + m_ilk) delta_l m_j^[l]
    #   + (1 - m_l^2) delta_l(m_i^[l] m_kj^[l] + m_k^[l] m_ij^[l] + m_ijk^[l])
    p = ModelParams.uniform(6, 0.5, 0.3)
    cm = sample_couplings(p, 17)
    base = gibbs_tables(cm, p)
    for i, k, l, j in ((0, 1, 2, 3), (4, 2, 5, 0)):
        specs = [ReducedSpec(clamped={l: s}) for s in (+1, -1)]
        tabs = [gibbs_tables(cm, p, s) for s in specs]
        trips = [triple_correlation(cm, p, s, i, j, k) for s in specs]
        delta_mj = 0.5 * (tabs[0].m[j] - tabs[1].m[j])
        inner = [
            tb.m[i] * tb.pair[k, j] + tb.m[k] * tb.pair[i, j] + tr
            for tb, tr in zip(tabs, trips)
        ]
        trip_ilk = triple_correlation(cm, p, None, i, l, k)
        rhs = -2.0 * base.m[l] * (
            base.m[i] * base.pair[k, l] + base.m[k] * base.pair[i, l] + trip_ilk
        ) * delta_mj + (1.0 - base.m[l] ** 2) * 0.5 * (inner[0] - inner[1])
        lhs = _pair_derivative_fd(cm, p, i, k, l, j)
        assert abs(lhs - rhs) < 1e-7


def test_magnetizations_shortcut_agrees_with_tables():
    rng = np.random.default_rng(404)
    params, cm = random_instance(rng, 7)
    spec = ReducedSpec(removed=frozenset({3}))
    m_light = magnetizations(cm, params, spec)
    m_full = gibbs_tables(cm, params, spec).m
    assert np.allclose(m_light, m_full, atol=1e-14, equal_nan=True)


def test_tables_serialization():
    p = ModelParams.uniform(4, 0.5, 0.2)
    cm = sample_couplings(p, 3)
    tabs = gibbs_tables(cm, p, ReducedSpec(removed=frozenset({1})))
    obj = json.loads(tabs.to_json())
    assert obj["m"][1] is None
    assert obj["pair"][1][2] is None
    assert obj["q_n"] == pytest.approx(tabs.q_n)
    csv_text = tabs.pair_csv_text()
    assert csv_text.splitlines()[0] == "i,j,m_ij"
    # three active sites -> three pairs
    assert len(csv_text.strip().splitlines()) == 4


def test_spec_validation():
    with pytest.raises(ValueError):
        ReducedSpec(clamped={0: 2})
    with pytest.raises(ValueError):
        ReducedSpec(clamped={0: 1}, removed=frozenset({0}))
    spec = ReducedSpec(clamped={1: -1})
    with pytest.raises(ValueError):
        spec.with_clamped(1, 1)
    p = ModelParams.uniform(3, 0.5, 0.0)
    cm = sample_couplings(p, 0)
    with pytest.raises(ValueError):
        gibbs_tables(cm, p, ReducedSpec(removed=frozenset({5})))
