import dataclasses
import functools
import math
from fractions import Fraction

import numpy as np
import pytest

import sktap.spectral
from sktap import (
    BranchError,
    CouplingMatrix,
    ModelParams,
    NonConvergenceError,
    SingularOperatorError,
    build_deformed,
    gibbs_tables,
    magnetizations,
    resolvent_error,
    s_prime_at_e0,
    sample_couplings,
    self_consistent_s,
    spectral_margin,
)
from oracles import exact_trace_root, naive_tables


def test_build_deformed_zero_field():
    p = ModelParams.uniform(8, 0.4, 0.0)
    cm = sample_couplings(p, 3)
    op = build_deformed(magnetizations(cm, p), p)
    assert np.max(np.abs(op.lambda_diag - 1.0)) < 1e-12
    assert np.max(np.abs(op.rank_one)) < 1e-12
    assert op.e0 == pytest.approx(-0.4, abs=1e-12)


def test_build_deformed_zero_coupling():
    p = ModelParams.uniform(6, 0.0, 0.3)
    cm = sample_couplings(p, 1)
    op = build_deformed(magnetizations(cm, p), p)
    assert np.max(np.abs(op.lambda_diag - math.cosh(0.3) ** 2)) < 1e-12
    assert op.e0 == 0.0


def test_deformed_operator_invariants():
    p = ModelParams.uniform(12, 0.5, 0.3)
    cm = sample_couplings(p, 5)
    op = build_deformed(magnetizations(cm, p), p)
    assert np.all(op.lambda_diag >= 1.0)
    s = np.linalg.svd(op.rank_one, compute_uv=False)
    assert s[0] >= (1.0 - 1e-10) * np.linalg.norm(op.rank_one)


def test_deformed_operator_and_resolvent_match_hand_formulas():
    # Lambda_ii = 1/(1 - m_i^2), A = (2/n) m m^T and E0 = -t (1 - q_n) on the
    # naive oracle's m at n = 4, and the relative Frobenius distance of its
    # pair matrix from (Lambda - t A - G - E0)^{-1}
    p = ModelParams.uniform(4, 0.5, 0.3)
    cm = sample_couplings(p, 9)
    _, m, pair, _ = naive_tables(cm.entries.tolist(), p.field.tolist())
    m, pair = np.array(m), np.array(pair)
    q = math.fsum(m**2) / 4
    op = build_deformed(m, p)
    assert op.lambda_diag == pytest.approx(1.0 / (1.0 - m**2), rel=1e-12)
    assert op.rank_one.ravel() == pytest.approx(0.5 * np.outer(m, m).ravel(), rel=1e-12)
    assert op.e0 == pytest.approx(-0.5 * (1.0 - q), rel=1e-12)
    d = np.diag(1.0 / (1.0 - m**2)) - 0.25 * np.outer(m, m) - cm.entries
    d += 0.5 * (1.0 - q) * np.eye(4)
    want = np.linalg.norm(pair - np.linalg.inv(d)) / np.linalg.norm(pair)
    assert resolvent_error(cm, p) == pytest.approx(want, rel=1e-9)


def test_resolvent_exact_at_zero_coupling():
    p = ModelParams.uniform(8, 0.0, 0.3)
    cm = sample_couplings(p, 2)
    assert resolvent_error(cm, p) < 1e-12


def test_resolvent_error_moderate_at_desk_scale():
    p = ModelParams.uniform(12, 0.4, 0.3)
    cm = sample_couplings(p, 3)
    tabs = gibbs_tables(cm, p)
    op = build_deformed(tabs.m, p)
    # the resolvent without the rank-one part t A
    bare = np.linalg.inv(np.diag(op.lambda_diag) - cm.entries - op.e0 * np.eye(p.n))
    err_with = resolvent_error(cm, p, tables=tabs)
    err_without = float(np.linalg.norm(tabs.pair - bare) / np.linalg.norm(tabs.pair))
    assert 0.0 < err_with < 1.0
    assert 0.0 < err_without < 1.0
    assert err_with != err_without


def test_resolvent_error_refuses_an_ill_conditioned_operator(monkeypatch):
    monkeypatch.setattr(sktap.spectral, "_COND_LIMIT", 1.0)
    p = ModelParams.uniform(6, 0.4, 0.3)
    with pytest.raises(SingularOperatorError, match="condition estimate"):
        resolvent_error(sample_couplings(p, 2), p)


@pytest.mark.parametrize("n", [8, 24])
def test_resolvent_error_refuses_exactly_above_the_one_norm_condition_number(n, monkeypatch):
    # the limit one part in 1e12 below kappa_1 = cond(D, 1) refuses the
    # sample, and one part above it accepts it
    p = ModelParams.uniform(n, 0.4, 0.3)
    cm = sample_couplings(p, 3)
    tabs = gibbs_tables(cm, p)
    op = build_deformed(tabs.m, p)
    d = np.diag(op.lambda_diag) - cm.entries - op.e0 * np.eye(n) - p.t * op.rank_one
    kappa = np.linalg.cond(d, 1)
    monkeypatch.setattr(sktap.spectral, "_COND_LIMIT", kappa * (1.0 - 1e-12))
    with pytest.raises(SingularOperatorError, match="condition estimate"):
        resolvent_error(cm, p, tables=tabs)
    monkeypatch.setattr(sktap.spectral, "_COND_LIMIT", kappa * (1.0 + 1e-12))
    assert 0.0 < resolvent_error(cm, p, tables=tabs) < 1.0


def test_resolvent_error_factorizes_once(monkeypatch):
    # the condition number comes from the solve's own inverse: no SVD
    def refuse(*args, **kwargs):
        raise AssertionError("resolvent_error ran a second factorization")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(np.linalg, "cond", refuse)
    p = ModelParams.uniform(8, 0.4, 0.3)
    assert 0.0 < resolvent_error(sample_couplings(p, 3), p) < 1.0


@pytest.mark.parametrize(
    "route, call",
    [(resolvent_error, "solve"), (spectral_margin, "eigvalsh")],
    ids=["resolvent_error", "spectral_margin"],
)
def test_a_failed_linear_algebra_call_is_a_singular_operator(route, call, monkeypatch):
    # numpy raises LinAlgError, a ValueError that the CLI would file as a
    # usage error
    real = getattr(np.linalg, call)

    @functools.wraps(real)
    def fail(*args):
        raise np.linalg.LinAlgError("stub failure")

    monkeypatch.setattr(np.linalg, call, fail)
    p = ModelParams.uniform(4, 0.5, 0.3)
    with pytest.raises(SingularOperatorError, match=f"{call} of the deformed operator failed"):
        route(sample_couplings(p, 1), p)


def test_an_exactly_singular_operator_fails_the_solve():
    # at m = 0 the operator is (1 + t) I - G, and a coupling of 1 + t
    # makes its two rows opposite: the LU factorization meets a zero pivot
    p = ModelParams.uniform(2, 0.5, 0.0)
    cm = CouplingMatrix(n=2, entries=np.array([[0.0, 1.5], [1.5, 0.0]]))
    tables = dataclasses.replace(gibbs_tables(cm, p), m=np.zeros(2))
    with pytest.raises(SingularOperatorError, match="solve of the deformed operator failed"):
        resolvent_error(cm, p, tables=tables)


@pytest.mark.parametrize("route", [resolvent_error, spectral_margin, s_prime_at_e0])
def test_nan_magnetizations_are_a_singular_operator(route):
    # |NaN| >= 1 is False: the guard must refuse what is not below 1, or a
    # NaN operator reaches the solve and the error comes back NaN
    p = ModelParams.uniform(4, 0.5, 0.3)
    cm = sample_couplings(p, 1)
    tables = dataclasses.replace(gibbs_tables(cm, p), m=np.array([0.1, np.nan, 0.2, 0.3]))
    with pytest.raises(SingularOperatorError, match="saturated or is NaN"):
        route(cm, p, tables=tables)


def test_self_consistent_s_scalar_quadratic():
    s = self_consistent_s(np.ones(1), 0.25, -1.0)
    assert s == pytest.approx(4.0 - 2.0 * math.sqrt(3.0), abs=1e-10)


def test_self_consistent_s_zero_t_closed_form(monkeypatch):
    # at t = 0 the trace is phi(0), bit for bit, with no bisection
    def no_bisection(holds, lo, hi):
        raise AssertionError("t = 0 needs no bisection")

    monkeypatch.setattr(sktap.spectral, "_last_true", no_bisection)
    lam = np.array([1.0, 1.5, 2.0, 3.0])
    assert self_consistent_s(lam, 0.0, -0.7) == float(np.mean(1.0 / (lam + 0.7)))


def test_self_consistent_s_brackets_the_peak_and_the_root_from_s0(monkeypatch):
    # S0 = phi(0) is the least value the branch takes for t >= 0, so both
    # bisections start there: the peak's on [S0, cut], the root's on [S0, peak]
    real, calls = sktap.spectral._last_true, []

    def spy(holds, lo, hi):
        calls.append((lo, hi))
        return real(holds, lo, hi)

    monkeypatch.setattr(sktap.spectral, "_last_true", spy)
    lam, t, e = np.array([1.0, 1.2, 1.7, 2.5]), 0.3, -0.5
    s = self_consistent_s(lam, t, e)
    s0, cut = float(np.mean(1.0 / (lam - e))), (1.0 - e) / t
    (peak_lo, peak_hi), (root_lo, peak) = calls
    assert (peak_lo, peak_hi, root_lo) == (s0, cut, s0)
    assert s0 < s < peak < cut


def test_self_consistent_s_fixed_point_tolerance():
    p = ModelParams.uniform(12, 0.4, 0.3)
    cm = sample_couplings(p, 7)
    op = build_deformed(magnetizations(cm, p), p)
    s = self_consistent_s(op.lambda_diag, p.t, op.e0)
    denom = op.lambda_diag - op.e0 - p.t * s
    assert abs(s - float(np.mean(1.0 / denom))) <= 1e-12


def test_self_consistent_s_monotone_below_edge():
    lam = np.array([1.0, 1.2, 1.7, 2.5])
    t = 0.3
    vals = [self_consistent_s(lam, t, e) for e in np.linspace(-3.0, -0.5, 12)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_self_consistent_s_leaves_branch_inside_spectrum():
    with pytest.raises(BranchError):
        self_consistent_s(np.ones(4), 0.25, 0.5)
    with pytest.raises(BranchError):
        self_consistent_s(np.ones(4), 0.25, 2.0)


@pytest.mark.parametrize("contraction", [0.99995, 0.999999])
def test_self_consistent_s_finds_the_root_where_the_iteration_stalls(contraction):
    # S = 1/(c - t S) at t = 1/2 and c = 1/s1 + s1/2 has the roots s1 and
    # 2/s1, and phi'(s1) = t s1^2 = contraction, where a plain iteration
    # would crawl: the peak of F(s) = s - phi(s) sits just past s1, and the
    # root's bisection on [S0, peak] must find s1 inside the narrow
    # interval where F > 0
    t = 0.5
    s1 = math.sqrt(contraction / t)
    c = 1.0 / s1 + t * s1
    s = self_consistent_s(np.array([c]), t, 0.0)
    assert s == pytest.approx(s1, abs=1e-8)
    assert abs(s - 1.0 / (c - t * s)) <= 1e-12


def test_self_consistent_s_stalls_and_finds_no_root_below_the_critical_energy():
    # just below c = sqrt(2), where the two roots meet, the equation has no
    # real root: F stays below 0 at its peak
    with pytest.raises(BranchError, match="no real self-consistent solution"):
        self_consistent_s(np.array([math.sqrt(2.0) * (1.0 - 1e-10)]), 0.5, 0.0)


def test_self_consistent_s_raises_when_its_bisection_lands_off_the_root(monkeypatch):
    # in the narrow case above the first bisection finds the peak of F, and
    # a second that stops off the root must raise, not return a partly
    # converged S
    real, calls = sktap.spectral._last_true, []

    def second_stops_at_its_start(holds, lo, hi):
        calls.append((lo, hi))
        return real(holds, lo, hi) if len(calls) == 1 else lo

    monkeypatch.setattr(sktap.spectral, "_last_true", second_stops_at_its_start)
    t = 0.5
    s1 = math.sqrt(0.99995 / t)
    with pytest.raises(NonConvergenceError, match="self-consistent trace not converged"):
        self_consistent_s(np.array([1.0 / s1 + t * s1]), t, 0.0)
    assert len(calls) == 2


@pytest.mark.parametrize(
    "t, e", [(-0.1, -1.0), (math.nan, -1.0), (0.25, math.nan), (0.25, -math.inf)]
)
def test_self_consistent_s_rejects_negative_or_non_finite_parameters(t, e):
    with pytest.raises(ValueError, match="finite"):
        self_consistent_s(np.ones(2), t, e)


@pytest.mark.parametrize(
    "lam",
    [[], [[1.0, 2.0]], [math.nan, 2.0], [math.inf, 2.0], [-math.inf, 2.0]],
    ids=["empty", "2d", "nan", "inf", "minus-inf"],
)
def test_self_consistent_s_rejects_a_spectrum_that_is_not_a_nonempty_vector(lam):
    with pytest.raises(ValueError, match="nonempty 1d sequence of finite values"):
        self_consistent_s(np.array(lam), 0.25, -1.0)


def test_s_prime_raises_where_the_closed_form_diverges(monkeypatch):
    # a root of the real branch has t X = phi'(S) < 1, and next to a double
    # root the shifted solves raise first, so a stub trace with one
    # denominator of 1e-3 stands in for the edge
    monkeypatch.setattr(
        sktap.spectral, "self_consistent_s", lambda lam, t, e: (np.min(lam) - e - 1e-3) / t
    )
    p = ModelParams.uniform(6, 0.4, 0.3)
    with pytest.raises(BranchError, match="closed-form derivative diverges"):
        s_prime_at_e0(sample_couplings(p, 2), p)


def test_s_prime_scalar_analytic_derivative():
    # at h = 0 the tables give lambda = 1 and e0 = -t exactly, so the branch
    # is the scalar quadratic root S(E) = ((1-E) - sqrt((1-E)^2 - 4t))/(2t);
    # compare against its hand derivative
    lam, t = 1.0, 0.25
    p = ModelParams.uniform(4, t, 0.0)
    cm = sample_couplings(p, 11)
    fd, closed = s_prime_at_e0(cm, p)
    e0 = -t
    analytic = (1.0 / (2.0 * t)) * (-1.0 + (lam - e0) / math.sqrt((lam - e0) ** 2 - 4.0 * t))
    assert closed == pytest.approx(analytic, abs=1e-9)
    assert fd == pytest.approx(analytic, abs=1e-6)


def test_s_prime_zero_coupling_closed_form():
    p = ModelParams.uniform(6, 0.0, 0.3)
    cm = sample_couplings(p, 2)
    fd, closed = s_prime_at_e0(cm, p)
    lam = math.cosh(0.3) ** 2
    want = 1.0 / lam**2  # e0 = 0, t = 0: derivative of mean 1/(lam - e)
    assert closed == pytest.approx(want, abs=1e-12)
    assert fd == pytest.approx(want, abs=1e-8)


def test_s_prime_agreement_on_generic_instance():
    p = ModelParams.uniform(12, 0.4, 0.3)
    cm = sample_couplings(p, 19)
    fd, closed = s_prime_at_e0(cm, p)
    assert abs(fd - closed) < 1e-6


@pytest.mark.parametrize("n, t, seed", [(6, 0.0, 1), (6, 0.4, 2), (8, 0.4, 3), (10, 0.7, 4), (12, 0.4, 5)])
def test_s_prime_fd_is_the_divided_difference_of_the_exact_roots(n, t, seed):
    # S(E0 + 1e-5) and S(E0 - 1e-5) share all but their last 5 digits, so an
    # ulp of either root is 1e-11 of their float difference over 2e-5; the
    # parts of them below their last bits keep the difference to a few ulps
    p = ModelParams.uniform(n, t, 0.3)
    cm = sample_couplings(p, seed)
    op = build_deformed(magnetizations(cm, p), p)
    e_plus, e_minus = op.e0 + 1e-5, op.e0 - 1e-5
    roots = [
        exact_trace_root(op.lambda_diag, t, e, self_consistent_s(op.lambda_diag, t, e))
        for e in (e_plus, e_minus)
    ]
    want = float((roots[0] - roots[1]) / (Fraction(e_plus) - Fraction(e_minus)))
    fd, _ = s_prime_at_e0(cm, p)
    assert abs(fd - want) <= 4 * math.ulp(want), (fd, want)


def test_spectral_margin_positive_at_high_temperature():
    p = ModelParams.uniform(12, 0.25, 0.0)
    cm = sample_couplings(p, 23)
    eigmin, e0 = spectral_margin(cm, p)
    assert e0 == pytest.approx(-0.25, abs=1e-12)
    assert eigmin > e0


def test_tables_can_be_injected_everywhere():
    p = ModelParams.uniform(10, 0.4, 0.3)
    cm = sample_couplings(p, 29)
    tabs = gibbs_tables(cm, p)
    assert resolvent_error(cm, p, tables=tabs) == resolvent_error(cm, p)
    assert spectral_margin(cm, p, tables=tabs) == spectral_margin(cm, p)
    assert s_prime_at_e0(cm, p, tables=tabs) == s_prime_at_e0(cm, p)
