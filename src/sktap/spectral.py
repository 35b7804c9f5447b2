"""Resolvent form of the correlation matrix and its self-consistent trace.

The exact pair-correlation matrix M (diagonal 1 - m_i^2) is compared to the
resolvent (Lambda - t A - G - E0)^{-1} of a deformed random matrix, where
Lambda_ii = (1 - m_i^2)^{-1}, A = (2/n) m m^T is a rank-one perturbation,
G are the couplings and E0 = -t (1 - q_n).  For real energies below the
spectral edge the normalized trace S(E) solves

    S(E) = n^{-1} sum_i 1 / (Lambda_ii - E - t S(E)),

whose derivative at E0 has the closed form X / (1 - t X) with
X = n^{-1} sum_i M_ii(E0)^2.  The derivative stays finite exactly while the
AT-type combination t X stays below 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BranchError, NonConvergenceError, SingularOperatorError
from .gibbs import GibbsTables, gibbs_tables, magnetizations
from .model import CouplingMatrix, ModelParams
from .tap import _last_true

_COND_LIMIT = 1e12


def _linalg(fn, *args):
    """``fn(*args)``, with numpy's ``LinAlgError`` raised as a ``SingularOperatorError``."""
    try:
        return fn(*args)
    except np.linalg.LinAlgError as exc:  # an exactly singular operator, say
        raise SingularOperatorError(f"{fn.__name__} of the deformed operator failed: {exc}") from exc


@dataclass
class DeformedOperator:
    """Pieces of the deformed operator Lambda - t A - G evaluated at E0."""

    lambda_diag: np.ndarray
    rank_one: np.ndarray
    e0: float


def build_deformed(m: np.ndarray, params: ModelParams) -> DeformedOperator:
    """Lambda, the rank-one part, and E0, with q_n = n^{-1} sum m_i^2, from the exact m."""
    if not np.all(np.abs(m) < 1.0):
        # tanh saturates to exactly 1 in float64 once a local field passes ~19;
        # a NaN m fails this test, where it would pass ``>= 1.0``
        raise SingularOperatorError(
            "deformed operator needs |m_i| < 1 at every site (a magnetization saturated or is NaN)"
        )
    lam = 1.0 / (1.0 - m**2)
    rank_one = (2.0 / params.n) * np.outer(m, m)
    e0 = -params.t * (1.0 - float(np.sum(m**2)) / params.n)
    return DeformedOperator(lambda_diag=lam, rank_one=rank_one, e0=e0)


def resolvent_error(
    cm: CouplingMatrix,
    params: ModelParams,
    tables: GibbsTables | None = None,
) -> float:
    """Relative Frobenius error between M and the resolvent at E0.

    ||M - (Lambda - t A - G - E0)^{-1}||_F / ||M||_F.  One direct solve gives
    the inverse, and the sample is refused when the 1-norm condition number
    kappa_1 = ||D||_1 ||D^{-1}||_1, read from that inverse, exceeds 1e12.
    """
    tables = tables if tables is not None else gibbs_tables(cm, params)
    op = build_deformed(tables.m, params)
    n = params.n
    d = np.diag(op.lambda_diag) - cm.entries - op.e0 * np.eye(n) - params.t * op.rank_one
    resolvent = _linalg(np.linalg.solve, d, np.eye(n))
    # the exact kappa_1 that LAPACK's xgecon estimates, with no second factorization
    cond = np.linalg.norm(d, 1) * np.linalg.norm(resolvent, 1)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularOperatorError(f"operator condition estimate {cond:.3e} exceeds 1e12")
    m_mat = tables.pair
    return float(np.linalg.norm(m_mat - resolvent) / np.linalg.norm(m_mat))


def self_consistent_s(lambda_diag: np.ndarray, t: float, e: float) -> float:
    """Solve S = n^{-1} sum_i 1/(Lambda_ii - e - t S) on the real branch.

    At t = 0 the trace is S0 = phi(0) = n^{-1} sum 1/(Lambda_ii - e).  For
    t > 0, two bisections solve it: below the cut (min Lambda - e) / t, phi
    rises and is convex, so F(S) = S - phi(S) has one peak, where
    phi'(S) = t n^{-1} sum 1/denominator^2 = 1.  A real solution exists only
    if F(peak) >= 0, and the branch continuous in t is the root of F on
    [S0, peak], as F(S0) <= 0.  Any nonpositive denominator means the real
    branch has been left (e is not safely below the spectrum) and raises.
    The result satisfies |S - phi(S)| <= 1e-12, or the call raises.
    """
    lam = np.asarray(lambda_diag, dtype=np.float64)
    if lam.ndim != 1 or lam.size == 0 or not np.all(np.isfinite(lam)):
        raise ValueError("lambda_diag must be a nonempty 1d sequence of finite values")
    if not (np.isfinite(t) and t >= 0 and np.isfinite(e)):
        raise ValueError(f"t must be finite and >= 0 and e finite, got t={t}, e={e}")
    if np.min(lam) - e <= 0:
        raise BranchError(f"energy {e} is not below the bare spectrum min {np.min(lam)}")

    def phi(s: float) -> float:
        denom = lam - e - t * s
        if np.min(denom) <= 0:
            raise BranchError(f"left the real branch at e={e} (denominator <= 0)")
        return float(np.mean(1.0 / denom))

    def rising(s: float) -> bool:
        # phi'(s) < 1, tested only while every denominator is positive
        denom = lam - e - t * s
        return bool(np.min(denom) > 0 and t * np.mean(denom**-2.0) < 1.0)

    s0 = phi(0.0)
    if t == 0:
        return s0
    peak = _last_true(rising, s0, (np.min(lam) - e) / t)
    if peak - phi(peak) < 0:
        raise BranchError(f"no real self-consistent solution at e={e}; energy inside the spectrum")
    s = _last_true(lambda x: x - phi(x) <= 0, s0, peak)
    if not abs(s - phi(s)) <= 1e-12:
        raise NonConvergenceError(
            f"self-consistent trace not converged at e={e}: residual {abs(s - phi(s)):.3e}"
        )
    return s


def _below_last_bit(lam: np.ndarray, t: float, e: float, s: float) -> float:
    """The root's digits past the float root s: -F(s)/F'(s), F(s) = s - phi(s) summed exactly."""
    from fractions import Fraction  # here: only s_prime_at_e0 needs it, not every command

    shift = Fraction(e) + Fraction(t) * Fraction(s)
    excess = Fraction(s) - sum(1 / (Fraction(v) - shift) for v in lam.tolist()) / lam.size
    return -float(excess) / (1.0 - t * float(np.mean((lam - e - t * s) ** -2.0)))


def s_prime_at_e0(
    cm: CouplingMatrix,
    params: ModelParams,
    tables: GibbsTables | None = None,
) -> tuple:
    """S'(E0) two ways: central finite difference and the closed form X/(1 - tX).

    X = n^{-1} sum_i M_ii(E0)^2 with M_ii(E0) = (Lambda_ii - E0 - t S(E0))^{-1}.
    Returns (finite_difference, closed_form); both are finite only while
    t X < 1.  The difference steps E0 by 1e-5 either way; its two roots
    share all but 5 digits, so each brings its digits past its last bit
    (``_below_last_bit``), over the float gap of the energies.  Reads only
    m, from ``tables`` if given.
    """
    step = 1e-5
    m = tables.m if tables is not None else magnetizations(cm, params)
    op = build_deformed(m, params)
    lam, e0, t = op.lambda_diag, op.e0, params.t
    e_plus, e_minus = e0 + step, e0 - step
    s_plus, s_minus = self_consistent_s(lam, t, e_plus), self_consistent_s(lam, t, e_minus)
    below = _below_last_bit(lam, t, e_plus, s_plus) - _below_last_bit(lam, t, e_minus, s_minus)
    fd = ((s_plus - s_minus) + below) / (e_plus - e_minus)
    s0 = self_consistent_s(lam, t, e0)
    m_diag = 1.0 / (lam - e0 - t * s0)
    x = float(np.mean(m_diag**2))
    if 1.0 - t * x <= 0:
        raise BranchError(f"closed-form derivative diverges: 1 - t X = {1.0 - t * x:.3e}")
    return float(fd), float(x / (1.0 - t * x))


def spectral_margin(
    cm: CouplingMatrix,
    params: ModelParams,
    tables: GibbsTables | None = None,
) -> tuple:
    """(smallest eigenvalue of Lambda - t A - G, E0); E0 below the edge means
    the resolvent at E0 is well defined.  Reads only m, from ``tables`` if given."""
    m = tables.m if tables is not None else magnetizations(cm, params)
    op = build_deformed(m, params)
    d = np.diag(op.lambda_diag) - params.t * op.rank_one - cm.entries
    eigmin = float(_linalg(np.linalg.eigvalsh, d)[0])
    return eigmin, op.e0
