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
from .gibbs import GibbsTables, gibbs_tables
from .model import CouplingMatrix, ModelParams

_COND_LIMIT = 1e12


@dataclass
class DeformedOperator:
    """Pieces of the deformed operator Lambda - t A - G evaluated at E0."""

    lambda_diag: np.ndarray
    rank_one: np.ndarray
    g: CouplingMatrix
    e0: float


def build_deformed(
    cm: CouplingMatrix,
    params: ModelParams,
    tables: GibbsTables | None = None,
    engine: str = "block",
) -> DeformedOperator:
    """Assemble Lambda, the rank-one part, and E0 from exact full-system tables."""
    tables = tables if tables is not None else gibbs_tables(cm, params, engine=engine)
    m = tables.m
    if np.any(np.abs(m) >= 1.0):
        # tanh saturates to exactly 1 in float64 once a local field passes ~19
        raise SingularOperatorError(
            "deformed operator needs |m_i| < 1 at every site (a magnetization saturated)"
        )
    lam = 1.0 / (1.0 - m**2)
    rank_one = (2.0 / params.n) * np.outer(m, m)
    e0 = -params.t * (1.0 - tables.q_n)
    return DeformedOperator(lambda_diag=lam, rank_one=rank_one, g=cm, e0=e0)


def resolvent_error(
    cm: CouplingMatrix,
    params: ModelParams,
    include_rank_one: bool = True,
    tables: GibbsTables | None = None,
    engine: str = "block",
) -> float:
    """Relative Frobenius error between M and the resolvent at E0.

    ||M - (Lambda - t A - G - E0)^{-1}||_F / ||M||_F.  The rank-one part A is
    included by default; the inverse is obtained by a direct solve, refused
    when the condition estimate exceeds 1e12.
    """
    tables = tables if tables is not None else gibbs_tables(cm, params, engine=engine)
    op = build_deformed(cm, params, tables)
    n = params.n
    d = np.diag(op.lambda_diag) - cm.entries - op.e0 * np.eye(n)
    if include_rank_one:
        d = d - params.t * op.rank_one
    cond = np.linalg.cond(d)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularOperatorError(f"operator condition estimate {cond:.3e} exceeds 1e12")
    resolvent = np.linalg.solve(d, np.eye(n))
    m_mat = tables.pair
    return float(np.linalg.norm(m_mat - resolvent) / np.linalg.norm(m_mat))


def self_consistent_s(
    lambda_diag: np.ndarray,
    t: float,
    e: float,
    tol: float = 1e-12,
    max_iter: int = 100_000,
) -> float:
    """Solve S = n^{-1} sum_i 1/(Lambda_ii - e - t S) on the real branch.

    Starts from the t = 0 value S0 = n^{-1} sum 1/(Lambda_ii - e) and iterates
    undamped, which follows the branch continuous in t.  Any nonpositive
    denominator means the real branch has been left (e is not safely below
    the spectrum) and raises.  Falls back to bisection if the plain iteration
    stalls near the edge.
    """
    lam = np.asarray(lambda_diag, dtype=np.float64)
    if lam.ndim != 1 or lam.size == 0:
        raise ValueError("lambda_diag must be a nonempty 1d sequence")
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if np.min(lam) - e <= 0:
        raise BranchError(f"energy {e} is not below the bare spectrum min {np.min(lam)}")

    def phi(s: float) -> float:
        denom = lam - e - t * s
        if np.min(denom) <= 0:
            raise BranchError(f"left the real branch at e={e} (denominator <= 0)")
        return float(np.mean(1.0 / denom))

    s = phi(0.0)
    for _ in range(max_iter):
        s_new = phi(s)
        if abs(s_new - s) <= 0.25 * tol:
            s = s_new
            break
        s = s_new
    if abs(s - phi(s)) <= tol:
        return s
    # Bisection on F(s) = s - phi(s): F < 0 between S0 and the physical root.
    lo = phi(0.0)
    hi = lo
    for _ in range(200):
        hi_try = 2.0 * hi + 1.0
        try:
            f_hi = hi_try - phi(hi_try)
        except BranchError:
            raise BranchError(
                f"no real self-consistent solution at e={e}; energy inside the spectrum"
            ) from None
        hi = hi_try
        if f_hi > 0:
            break
    else:
        raise NonConvergenceError("could not bracket the self-consistent trace")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid - phi(mid) <= 0:
            lo = mid
        else:
            hi = mid
    s = lo
    if abs(s - phi(s)) > tol:
        raise NonConvergenceError(
            f"self-consistent trace not converged at e={e}: residual {abs(s - phi(s)):.3e}"
        )
    return s


def s_prime_at_e0(
    cm: CouplingMatrix,
    params: ModelParams,
    step: float = 1e-5,
    tables: GibbsTables | None = None,
    engine: str = "block",
) -> tuple:
    """S'(E0) two ways: central finite difference and the closed form X/(1 - tX).

    X = n^{-1} sum_i M_ii(E0)^2 with M_ii(E0) = (Lambda_ii - E0 - t S(E0))^{-1}.
    Returns (finite_difference, closed_form); both are finite only while
    t X < 1.
    """
    if step <= 0:
        raise ValueError(f"step must be > 0, got {step}")
    tables = tables if tables is not None else gibbs_tables(cm, params, engine=engine)
    op = build_deformed(cm, params, tables)
    lam, e0, t = op.lambda_diag, op.e0, params.t
    s_plus = self_consistent_s(lam, t, e0 + step)
    s_minus = self_consistent_s(lam, t, e0 - step)
    fd = (s_plus - s_minus) / (2.0 * step)
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
    engine: str = "block",
) -> tuple:
    """(smallest eigenvalue of Lambda - t A - G, E0); E0 below the edge means
    the resolvent at E0 is well defined."""
    tables = tables if tables is not None else gibbs_tables(cm, params, engine=engine)
    op = build_deformed(cm, params, tables)
    d = np.diag(op.lambda_diag) - params.t * op.rank_one - cm.entries
    eigmin = float(np.linalg.eigvalsh(d)[0])
    return eigmin, op.e0
