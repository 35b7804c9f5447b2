"""Replica-symmetric fixed point, AT criterion, and TAP residuals.

The analytic side evaluates Gaussian expectations with Gauss-Hermite
quadrature: the overlap map f(x) = E tanh^2(h + sqrt(t x) Z), its derivative,
the fixed point q = f(q), the AT value E t sech^4(h + sqrt(t q) Z), and the
leading-order prediction for E m_ij^2.

The residual side confronts four self-consistent equations with exact Gibbs
data: the cavity (hierarchical) forms, which use leave-one-out magnetizations
and carry no reaction term, and the classical forms, which use full-system
quantities plus the Onsager correction t (1 - q_N) m_i.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import gibbs
from .errors import BranchError, NonConvergenceError, NumericalError
from .gibbs import magnetizations, pair_column
from .model import CouplingMatrix, ModelParams, _check_sites


def _sech(y: np.ndarray) -> np.ndarray:
    """Overflow-free 1/cosh: 2 e^{-|y|} / (1 + e^{-2|y|})."""
    a = np.exp(-np.abs(y))
    return 2.0 * a / (1.0 + a * a)


# Gauss-Hermite node count of every Gaussian expectation unless a caller sets one.
QUAD_NODES = 61


@functools.cache
def gauss_hermite(nodes: int) -> tuple:
    """Read-only points z and weights w with E g(Z) = w @ g(z) for a standard Gaussian Z.

    numpy's ``nodes``-point Gauss-Hermite rule mapped by z = sqrt(2) x and
    w / sqrt(pi).  numpy 2.4 builds finite positive weights only up to 370
    nodes: past that they underflow to 0, then turn NaN.  Such a count is
    rejected by name, and numpy's own warnings about it are kept quiet.
    """
    if nodes < 1:
        raise ValueError(f"nodes must be >= 1, got {nodes}")
    with np.errstate(all="ignore"):
        x, w = np.polynomial.hermite.hermgauss(nodes)
    points, weights = np.sqrt(2.0) * x, w / np.sqrt(np.pi)
    if not (np.isfinite(points).all() and np.isfinite(weights).all() and (weights > 0).all()):
        raise ValueError(
            f"numpy cannot build a {nodes}-node Gauss-Hermite rule: "
            "its weights are not all finite and positive"
        )
    points.flags.writeable = weights.flags.writeable = False
    return points, weights


def f_map(x: float, t: float, h: float, nodes: int = QUAD_NODES) -> float:
    """Overlap response map f(x) = E tanh^2(h + sqrt(t x) Z)."""
    if not 0 <= x < math.inf:
        raise ValueError(f"x must be >= 0 and finite, got {x}")
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be >= 0 and finite, got {t}")
    if not math.isfinite(h):
        raise ValueError(f"h must be finite, got {h}")
    z, w = gauss_hermite(nodes)
    y = h + math.sqrt(t * x) * z
    return float(w @ np.tanh(y) ** 2)


# Plain iterations of ``solve_q`` before its bisection fallback.
_MAX_ITER = 10_000


def _last_true(holds, lo: float, hi: float) -> float:
    """Bisect [lo, hi] for the last point where ``holds``, true at lo and false past it.

    Returns the lo of 200 halvings, bit for bit: it stops at the first
    halving that moves neither end, as every later one repeats it.  A zero
    midpoint never stops it, since -0.0 == 0.0 hides a change of sign.
    """
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        step = (mid, hi) if holds(mid) else (lo, mid)
        if step == (lo, hi) and mid != 0.0:
            break
        lo, hi = step
    return lo


def solve_q(t: float, h: float, nodes: int = QUAD_NODES, tol: float = 1e-12) -> float:
    """Fixed point q = f(q) by plain iteration from q_0 = tanh^2(h).

    Uniqueness of the fixed point is guaranteed for t < 1 (|f'| <= t); larger
    t is accepted but converges to whichever fixed point the iteration finds
    (q = 0 at h = 0).  Falls back to bisection on q - f(q) over [0, 1] when
    ``_MAX_ITER`` iterations have not converged, and raises rather than
    returning a partially converged value.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if not (math.isfinite(t) and math.isfinite(h)):
        raise ValueError(f"t and h must be finite, got t={t}, h={h}")
    q = math.tanh(h) ** 2
    for _ in range(_MAX_ITER):
        fq = f_map(q, t, h, nodes)
        if abs(q - fq) <= tol:
            return q
        q = fq
    # Bisection fallback on g(q) = q - f(q): g(0) = -f(0) <= 0, as f is a
    # positive-weighted mean of tanh^2, and g(1) > 0.
    q = _last_true(lambda x: x - f_map(x, t, h, nodes) <= 0, 0.0, 1.0)
    if not abs(q - f_map(q, t, h, nodes)) <= tol:
        raise NonConvergenceError(
            f"fixed point not reached at t={t}, h={h}: residual {abs(q - f_map(q, t, h, nodes)):.3e}"
        )
    return q


def at_value(t: float, h: float, q: float, nodes: int = QUAD_NODES) -> float:
    """AT criterion value E t sech^4(sqrt(t q) Z + h); below 1 means replica-symmetric."""
    if not 0 <= q <= 1:
        raise ValueError(f"q must be in [0, 1], got {q}")
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be >= 0 and finite, got {t}")
    if not math.isfinite(h):
        raise ValueError(f"h must be finite, got {h}")
    return t * _sech4_mean(t, h, q, nodes)


def _sech4_mean(t: float, h: float, q: float, nodes: int) -> float:
    """E sech^4(h + sqrt(t q) Z)."""
    z, w = gauss_hermite(nodes)
    y = h + math.sqrt(t * q) * z
    return float(w @ _sech(y) ** 4)


def predicted_mij_sq(
    t: float,
    h: float,
    n: int,
    nodes: int = QUAD_NODES,
) -> float:
    """Leading-order prediction of E m_ij^2 for a pair of sites.

    (t/n) [1 - t E sech^4]^{-1} [E sech^4]^2 evaluated at the fixed point q.
    The prefactor is singular at the AT line; the computation fails
    explicitly there.  Quadrature adequacy is certified by recomputing with
    2 * nodes, which must agree to 1e-10.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")

    def value(count: int) -> float:
        q = solve_q(t, h, count)
        es4 = _sech4_mean(t, h, q, count)
        denom = 1.0 - t * es4
        if denom <= 0:
            raise BranchError(
                f"prediction undefined at/below the AT line: 1 - t E sech^4 = {denom:.3e}"
            )
        return (t / n) * es4**2 / denom

    v = value(nodes)
    v2 = value(2 * nodes)
    if abs(v - v2) > 1e-10:
        raise NumericalError(
            f"quadrature not converged: node-doubling delta {abs(v - v2):.3e}"
        )
    return v


@dataclass
class ResidualReport:
    """Residual of one self-consistency equation at every site, in site order."""

    residuals: np.ndarray

    @property
    def mean_square(self) -> float:
        return float(np.mean(self.residuals**2))


def htap1_residuals(cm: CouplingMatrix, params: ModelParams) -> ResidualReport:
    """Cavity-form magnetization residuals m_i - tanh(h_i + sum_j g_ij m_j^{(i)}).

    m^{(i)} is the magnetization vector with particle i removed; no reaction
    term appears in this form.  One stacked enumeration gives every m^{(i)}
    (``gibbs.cavity_magnetizations``), row i in the order of the sites other
    than i (row i of ``others``).
    """
    full_m = magnetizations(cm, params)
    n, g = params.n, cm.entries
    others = np.arange(n - 1) + (np.arange(n - 1) >= np.arange(n)[:, None])
    cav = gibbs.cavity_magnetizations(cm, params)
    args = params.field + np.einsum("ij,ij->i", g[np.arange(n)[:, None], others], cav)
    return ResidualReport(full_m - np.tanh(args))


def _check_pair(n: int, i: int, j: int) -> None:
    _check_sites(n, i, j)
    if i == j:
        raise ValueError("pair residual needs i != j")


def htap2_residual(cm: CouplingMatrix, params: ModelParams, i: int, j: int) -> float:
    """Cavity-form pair residual for sites i != j.

    m_ij - (1 - tanh^2(h_i + sum_k g_ik m_k^{(i)})) * sum_l g_il m_lj^{(i)},
    where the l = j term uses the diagonal convention m_jj = 1 - m_j^2.  The
    cavity of i is the system of the n - 1 other sites, in which j sits one
    place lower when j > i; clamping j gives the column of each measure.
    """
    _check_pair(params.n, i, j)
    _, col = pair_column(cm, params, j)
    others = np.delete(np.arange(params.n), i)
    g, g_i = cm.entries[np.ix_(others, others)], cm.entries[i, others]
    m_cav, (col_cav,), _ = gibbs.clamped_moments(g, params.field[others], (j - (j > i),))
    arg = params.field[i] + g_i @ m_cav[0]
    return float(col[i] - (1.0 - math.tanh(arg) ** 2) * (g_i @ col_cav[0]))


def tap1_residuals(cm: CouplingMatrix, params: ModelParams) -> ResidualReport:
    """Classical TAP residuals m_i - tanh(h_i + sum_j g_ij m_j - t (1 - q_N) m_i).

    Everything on the right comes from the full-system magnetizations, with
    q_N = n^{-1} sum_k m_k^2; one enumeration pass without the pair matrix.
    """
    m = magnetizations(cm, params)
    onsager = params.t * (1.0 - float(np.sum(m**2)) / params.n)
    args = params.field + cm.entries @ m - onsager * m
    return ResidualReport(np.array([m[i] - math.tanh(args[i]) for i in range(params.n)]))


def tap2_residual(cm: CouplingMatrix, params: ModelParams, i: int, j: int) -> float:
    """Classical TAP pair residual for sites i != j.

    m_ij - (1 - m_i^2) (sum_k g_ik m_kj + (2t/n) (M m)_j m_i - t (1 - q_N) m_ij)
    with M the full pair matrix (diagonal 1 - m_k^2), of which it reads
    column j (``pair_column``), m the magnetizations and
    q_N = n^{-1} sum_k m_k^2.
    """
    _check_pair(params.n, i, j)
    m, col = pair_column(cm, params, j)
    q_n = float(np.sum(m**2)) / params.n
    inner = (
        float(cm.entries[i] @ col)
        + (2.0 * params.t / params.n) * float(col @ m) * m[i]
        - params.t * (1.0 - q_n) * col[i]
    )
    return float(col[i] - (1.0 - m[i] ** 2) * inner)
