"""Ito decompositions of clamped observables along Brownian coupling rows.

A single row i of the couplings is viewed as a Brownian motion of speed 1/n
on [0, t] while every other coupling stays frozen at its terminal value.
For observables of the measure with i clamped, the change from time 0 to t
equals a stochastic integral (evaluated at left endpoints, Ito convention)
plus a drift integral.  Discretizing both on the path grid and evaluating
every integrand by exact enumeration turns the decomposition into a residual
that must shrink under grid refinement.

Three decompositions are covered:

* ``pair``:      delta_i m_j           (half-difference over the clamped spin)
* ``two_point``: m_jk with the clamped spin at +1, relative to its cavity value
* ``product``:   m_k * m_jk with the clamped spin at +1, relative to cavity

The clamped row enters the reduced system only through the effective fields,
so its couplings stay fixed along the path: the fields of every grid point,
for each clamped spin the check reads, form one stack, and one
``gibbs.clamped_moments`` call enumerates it with j, or j and k, clamped too,
which gives the integrands' centred two- and three-point moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gibbs
from .model import CouplingPath, ModelParams, _check_sites

_VARIANTS = ("pair", "two_point", "product")


@dataclass
class ItoCheckConfig:
    """Which decomposition to check, and for which sites; the grid is the path's."""

    clamped_site: int
    target_site: int
    second_site: int | None = None
    variant: str = "pair"

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        sites = {self.clamped_site, self.target_site}
        if self.variant != "pair":
            if self.second_site is None:
                raise ValueError(f"variant {self.variant!r} needs second_site")
            sites.add(self.second_site)
        needed = 3 if self.variant != "pair" else 2
        if len(sites) != needed:
            raise ValueError("check sites must be distinct")


def ito_decomposition_trace(
    path: CouplingPath,
    cfg: ItoCheckConfig,
    params: ModelParams,
) -> dict:
    """Full per-grid-point record of one decomposition check.

    Returns arrays over the grid: left-hand side, partial martingale and
    drift sums, the per-segment increments, the cavity difference
    m_j^{[i]}(s) - m_j^{(i)} of the target site j with the clamped site i at
    +1, and the terminal residual of ``ito_decomposition_residual``, which
    reads the increments' exact totals, not the compensated partial sums.
    The cavity reference m_j^{(i)} never sees row i: at s = 0 the row
    vanishes, so the clamped and cavity measures coincide and the s = 0
    point of the +1 grid is that reference, making the difference exactly 0
    there.  Its terminal square is the quantity whose disorder average
    decays like 1/n.  A single-point path (time 0) has no increments, so
    both sides are empty and the residual is exactly zero; a one-step path
    is rejected.
    """
    lhs, mart_inc, drift_inc, m_up = _increments(path, cfg, params)
    # compensated (Kahan) partial sums, accumulated strictly in grid order;
    # many small increments must not lose bits
    mart, mart_carry, drift, drift_carry = 0.0, 0.0, 0.0, 0.0
    mart_partial = [0.0]
    drift_partial = [0.0]
    for dm, dd in zip(mart_inc.tolist(), drift_inc.tolist()):
        y = dm - mart_carry
        total = mart + y
        mart_carry = (total - mart) - y
        mart = total
        y = dd - drift_carry
        total = drift + y
        drift_carry = (total - drift) - y
        drift = total
        mart_partial.append(mart)
        drift_partial.append(drift)

    return {
        "s": np.array(path.grid),
        "lhs": lhs,
        "martingale": np.array(mart_partial),
        "drift": np.array(drift_partial),
        "martingale_increments": mart_inc,
        "drift_increments": drift_inc,
        "cavity_difference": m_up - m_up[0],
        "residual": _residual(lhs, mart_inc, drift_inc),
    }


def _increments(path: CouplingPath, cfg: ItoCheckConfig, params: ModelParams):
    """LHS over the grid, the martingale and drift increment of every
    segment, and the target's magnetization with the clamped spin at +1."""
    if path.steps == 1:
        raise ValueError("path must have at least 2 steps, got 1")

    pair = cfg.variant == "pair"
    clamp, moments, increments = _row_moments(
        path, params, cfg.clamped_site, (+1, -1) if pair else (+1,),
        (cfg.target_site,) if pair else (cfg.target_site, cfg.second_site),
    )
    lhs, mart_vec, drift_vec, m_up = _integrands(cfg.variant, clamp, *moments)
    # Ito convention: integrands at the left endpoint of every segment; one
    # BLAS dot per segment
    mart_inc = (mart_vec[:-1, None, :] @ increments[:, :, None])[:, 0, 0]
    drift_inc = -np.sum(drift_vec[:-1], axis=1) * np.diff(path.grid) / params.n
    return lhs, mart_inc, drift_inc, m_up


def _row_moments(path: CouplingPath, params: ModelParams, i: int, spins, sites):
    """One ``gibbs.clamped_moments`` call along row i, couplings frozen
    elsewhere: on the cavity of i, the n - 1 other sites, the coupling block
    stays constant and only the fields move, from h by sigma_i times the
    row.  It clamps ``sites`` at every grid point for each sigma_i in
    ``spins``, one whole grid after the other.  Returns the cavity-local
    ``sites``, the moments and the row increments over the cavity."""
    if path.n != params.n:
        raise ValueError(f"path size {path.n} != params n {params.n}")
    _check_sites(params.n, i, *sites)
    others = np.delete(np.arange(params.n), i)
    if others.size > gibbs.ENUM_CAP:
        raise ValueError(f"{others.size} active sites exceed enum_cap={gibbs.ENUM_CAP}")
    # the cavity fields are h exactly: no row of i is added and taken off
    g_cav, base_h = path.terminal().entries[np.ix_(others, others)], params.field[others]
    # C order: a strided BLAS dot sums in another order than a contiguous
    # one, and the martingale increments are such dots
    increments = path.cavity_increments(i)
    rows = np.zeros((path.grid.size, others.size))
    np.cumsum(increments, axis=0, out=rows[1:])
    clamp = tuple(site - (site > i) for site in sites)
    # in place, as in gibbs.clamped_moments; the row path goes once they are built
    fields = np.empty((len(spins), *rows.shape))
    for grid, spin in zip(fields, spins):
        np.multiply(rows, spin, out=grid)
        grid += base_h
    del rows
    moments = gibbs.clamped_moments(g_cav, fields.reshape(-1, others.size), clamp)
    return clamp, moments, increments


def _residual(lhs, mart_inc, drift_inc) -> float:
    """The residual of ``ito_decomposition_residual``."""
    mart, drift = math.fsum(mart_inc.tolist()), math.fsum(drift_inc.tolist())
    return float(abs(lhs[-1] - lhs[0] - (mart + drift)))


def _integrands(variant: str, clamp: tuple, m, pairs, triple):
    """LHS values and per-site integrand vectors at every grid point, from
    the moments of ``_row_moments`` with the target site, or the target and
    second site, clamped (``clamp``, cavity-local).

    Returns the LHS over the grid, shape (steps + 1,), the martingale and
    drift integrands, shape (steps + 1, n - 1 cavity sites), and the
    magnetization of the target site with the clamped spin at +1, shape
    (steps + 1,).  The martingale vector multiplies the row increments
    dg_il; the drift vector is summed and multiplied by -ds/n (the positive
    product-rule cross term enters with its sign already folded in).  The
    diagonals read m_jj = 1 - m_j^2 and m_jkj = -2 m_j m_jk.
    """
    if variant == "pair":
        (jl,), (pc,) = clamp, pairs
        (up, dn), (pc_up, pc_dn) = np.split(m, 2), np.split(pc, 2)
        lhs = 0.5 * (up[:, jl] - dn[:, jl])
        eps_col = 0.5 * (pc_up + pc_dn)
        delta_prod = 0.5 * (up * pc_up - dn * pc_dn)
        return lhs, eps_col, delta_prod, up[:, jl]

    (jl, kl), (pj, pk) = clamp, pairs
    mk, pjk = m[:, kl, None], pj[:, kl, None]
    if variant == "two_point":
        return pjk[:, 0], triple, m * triple + pj * pk, m[:, jl]
    # product variant: X = m_k, Y = m_jk, track d(XY)
    lhs = mk * pjk
    mart = pjk * pk + mk * triple
    drift = m * pjk * pk + mk * (m * triple + pj * pk) - pk * triple
    return lhs[:, 0], mart, drift, m[:, jl]


def ito_decomposition_residual(
    path: CouplingPath,
    cfg: ItoCheckConfig,
    params: ModelParams,
) -> float:
    """Terminal residual |LHS(t) - LHS(0) - (martingale + drift)| of the
    check, each integral the ``math.fsum`` of its increments, rounded once."""
    lhs, mart_inc, drift_inc, _ = _increments(path, cfg, params)
    return _residual(lhs, mart_inc, drift_inc)

