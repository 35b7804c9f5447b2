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
* ``two_point``: m_jk at fixed clamped spin, relative to its cavity value
* ``product``:   m_k * m_jk at fixed clamped spin, relative to cavity

The clamped row enters the reduced system only through the effective fields,
so one enumeration context (couplings fixed) serves the whole grid: the
fields of every grid point form one stack, enumerated in a single batched
pass per clamped spin.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gibbs import (
    BlockEnumerator,
    ReducedSpec,
    _gray_moments,
    _RawMoments,
    _local_index,
    _reduce_system,
    magnetizations,
)
from .model import CouplingPath, ModelParams

_VARIANTS = ("pair", "two_point", "product")


class _Kahan:
    """Compensated accumulator; many small increments must not lose bits."""

    __slots__ = ("total", "carry")

    def __init__(self):
        self.total = 0.0
        self.carry = 0.0

    def add(self, x: float) -> None:
        y = x - self.carry
        t = self.total + y
        self.carry = (t - self.total) - y
        self.total = t


@dataclass
class ItoCheckConfig:
    """Which decomposition to check, for which sites, on how fine a grid."""

    clamped_site: int
    target_site: int
    steps: int
    clamped_spin: int = 1
    second_site: int | None = None
    variant: str = "pair"
    reduced: ReducedSpec = field(default_factory=ReducedSpec)

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")
        if self.clamped_spin not in (-1, 1):
            raise ValueError("clamped_spin must be +-1")
        sites = {self.clamped_site, self.target_site}
        if self.variant != "pair":
            if self.second_site is None:
                raise ValueError(f"variant {self.variant!r} needs second_site")
            sites.add(self.second_site)
        needed = 3 if self.variant != "pair" else 2
        if len(sites) != needed:
            raise ValueError("check sites must be distinct")
        if sites & self.reduced.excluded():
            raise ValueError("check sites must not be clamped or removed by the ambient spec")


class _RowFlowScan:
    """Enumeration context along one Brownian row, couplings frozen elsewhere.

    Clamping site i leaves the active coupling block constant along the
    path; only the effective fields move, by sigma_i times the row values.
    So one stacked pass per clamped spin covers every grid point at once.
    """

    def __init__(self, path: CouplingPath, params: ModelParams, i: int,
                 ambient: ReducedSpec, engine: str):
        if path.n != params.n:
            raise ValueError(f"path size {path.n} != params n {params.n}")
        terminal = path.terminal()
        active, g_act, h_plus = _reduce_system(terminal, params, ambient.with_clamped(i, +1))
        self.active = active
        self.base_h = h_plus - terminal.entries[active, i]
        rows, increments = path.row_path(i)
        self.rows = rows[:, active]
        # C order: a strided BLAS dot sums in another order than a
        # contiguous one, and the martingale increments are such dots
        self.increments = np.ascontiguousarray(increments[:, active])
        self.g_act = g_act
        self._ctx = BlockEnumerator(g_act) if engine == "block" else None

    def local(self, site: int) -> int:
        return _local_index(self.active, site)

    def stack(self, spin: int, cols=()):
        """Raw moments at every grid point (leading axis) with site i at ``spin``."""
        fields = self.base_h + spin * self.rows
        if self._ctx is not None:
            return self._ctx.moments(fields, want_pair=False, cols=cols)
        # the gray engine stays a per-point loop: the reference the tests use
        points = [_gray_moments(self.g_act, h, want_pair=False, cols=cols) for h in fields]
        return _RawMoments(
            np.array([p.log_z for p in points]),
            np.array([p.mag for p in points]),
            None,
            {},
            {key: np.array([p.cols[key] for p in points]) for key in cols},
        )


def ito_decomposition_trace(
    path: CouplingPath,
    cfg: ItoCheckConfig,
    params: ModelParams,
    engine: str = "block",
) -> dict:
    """Full per-grid-point record of one decomposition check.

    Returns arrays over the grid: left-hand side, partial martingale and
    drift sums, the per-segment increments, and the terminal residual
    |LHS(t) - LHS(0) - (martingale + drift)|.  A single-point path (time 0)
    is the degenerate case where both sides are empty and the residual is
    exactly zero.
    """
    segs = path.steps
    if segs == 0:
        z = np.zeros(1)
        return {
            "s": np.array(path.grid),
            "lhs": z.copy(),
            "martingale": z.copy(),
            "drift": z.copy(),
            "martingale_increments": np.zeros(0),
            "drift_increments": np.zeros(0),
            "residual": 0.0,
        }
    if segs < 2:
        raise ValueError(f"path must have at least 2 steps, got {segs}")

    scan = _RowFlowScan(path, params, cfg.clamped_site, cfg.reduced, engine)
    lhs, mart_vec, drift_vec = _integrands(scan, cfg)
    # Ito convention: integrands at the left endpoint of every segment; one
    # BLAS dot per segment
    mart_inc = (mart_vec[:-1, None, :] @ scan.increments[:, :, None])[:, 0, 0]
    drift_inc = -np.sum(drift_vec[:-1], axis=1) * np.diff(path.grid) / params.n

    # compensated partial sums, accumulated strictly in grid order
    mart_acc, drift_acc = _Kahan(), _Kahan()
    mart_partial = [0.0]
    drift_partial = [0.0]
    for dm, dd in zip(mart_inc.tolist(), drift_inc.tolist()):
        mart_acc.add(dm)
        drift_acc.add(dd)
        mart_partial.append(mart_acc.total)
        drift_partial.append(drift_acc.total)

    residual = abs(lhs[-1] - lhs[0] - (mart_acc.total + drift_acc.total))
    return {
        "s": np.array(path.grid),
        "lhs": lhs,
        "martingale": np.array(mart_partial),
        "drift": np.array(drift_partial),
        "martingale_increments": mart_inc,
        "drift_increments": drift_inc,
        "residual": float(residual),
    }


def _integrands(scan: _RowFlowScan, cfg: ItoCheckConfig):
    """LHS values and per-site integrand vectors at every grid point.

    Returns the LHS over the grid, shape (steps + 1,), and the martingale
    and drift integrands, shape (steps + 1, active sites).  The martingale
    vector multiplies the row increments dg_il; the drift vector is summed
    and multiplied by -ds/n (the positive product-rule cross term enters
    with its sign already folded in).  Everything is in active-local
    coordinates; centering the raw moment columns yields the diagonal
    conventions m_jj = 1 - m_j^2 and m_jkj = -2 m_j m_jk for free.
    """
    jl = scan.local(cfg.target_site)
    if cfg.variant == "pair":
        up = scan.stack(+1, cols=[(jl,)])
        dn = scan.stack(-1, cols=[(jl,)])
        pc_up = up.cols[(jl,)] - up.mag[:, jl, None] * up.mag
        pc_dn = dn.cols[(jl,)] - dn.mag[:, jl, None] * dn.mag
        lhs = 0.5 * (up.mag[:, jl] - dn.mag[:, jl])
        eps_col = 0.5 * (pc_up + pc_dn)
        delta_prod = 0.5 * (up.mag * pc_up - dn.mag * pc_dn)
        return lhs, eps_col, delta_prod

    kl = scan.local(cfg.second_site)
    spin = cfg.clamped_spin
    raw = scan.stack(spin, cols=[(jl,), (kl,), (jl, kl)])
    m = raw.mag
    mj, mk = m[:, jl, None], m[:, kl, None]
    rj, rk, rt = raw.cols[(jl,)], raw.cols[(kl,)], raw.cols[(jl, kl)]
    raw_jk = rj[:, kl, None]
    pj = rj - mj * m
    pk = rk - mk * m
    trip = rt - mj * rk - mk * rj - m * raw_jk + 2.0 * mj * mk * m
    pjk = raw_jk - mj * mk
    if cfg.variant == "two_point":
        return pjk[:, 0], spin * trip, m * trip + pj * pk
    # product variant: X = m_k, Y = m_jk, track d(XY)
    lhs = mk * pjk
    mart = spin * (pjk * pk + mk * trip)
    drift = m * pjk * pk + mk * (m * trip + pj * pk) - pk * trip
    return lhs[:, 0], mart, drift


def ito_decomposition_residual(
    path: CouplingPath,
    cfg: ItoCheckConfig,
    params: ModelParams,
    engine: str = "block",
) -> float:
    """Terminal residual |LHS - (martingale sum + drift sum)| of the check."""
    return ito_decomposition_trace(path, cfg, params, engine)["residual"]


def cavity_difference_path(
    path: CouplingPath,
    params: ModelParams,
    i: int,
    j: int,
    clamped_spin: int = 1,
    engine: str = "block",
) -> np.ndarray:
    """Trajectory of m_j^{[i]}(s) - m_j^{(i)} along the row-i Brownian flow.

    The cavity reference m_j^{(i)} never sees row i, so it is a constant along
    the path; at s = 0 the clamped and cavity measures coincide exactly and
    the difference vanishes.  The terminal square of this trajectory is the
    quantity whose disorder average decays like 1/n.
    """
    if i == j:
        raise ValueError("sites must be distinct")
    if clamped_spin not in (-1, 1):
        raise ValueError("clamped_spin must be +-1")
    scan = _RowFlowScan(path, params, i, ReducedSpec(), engine)
    jl = scan.local(j)
    cavity = float(
        magnetizations(path.terminal(), params, ReducedSpec(removed={i}), engine)[j]
    )
    return scan.stack(clamped_spin).mag[:, jl] - cavity
