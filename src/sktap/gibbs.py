"""Exact Gibbs observables of SK-type systems by full state enumeration.

Supports the reduced measures obtained by clamping a set of spins to fixed
values and/or removing a set of particles entirely.  Removal is implemented
by masking (couplings and fields of removed sites never enter any sum), so
site labels stay stable across the full, clamped and cavity measures.

Two enumeration engines compute identical quantities:

* ``block``: the production engine.  Sites are split into a low and a high
  block; the 2^n state space becomes a (2^n1 x 2^n2) grid whose log-weights
  are assembled with dense linear algebra and reduced with a single global
  log-sum-exp shift.  Cost is O(2^n * n) and fully vectorized.
* ``gray``: a reference engine that walks the hypercube in Gray-code order,
  updating the energy in O(n) per single-spin flip.  It shares no reduction
  code with ``block`` and exists to cross-validate it.

All weights are handled as exp(H - max H), so partition sums stay finite for
|H| up to the exponent range of float64 (~700).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np

from .model import CouplingMatrix, ModelParams

Observable = Callable[[CouplingMatrix, ModelParams, "ReducedSpec"], float]


@dataclass
class ReducedSpec:
    """Clamped spins (site -> value in {-1,+1}) and removed particles.

    An empty spec denotes the full Gibbs measure.  Clamped sites contribute
    their couplings to the effective fields of the remaining sites; removed
    sites contribute nothing anywhere.
    """

    clamped: dict[int, int] = field(default_factory=dict)
    removed: frozenset = frozenset()

    def __post_init__(self):
        self.removed = frozenset(self.removed)
        for i, s in self.clamped.items():
            if s not in (-1, 1):
                raise ValueError(f"clamped spin at site {i} must be +-1, got {s}")
        if set(self.clamped) & self.removed:
            raise ValueError("clamped and removed sites must be disjoint")

    def validate(self, n: int) -> None:
        for i in set(self.clamped) | self.removed:
            if not 0 <= i < n:
                raise ValueError(f"site {i} out of range for n={n}")

    def excluded(self) -> set:
        return set(self.clamped) | set(self.removed)

    def with_clamped(self, i: int, spin: int) -> "ReducedSpec":
        if i in self.clamped or i in self.removed:
            raise ValueError(f"site {i} is already clamped or removed")
        return ReducedSpec({**self.clamped, i: spin}, self.removed)

    def with_removed(self, i: int) -> "ReducedSpec":
        if i in self.clamped or i in self.removed:
            raise ValueError(f"site {i} is already clamped or removed")
        return ReducedSpec(dict(self.clamped), self.removed | {i})


@dataclass
class GibbsTables:
    """Exact observables of one (possibly reduced) Gibbs measure.

    ``m`` holds tanh-bounded magnetizations; clamped sites carry their fixed
    value, removed sites are NaN.  ``pair`` is the truncated correlation
    matrix with the diagonal convention pair[i, i] = 1 - m_i^2 (the variance
    of sigma_i); rows/columns of removed sites are NaN and entries involving
    clamped sites are 0.  ``q_n`` is the overlap sum over active sites of
    m_k^2, divided by n ("full" normalization) or by the active count.
    """

    log_z: float
    m: np.ndarray
    pair: np.ndarray
    q_n: float
    active: np.ndarray  # boolean mask of enumerated sites

    def to_dict(self) -> dict:
        def clean(x):
            return None if (isinstance(x, float) and math.isnan(x)) else x

        return {
            "log_z": self.log_z,
            "m": [clean(float(v)) for v in self.m],
            "pair": [[clean(float(v)) for v in row] for row in self.pair],
            "q_n": self.q_n,
            "active": [bool(a) for a in self.active],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def pair_csv_text(self) -> str:
        """CSV of (i, j, m_ij) over active pairs i < j."""
        lines = ["i,j,m_ij"]
        idx = np.flatnonzero(self.active)
        for a, i in enumerate(idx):
            for j in idx[a + 1 :]:
                lines.append(f"{i},{j},{self.pair[i, j]:.17g}")
        return "\n".join(lines) + "\n"


@dataclass
class _RawMoments:
    """Unnormalized-measure moments in active-local index order.

    ``cols`` maps a tuple F of fixed local indices (length 1 or 2) to the raw
    moment vector <s_F s_l> over every local site l; ``triples`` maps an
    index triple to the raw scalar <s_a s_b s_c>.  A stacked pass over K
    field vectors gives every field a leading K axis.
    """

    log_z: float | np.ndarray
    mag: np.ndarray
    second: np.ndarray | None  # raw <sigma_a sigma_b>, unit diagonal
    triples: dict
    cols: dict

    def row(self, r: int) -> "_RawMoments":
        """Row r of a stacked result, as the unstacked moments of one system."""
        return _RawMoments(
            float(self.log_z[r]),
            self.mag[r],
            None if self.second is None else self.second[r],
            {key: float(val[r]) for key, val in self.triples.items()},
            {key: val[r] for key, val in self.cols.items()},
        )


# Largest number of states one chunk of a stacked pass enumerates at once.
# A single system above the budget is enumerated alone.
_CHUNK_STATES = 1 << 14


def _sign_matrix(k: int) -> np.ndarray:
    """(2^k, k) matrix of +-1; bit b of the row index is the sign of site b."""
    if k == 0:
        return np.ones((1, 0))
    idx = np.arange(1 << k, dtype=np.uint64)[:, None]
    bits = (idx >> np.arange(k, dtype=np.uint64)[None, :]) & 1
    return 2.0 * bits.astype(np.float64) - 1.0


def _quadratic(S: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Interaction energy 0.5 s.G.s per row of S (G symmetric, zero diagonal)."""
    if S.shape[1] == 0:
        return np.zeros(S.shape[0])
    return 0.5 * np.einsum("ci,ci->c", S @ G, S)


def _symmetrized_second(second: np.ndarray) -> np.ndarray:
    """Mirror the upper triangle and pin the diagonal to exactly 1.

    Works on one matrix or on a stack of them (the last two axes)."""
    na = second.shape[-1]
    upper = np.triu(second, 1)
    return upper + upper.swapaxes(-1, -2) + np.eye(na)


class BlockEnumerator:
    """Split-block enumeration context for one coupling block.

    Caches everything that depends on the couplings alone (sign matrices,
    per-block interaction energies, the cross-block interaction grid), so
    repeated evaluations with different field vectors, e.g. along a Brownian
    row flow, pay only for the field-dependent part.
    """

    def __init__(self, G: np.ndarray):
        self.na = G.shape[0]
        n1 = (self.na + 1) // 2
        self.n1 = n1
        self.n2 = self.na - n1
        self.SL = _sign_matrix(n1)
        self.SR = _sign_matrix(self.n2)
        self.EL = _quadratic(self.SL, G[:n1, :n1])
        self.ER = _quadratic(self.SR, G[n1:, n1:])
        if self.n2 > 0:
            self.X = self.SL @ (G[:n1, n1:] @ self.SR.T)
        else:
            self.X = np.zeros((self.SL.shape[0], 1))

    def _parts(self, indices):
        pl = np.ones(self.SL.shape[0])
        pr = np.ones(self.SR.shape[0])
        for a in indices:
            if a < self.n1:
                pl = pl * self.SL[:, a]
            else:
                pr = pr * self.SR[:, a - self.n1]
        return pl, pr

    def moments(self, h, want_pair=True, triples=(), cols=()) -> _RawMoments:
        """Raw moments for a stack of field vectors ``h`` of shape (K, na).

        Every field of the result carries a leading K axis (a single vector
        counts as a one-row stack).  Each row has its own log-sum-exp shift.
        Rows are enumerated in chunks of at most ``_CHUNK_STATES`` states, so
        the working set stays bounded however long the stack is.
        """
        H = np.atleast_2d(np.ascontiguousarray(h, dtype=np.float64))
        K, na = H.shape[0], self.na
        out = _RawMoments(
            np.empty(K),
            np.empty((K, na)),
            np.empty((K, na, na)) if want_pair else None,
            {key: np.empty(K) for key in triples},
            {key: np.empty((K, na)) for key in cols},
        )
        per = max(1, _CHUNK_STATES >> na)
        for a in range(0, K, per):
            self._chunk(H[a : a + per], slice(a, a + per), out)
        return out

    def _chunk(self, H, rows, out: _RawMoments) -> None:
        """Fill ``rows`` of every field of ``out`` from the field chunk ``H``.

        Every field-dependent product is a matmul batched over the leading
        axis, one BLAS call per row, never one gemm whose row dimension spans
        the chunk.  A row's bits therefore do not depend on the rows that
        share its chunk: equal fields give equal results wherever they sit.
        """
        n1 = self.n1
        SL, SR = self.SL, self.SR
        logw = self.X + (self.EL + _each(SL, H[:, :n1]))[:, :, None]
        logw += (self.ER + _each(SR, H[:, n1:]))[:, None, :]
        shift = logw.reshape(H.shape[0], -1).max(axis=1)
        logw -= shift[:, None, None]
        W = np.exp(logw, out=logw)
        u = W.sum(axis=2)
        v = W.sum(axis=1)
        zsum = u.sum(axis=1)
        out.log_z[rows] = np.log(zsum) + shift
        norm = zsum[:, None]
        out.mag[rows] = np.concatenate([_each(SL.T, u), _each(SR.T, v)], axis=1) / norm

        if out.second is not None:
            sec = np.empty((H.shape[0], self.na, self.na))
            sec[:, :n1, :n1] = SL.T @ (u[:, :, None] * SL)
            sec[:, :n1, n1:] = SL.T @ (W @ SR)
            sec[:, n1:, :n1] = sec[:, :n1, n1:].transpose(0, 2, 1)
            sec[:, n1:, n1:] = SR.T @ (v[:, :, None] * SR)
            sec /= norm[:, :, None]
            out.second[rows] = _symmetrized_second(sec)

        for key, val in out.triples.items():
            pl, pr = self._parts(key)
            val[rows] = ((W @ pr)[:, None, :] @ pl)[:, 0] / zsum
        for key, val in out.cols.items():
            pl, pr = self._parts(key)
            left = _each(SL.T, pl * (W @ pr))
            right = _each(SR.T, pr * (W.transpose(0, 2, 1) @ pl))
            val[rows] = np.concatenate([left, right], axis=1) / norm


def _each(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """M @ x for every row x of the stack X, as one BLAS call per row."""
    return (M @ X[:, :, None])[:, :, 0]


def _block_moments(G, h, want_pair=True, triples=(), cols=()) -> _RawMoments:
    """Vectorized split-block enumeration of all 2^na states (one-shot form)."""
    na = h.size
    if na == 0:
        return _RawMoments(0.0, np.zeros(0), np.zeros((0, 0)) if want_pair else None, {}, {})
    return BlockEnumerator(G).moments(h[None, :], want_pair, triples, cols).row(0)


def _gray_moments(G, h, want_pair=True, triples=(), cols=()) -> _RawMoments:
    """Reference engine: single-flip Gray-code walk with O(na) energy updates.

    The walk starts from the all-down state; step k flips the bit at the
    ruler position ctz(k).  Energies follow from the local fields
    phi_b = sum_j g_bj sigma_j, which are updated incrementally per flip.
    """
    na = h.size
    if na == 0:
        return _RawMoments(0.0, np.zeros(0), np.zeros((0, 0)) if want_pair else None, {}, {})
    total = 1 << na
    sig = np.full(na, -1.0)
    phi = G @ sig
    states = np.empty((total, na), dtype=np.int8)
    energies = np.empty(total)
    hcur = 0.5 * float(sig @ phi) + float(h @ sig)
    states[0] = sig
    energies[0] = hcur
    for k in range(1, total):
        p = (k & -k).bit_length() - 1
        snew = -sig[p]
        hcur += 2.0 * snew * (phi[p] + h[p])
        sig[p] = snew
        phi += (2.0 * snew) * G[:, p]
        states[k] = sig
        energies[k] = hcur
    shift = energies.max()
    w = np.exp(energies - shift)
    zsum = w.sum()
    log_z = float(np.log(zsum) + shift)
    S = states.astype(np.float64)
    mag = S.T @ w / zsum
    second = None
    if want_pair:
        second = _symmetrized_second(S.T @ (w[:, None] * S) / zsum)
    trip_vals = {
        key: float((S[:, key[0]] * S[:, key[1]] * S[:, key[2]]) @ w) / zsum for key in triples
    }
    col_vals = {}
    for key in cols:
        prod = w.copy()
        for a in key:
            prod *= S[:, a]
        col_vals[key] = S.T @ prod / zsum
    return _RawMoments(log_z, mag, second, trip_vals, col_vals)


_ENGINES = {"block": _block_moments, "gray": _gray_moments}


def _reduce_system(cm: CouplingMatrix, params: ModelParams, spec: ReducedSpec):
    """Active site list, coupling block and effective fields for a reduced measure.

    Clamped sites j add g_ij * tau_j to the field of every active site i;
    constant terms (fields/couplings among clamped sites) are not part of the
    reduced Hamiltonian.
    """
    if cm.n != params.n:
        raise ValueError(f"coupling matrix size {cm.n} != params n {params.n}")
    spec.validate(params.n)
    excluded = spec.excluded()
    active = np.array(sorted(set(range(params.n)) - excluded), dtype=np.intp)
    if active.size > params.enum_cap:
        raise ValueError(
            f"{active.size} active sites exceed enum_cap={params.enum_cap}"
        )
    G = cm.entries
    h_eff = params.field[active].copy()
    for j, tau in spec.clamped.items():
        h_eff += G[active, j] * tau
    g_act = G[np.ix_(active, active)]
    return active, g_act, h_eff


def log_partition(
    cm: CouplingMatrix,
    params: ModelParams,
    spec: ReducedSpec | None = None,
    engine: str = "block",
) -> float:
    """Log partition function of the (reduced) measure by full enumeration."""
    spec = spec if spec is not None else ReducedSpec()
    active, g_act, h_eff = _reduce_system(cm, params, spec)
    return _ENGINES[engine](g_act, h_eff, want_pair=False).log_z


def magnetizations(
    cm: CouplingMatrix,
    params: ModelParams,
    spec: ReducedSpec | None = None,
    engine: str = "block",
) -> np.ndarray:
    """Magnetization vector only (cheaper than full tables by ~2x).

    Full length n: clamped sites carry their value, removed sites NaN.
    """
    spec = spec if spec is not None else ReducedSpec()
    active, g_act, h_eff = _reduce_system(cm, params, spec)
    raw = _ENGINES[engine](g_act, h_eff, want_pair=False)
    m = np.full(params.n, np.nan)
    m[active] = raw.mag
    for i, tau in spec.clamped.items():
        m[i] = float(tau)
    return m


def gibbs_tables(
    cm: CouplingMatrix,
    params: ModelParams,
    spec: ReducedSpec | None = None,
    engine: str = "block",
    overlap_norm: str = "full",
) -> GibbsTables:
    """All one- and two-point observables of the (reduced) measure in one pass.

    ``overlap_norm`` selects the divisor of the overlap sum over active
    m_k^2: "full" divides by n (the convention of cavity overlaps such as
    q_n^{(i)}), "active" divides by the active site count.
    """
    spec = spec if spec is not None else ReducedSpec()
    if overlap_norm not in ("full", "active"):
        raise ValueError(f"unknown overlap_norm {overlap_norm!r}")
    active, g_act, h_eff = _reduce_system(cm, params, spec)
    raw = _ENGINES[engine](g_act, h_eff, want_pair=True)
    return _assemble_tables(params, spec, active, raw, overlap_norm)


def _assemble_tables(params, spec, active, raw, overlap_norm) -> GibbsTables:
    n = params.n
    m = np.full(n, np.nan)
    pair = np.full((n, n), np.nan)
    m[active] = raw.mag
    cov = raw.second - np.outer(raw.mag, raw.mag)
    pair[np.ix_(active, active)] = cov
    pair[active, active] = 1.0 - raw.mag**2
    keep = np.ones(n, dtype=bool)
    for i in spec.removed:
        keep[i] = False
    for i, tau in spec.clamped.items():
        m[i] = float(tau)
        pair[i, keep] = 0.0
        pair[keep, i] = 0.0
    act_mask = np.zeros(n, dtype=bool)
    act_mask[active] = True
    ssum = float(np.sum(raw.mag**2))
    denom = n if overlap_norm == "full" else max(active.size, 1)
    return GibbsTables(
        log_z=raw.log_z,
        m=m,
        pair=pair,
        q_n=ssum / denom,
        active=act_mask,
    )


def _local_index(active: np.ndarray, site: int) -> int:
    pos = np.searchsorted(active, site)
    if pos >= active.size or active[pos] != site:
        raise ValueError(f"site {site} is not active in this reduced measure")
    return int(pos)


def triple_correlation(
    cm: CouplingMatrix,
    params: ModelParams,
    spec: ReducedSpec | None,
    i: int,
    j: int,
    k: int,
    engine: str = "block",
) -> float:
    """Centered three-point function <(s_i - m_i)(s_j - m_j)(s_k - m_k)>.

    Exact, from one enumeration pass over the reduced measure.  The indices
    must be three distinct active sites.
    """
    if len({i, j, k}) != 3:
        raise ValueError(f"triple indices must be distinct, got ({i}, {j}, {k})")
    spec = spec if spec is not None else ReducedSpec()
    active, g_act, h_eff = _reduce_system(cm, params, spec)
    la, lb, lc = (_local_index(active, s) for s in (i, j, k))
    raw = _ENGINES[engine](g_act, h_eff, want_pair=True, triples=[(la, lb, lc)])
    mi, mj, mk = raw.mag[la], raw.mag[lb], raw.mag[lc]
    s = raw.second
    t = raw.triples[(la, lb, lc)]
    return float(t - mi * s[lb, lc] - mj * s[la, lc] - mk * s[la, lb] + 2.0 * mi * mj * mk)


def tables_with_triple_columns(
    cm: CouplingMatrix,
    params: ModelParams,
    spec: ReducedSpec | None,
    pairs: Iterable[tuple],
    engine: str = "block",
) -> tuple:
    """GibbsTables plus, per requested pair (j, k), the centered triple vector.

    The returned vectors hold m_{jkl} for every site l (NaN at removed sites,
    0 at clamped ones).  Repeated indices reduce to the centered-moment
    values m_{jkj} = -2 m_j m_jk automatically because the raw third moments
    are computed from actual spin products.
    """
    spec = spec if spec is not None else ReducedSpec()
    active, g_act, h_eff = _reduce_system(cm, params, spec)
    pairs = [tuple(p) for p in pairs]
    local = [(_local_index(active, a), _local_index(active, b)) for a, b in pairs]
    raw = _ENGINES[engine](g_act, h_eff, want_pair=True, cols=local)
    tables = _assemble_tables(params, spec, active, raw, "full")
    n = params.n
    out = {}
    for (a, b), key in zip(pairs, local):
        la, lb = key
        mj, mk = raw.mag[la], raw.mag[lb]
        s = raw.second
        col = (
            raw.cols[key]
            - mj * s[lb, :]
            - mk * s[la, :]
            - raw.mag * s[la, lb]
            + 2.0 * mj * mk * raw.mag
        )
        full = np.zeros(n)
        full[~tables.active] = np.nan
        for c in spec.clamped:
            full[c] = 0.0
        full[active] = col
        out[(a, b)] = full
    return tables, out


def delta_op(
    cm: CouplingMatrix,
    params: ModelParams,
    spec: ReducedSpec,
    i: int,
    observable: Observable,
) -> float:
    """Half-difference of a clamped observable over the two values of spin i.

    delta_i f = (f(sigma_i=+1) - f(sigma_i=-1)) / 2, where f is evaluated
    under the spec with i additionally clamped.
    """
    up = observable(cm, params, spec.with_clamped(i, +1))
    down = observable(cm, params, spec.with_clamped(i, -1))
    return 0.5 * (up - down)


def eps_op(
    cm: CouplingMatrix,
    params: ModelParams,
    spec: ReducedSpec,
    i: int,
    observable: Observable,
) -> float:
    """Half-sum counterpart of ``delta_op``: (f(+1) + f(-1)) / 2."""
    up = observable(cm, params, spec.with_clamped(i, +1))
    down = observable(cm, params, spec.with_clamped(i, -1))
    return 0.5 * (up + down)


def magnetization_observable(j: int, engine: str = "block") -> Observable:
    """Observable returning m_j of the reduced measure."""
    return lambda cm, params, spec: float(gibbs_tables(cm, params, spec, engine).m[j])


def pair_observable(j: int, k: int, engine: str = "block") -> Observable:
    """Observable returning the truncated correlation m_jk (diagonal 1 - m_j^2)."""
    return lambda cm, params, spec: float(gibbs_tables(cm, params, spec, engine).pair[j, k])


def key_identity_residual(
    cm: CouplingMatrix,
    params: ModelParams,
    clamped: Mapping[int, int],
    i: int,
    j: int,
    k: int | None = None,
    engine: str = "block",
) -> float:
    """Residual of the conditional pair/triple identities under clamping.

    With A the clamped configuration, the pair identity states
    m_ij^[A] = (1 - (m_i^[A])^2) * delta_i m_j^[A u {i}] and the triple
    variant (k given) states
    m_ijk^[A] = (1 - (m_i^[A])^2) * delta_i m_jk^[A u {i}]
                - 2 m_i^[A] m_ik^[A] * delta_i m_j^[A u {i}].
    Both hold exactly for +-1 spins, so the residual is pure float noise.
    """
    spec = ReducedSpec(dict(clamped))
    targets = {i, j} if k is None else {i, j, k}
    if len(targets) != (2 if k is None else 3):
        raise ValueError("identity indices must be distinct")
    if targets & spec.excluded():
        raise ValueError("identity indices must not be clamped or removed")
    base = gibbs_tables(cm, params, spec, engine)
    up = gibbs_tables(cm, params, spec.with_clamped(i, +1), engine)
    down = gibbs_tables(cm, params, spec.with_clamped(i, -1), engine)
    var_i = 1.0 - base.m[i] ** 2
    delta_mj = 0.5 * (up.m[j] - down.m[j])
    if k is None:
        return float(base.pair[i, j] - var_i * delta_mj)
    delta_mjk = 0.5 * (up.pair[j, k] - down.pair[j, k])
    mijk = triple_correlation(cm, params, spec, i, j, k, engine)
    return float(mijk - var_i * delta_mjk + 2.0 * base.m[i] * base.pair[i, k] * delta_mj)


def susceptibility_fd(
    cm: CouplingMatrix,
    params: ModelParams,
    i: int,
    j: int,
    step: float = 1e-5,
    engine: str = "block",
) -> float:
    """Central finite difference d m_i / d h_j of the full measure.

    Agrees with the truncated correlation pair[i, j] up to O(step^2).
    """
    if step <= 0:
        raise ValueError(f"step must be > 0, got {step}")
    up = gibbs_tables(cm, params.bumped_field(j, +step), engine=engine)
    down = gibbs_tables(cm, params.bumped_field(j, -step), engine=engine)
    return float((up.m[i] - down.m[i]) / (2.0 * step))


def coupling_derivative_residual(
    cm: CouplingMatrix,
    params: ModelParams,
    i: int,
    l: int,
    k: int,
    step: float = 1e-5,
    engine: str = "block",
) -> float:
    """Finite-difference check of d m_k / d g_il = m_i m_kl + m_l m_ik + m_ilk.

    The bond g_il is bumped once (both symmetric storage slots move, the
    energy counts the pair once).  Repeated target indices use the centered
    conventions m_kk = 1 - m_k^2 and m_ilk|_{k=i} = -2 m_i m_il, which is
    what the centered moments reduce to.
    """
    if i == l:
        raise ValueError("coupling indices must satisfy i != l")
    if step <= 0:
        raise ValueError(f"step must be > 0, got {step}")
    up = gibbs_tables(cm.bumped(i, l, +step), params, engine=engine)
    down = gibbs_tables(cm.bumped(i, l, -step), params, engine=engine)
    fd = (up.m[k] - down.m[k]) / (2.0 * step)
    base = gibbs_tables(cm, params, engine=engine)
    if k == i:
        mtrip = -2.0 * base.m[i] * base.pair[i, l]
    elif k == l:
        mtrip = -2.0 * base.m[l] * base.pair[i, l]
    else:
        mtrip = triple_correlation(cm, params, None, i, l, k, engine)
    rhs = base.m[i] * base.pair[k, l] + base.m[l] * base.pair[i, k] + mtrip
    return float(fd - rhs)
