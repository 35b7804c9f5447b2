"""Exact Gibbs observables of SK-type systems by full state enumeration.

Supports the reduced measures obtained by clamping a set of spins to fixed
values; site labels stay stable across the full and clamped measures.  The
cavity of a site i is not a reduced measure here: it is the system of the
n - 1 other sites, cut from the couplings and fields with one index
(``cavity_magnetizations`` enumerates all n of them in one call).

The enumeration engine splits the na sites into a left block of n1 and a
right block of n2 sites, and the left block again into its first b (low,
state t) and its other (high, state T) sites; c is the right state.  Every
block numbers its sites from the top bit of its state index, so one sign
matrix per block size serves every b (``_sign_matrix``).  A state's
log-weight then factors as a[t, T] + C[t, c] + D[T, c]:

* a = EL + hL.sL, the left energy and field (2^n1 entries);
* C = sl(t) G_LR[low] sR(c), the low-left to right couplings, which do not
  depend on the field;
* D = ER + hR.sR + sh(T) G_LR[high] sR(c) (2^(na-b) entries).

A construction computes the block energies EL and ER once, each from the
two halves of its block's states (``_quadratic``): 2^k k/2 multiply-adds
for a block of k sites, where the dense product took 2^k k^2.  A pass
exponentiates a, D and the factor eC = exp(C - max C) of 2^(b+n2) entries,
and forms every sum over the 2^na states as a matrix product against eC:
2^n1 + 2^(na-b) exponentials, plus 2^(b+n2) per chunk of field rows for eC,
and 2^na multiply-adds per product, two, plus one with the pair matrix,
whose left-left and right-right blocks come from the halves of the sums per
left and per right state (``_signed_sums``), 2^n1 n1/2 and 2^n2 n2/2
multiply-adds.  Neither D nor eC is stored whole: a pass streams both
through one cache-sized tile of columns (right states) at a time and
reduces each tile at once.  a is shifted by its maximum a_shift[T] over t,
eA = exp(a - a_shift), and grown is a system's running maximum of its
log-weights over the tiles so far.  Where grids may be shared, row T of a D
tile is shifted by its own maximum r[T], W = exp(D - r[T]), and a system
folds the row factor exp(a_shift[T] + r[T] - grown) into its eA, so no
factor of a weight passes 1 and W holds nothing of any one system.  That
costs a row-wise maximum and subtraction over each tile and 2^n1
multiplications a tile per system, paid whether or not a grid is shared.
Where no run of two systems fits the chunk budget (``_Layout.most``), from
na = 22 at the cap's b, nothing is shared and a pass moves a_shift into the
system's own D, W = exp(D + a_shift - grown), with no row-wise step and no
row factor.  Every sum a system keeps, per left state (t, T) and per right
state c, is rescaled whenever grown grows (an online log-sum-exp).  eC
stays one exponential per entry: as the outer product of two factors over
the halves of the right sites, it wrote as many entries and took more numpy
calls a chunk, and ran slower.  Memory is one tile plus O(2^n1 + 2^n2)
vectors per system, O(2^(n/2) * n) in all; no buffer spans the 2^(b+n2)
entries of eC, unless it fits one tile.  A guard caps b so that C spans at
most ``_GUARD`` (600): weights that matter then stay far from float64
underflow, and couplings too strong for any b > 0 get b = 0, one
exponential per state.

One enumerator also takes a stack of coupling blocks of equal size, such as
the n cavity systems of a disorder sample, each with its own b.  The
systems of one b run in chunks whose set-up and reductions are numpy calls
batched over the chunk; only the tile loop runs per tile, and a tile is the
whole D grids of as many of a chunk's runs as fit half the budget, or a run
of columns of one larger grid.  Consecutive systems of one b, whatever
systems of another b sit between them, whose D operands, G[b:, n1:] and the
right fields, are equal bit for bit make a run that shares one D grid, as
the rows of W carry no shift of any one system: the 2^(na-b) exponentials
of D, and the product that builds it, count once per run.  One bit
comparison per call finds the runs (``_joins``), and they form only between
coupling blocks.  A run, like a chunk, keeps its operands within 9/8 of the
budget, and is cut into pieces only past it.  The cavities of one group of
cap + 1 sites make such a run in the group order of the n cavities of a
sample (``_cavity_order``): one grid per group, not one per cavity.  A chunk
holds systems of one b, and every product is one BLAS call per system, or
per run for the grid, so a system's bits depend neither on its neighbours,
nor on its place in the stack, nor on whether it shares its grid.

Systems of up to ``_WALSH_SITES`` (6) sites, too small to factorise, take a
second kernel instead, chosen by na alone: the 2^na weights of each field
row are exponentiated whole and go through one fast Walsh-Hadamard
transform, after which every moment is one row of the transform divided by
its row 0.  The pass uses elementwise ufuncs only, with no BLAS, so its
bits do not depend on the stack either.  The clamped systems of the Ito
check (na = 3-4 at n = 6) and every small-n enumeration run through it.  The
tests check both kernels against a naive direct summation and a Gray-code
walk that share no reduction code with them.

One rule cuts every stack into chunks (``_chunks``): the fewest chunks of
equal size, to one row, none past 9/8 of its budget, ``_TILE_STATES >> na``
field rows for the Walsh pass, or ``_TILE_STATES`` over the floats of one
system's operands for the block pass.  There a run counts as one unit of
the chunk plan: its shared operands count once, its systems' own operands
each (``_Layout.operands``), and only a run whose operands pass 9/8 of the
budget is cut into pieces (``_runs``); a stack with no runs keeps the plan
of one unit per system.  A call allocates its buffers once,
for its largest chunk, and every chunk reuses them instead of faulting in
fresh pages, so a caller with several field stacks for one enumerator
stacks them into one call.

Both kernels sit behind one call, ``BlockEnumerator.moments(h, want_pair,
out)``, whose optional ``out`` takes the magnetizations and may be the field
stack ``h`` itself.  Higher moments, such as <s_i s_j s_k>, and one column
of the pair matrix (``pair_column``) come from ``clamped_moments``: the
clamping identity of the dynamical proof, over one stacked pass that writes
the magnetizations over the clamped fields it has read.

All weights are handled as exp(H - max H), so partition sums stay finite for
|H| up to the exponent range of float64 (~700).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .model import CouplingMatrix, ModelParams, _check_sites


@dataclass
class GibbsTables:
    """Exact observables of one (possibly clamped) Gibbs measure.

    ``m`` holds tanh-bounded magnetizations; clamped sites carry their fixed
    value.  ``pair`` is the truncated correlation matrix with the diagonal
    convention pair[i, i] = 1 - m_i^2 (the variance of sigma_i); entries
    involving clamped sites are 0.
    """

    log_z: float
    m: np.ndarray
    pair: np.ndarray


@dataclass
class _RawMoments:
    """Unnormalized-measure moments in active-local index order.

    A stacked pass over K field vectors gives every field a leading K axis.
    """

    log_z: float | np.ndarray
    mag: np.ndarray
    second: np.ndarray | None  # raw <sigma_a sigma_b>, unit diagonal

    def row(self, r: int) -> "_RawMoments":
        """Row r of a stacked result, as the unstacked moments of one system."""
        return _RawMoments(
            float(self.log_z[r]), self.mag[r], None if self.second is None else self.second[r]
        )


# State budget of a tile with the product of its shape that the pair matrix
# needs, and of the operands of the systems a chunk holds (see
# ``BlockEnumerator.moments``).  A tile is a run of columns of one
# system's D grid, or the whole D grids of several stacked systems.  2^16
# float64 states are 512 KiB: the working set of a tile stays in one core's
# L2 cache, while a pass at na = 24 still takes only 32 tiles, so the
# interpreter overhead per tile stays small next to the exponentials and
# products.
_TILE_STATES = 1 << 16

# Largest coupling range 2 * sum_{a<b} |G_LR[a]|_1 the cross factor eC may
# span.  A pass multiplies three factors, each shifted by its own
# maximum, so the heaviest state of a tile can read as small as e^-range;
# below 600, every weight within e^-40 of the heaviest stays above e^-640,
# clear of the float64 underflow near e^-708.
_GUARD = 600.0

# Largest system that the Walsh-Hadamard pass enumerates (see
# ``BlockEnumerator``): the largest that the block pass would never
# factorise (b = 0 below na = 7).  There the butterfly's 2 na elementwise
# sweeps over the grid cost less than the block pass's batched products on
# tiles of a few states.
_WALSH_SITES = 6


@functools.cache
def _sign_matrix(k: int) -> np.ndarray:
    """Read-only (2^k, k) matrix of +-1; bit k-1-j of the row index is the
    sign of site j, so sites are numbered from the top bit.

    Row t 2^(k-b) + T then holds row t of ``_sign_matrix(b)`` on the first
    b sites and row T of ``_sign_matrix(k - b)`` on the others, for every
    b: the left signs in the (t, T) order of every split.  Column j is
    filled as runs of 2^(k-1-j) entries of -1, then of +1.  One copy per
    block size is shared by every enumerator, e.g. by the cavity systems of
    one disorder sample.
    """
    S = np.empty((1 << k, k))
    for j in range(k):
        halves = S[:, j].reshape(-1, 2, 1 << (k - 1 - j))
        halves[:, 0] = -1.0
        halves[:, 1] = 1.0
    S.setflags(write=False)
    return S


def _quadratic(G: np.ndarray) -> np.ndarray:
    """Interaction energy 0.5 s.G.s of every state s, in the order of
    ``_sign_matrix(k)``, for each block of a (K, k, k) stack G (symmetric,
    zero diagonal), as a (K, 2^k) array.

    State t 2^k2 + B splits into its k1 = ceil(k/2) top sites (state t)
    and its k2 = k - k1 bottom ones (state B), so that
    E[t, B] = E_top[t] + E_bottom[B] + (S_k1 G_TB S_k2^T)[t, B].  Each half
    takes the dense product, 2^(k/2) k^2 multiply-adds; the cross term is
    one k2-deep product per block, written into the result, and the halves
    are added onto it: O(2^k k/2) in all, against 2^k k^2 for the dense
    product, and no temporary of the result's size."""
    K, k = G.shape[0], G.shape[-1]
    k1 = (k + 1) // 2
    S1, S2 = _sign_matrix(k1), _sign_matrix(k - k1)
    E = np.empty((K, len(S1), len(S2)))
    np.matmul(S1 @ G[:, :k1, k1:], S2.T, out=E)
    E += _dense_quadratic(S1, G[:, :k1, :k1])[:, :, None]
    E += _dense_quadratic(S2, G[:, k1:, k1:])[:, None, :]
    return E.reshape(K, -1)


def _dense_quadratic(S: np.ndarray, G: np.ndarray) -> np.ndarray:
    """0.5 s.G.s per row s of S for each block of the stack G, (K, len(S))."""
    return 0.5 * np.einsum("kci,ci->kc", S @ G, S)


def _signed_sums(w: np.ndarray, out: np.ndarray) -> None:
    """sum_s w[s] s s^T into the (K, k, k) ``out``, for each row of a
    (K, 2^k) stack of state weights w in the order of ``_sign_matrix(k)``;
    all but its block below the diagonal, bottom sites by top sites, which
    mirrors the block above.

    As in ``_quadratic``, the states split into their top and bottom
    halves: each half's block sums the half's signs against the weights
    summed over the other half, and the block between them is
    S_k1^T W S_k2 for the weights W as a 2^k1 x 2^k2 grid.  Every operand
    spans 2^(k/2) states, not 2^k: 2^k k/2 multiply-adds in all."""
    k = out.shape[-1]
    k1 = (k + 1) // 2
    S1, S2 = _sign_matrix(k1), _sign_matrix(k - k1)
    W = w.reshape(len(w), len(S1), len(S2))
    top, bottom = W.sum(axis=2), W.sum(axis=1)
    out[:, :k1, :k1] = S1.T @ (top[:, :, None] * S1)
    out[:, k1:, k1:] = S2.T @ (bottom[:, :, None] * S2)
    out[:, :k1, k1:] = (S1.T @ W) @ S2


def _symmetrized_second(second: np.ndarray) -> np.ndarray:
    """Mirror the upper triangle and pin the diagonal to exactly 1.

    Works on one matrix or on a stack of them (the last two axes)."""
    na = second.shape[-1]
    upper = np.triu(second, 1)
    return upper + upper.swapaxes(-1, -2) + np.eye(na)


def _low_bits(G_LR: np.ndarray) -> np.ndarray:
    """Number b of low left sites whose couplings the factor eC holds, for
    each block of a (K, n1, n2) stack of left-to-right couplings.

    The largest b within the guard (2 * sum_{a<b} |G_LR[a]|_1 <= _GUARD)
    that stays below n1/2: a pass exponentiates the 2^(na-b) entries of D,
    and sweeps about three times over column sums the size of the factor,
    2^(b+n2) entries, which each chunk also exponentiates.  The two balance
    near b = n1/2 - 1, where a cap one lower or higher timed alike or
    slower.  The factor's size caps nothing, as a pass holds one tile of it.
    Couplings too strong for the guard, or not finite, get b = 0.  Only the
    block pass asks: systems of up to ``_WALSH_SITES`` sites, which the cap
    n1/2 - 1 would give b = 0 anyway, take the Walsh-Hadamard pass instead.
    """
    reach = 2.0 * np.cumsum(np.abs(G_LR).sum(axis=2), axis=1)
    return np.count_nonzero(reach[:, : _low_cap(sum(G_LR.shape[1:]))] <= _GUARD, axis=1)


def _low_cap(na: int) -> int:
    """The largest b that ``_low_bits`` gives a system of na sites, n1/2 - 1
    for its left block of n1 = ceil(na/2) sites, and 0 below na = 4."""
    return max(0, (na + 1) // 2 // 2 - 1)


def _runs(layout: _Layout, joins: list) -> list:
    """Lengths of the runs of a stack that ``joins`` marks (see
    ``BlockEnumerator._joins``), in order, a run cut into equal pieces only
    where it holds more than ``layout.most`` systems."""
    runs = [1]
    for join in joins:
        if join:
            runs[-1] += 1
        else:
            runs.append(1)
    units = []
    for size in runs:
        count = -(-size // layout.most)
        units += [size * (i + 1) // count - size * i // count for i in range(count)]
    return units


def _groups(units: list, per: int) -> list:
    """(systems, runs, length) of each group of a chunk's ``units``: every
    stretch of runs of one length, cut into groups of at most ``per`` runs."""
    groups, q, s = [], 0, 0
    for length, stretch in itertools.groupby(units):
        count = len(list(stretch))
        for i in range(0, count, per):
            R = min(per, count - i)
            groups.append((slice(s, s + R * length), slice(q, q + R), length))
            q, s = q + R, s + R * length
    return groups


def _chunks(count: int, per: int) -> list:
    """Slices that cut a stack of ``count`` rows, in order, into the fewest
    chunks of at most 9/8 of ``per`` rows, whose sizes differ by at most one."""
    pieces = -(-count // (per + per // 8))
    return [slice(count * i // pieces, count * (i + 1) // pieces) for i in range(pieces)]


class BlockEnumerator:
    """Enumeration context for one coupling block or a stack of them.

    ``G`` is one (na, na) block, which serves every row of the field stack
    that ``moments`` takes, or a stack of K blocks, (K, na, na), whose block
    r pairs with field row r: the n cavity systems of one disorder sample,
    say.  The context holds what depends on the couplings alone: for
    na <= ``_WALSH_SITES`` the interaction energy E of every state of every
    block; above, the split (n1, n2), each system's b (``low``, chosen by
    ``_low_bits``), the places of the systems of each b (``systems``), and
    the block energies EL and ER.  No call changes it.

    Consecutive coupling blocks of one b whose high-left and right couplings
    and right fields are equal bit for bit make a run, which shares one D
    grid: the cavities of one group of ``_cavity_order``.  Runs form only
    between coupling blocks.  Each row of a grid tile is shifted by its own
    maximum, so the grid serves every system of the run, and each system
    folds its own row factor into its left weights: a system's bits are
    those of its own one-system pass, in a run or alone.  Whether a pass
    may share grids depends on its layout alone, so it holds for every system.
    """

    def __init__(self, G: np.ndarray):
        self.G = G if G.ndim == 3 else G[None]
        self.na = na = self.G.shape[-1]
        if na <= _WALSH_SITES:
            # the interaction energy of every state, one column per block
            self.E = _quadratic(self.G).T.copy()
            return
        self.n1 = n1 = (na + 1) // 2
        self.n2 = na - n1
        self.low = _low_bits(self.G[:, :n1, n1:])
        # the places in the stack of the systems of each b, and the block
        # energies of every system
        self.systems = {b: np.flatnonzero(self.low == b) for b in sorted(set(self.low.tolist()))}
        self.EL = _quadratic(self.G[:, :n1, :n1])
        self.ER = _quadratic(self.G[:, n1:, n1:])

    def moments(self, h, want_pair=True, out=None) -> _RawMoments:
        """Raw moments for a stack of field vectors ``h`` of shape (K, na).

        Every field of the result carries a leading K axis (a single vector
        counts as a one-row stack).  One coupling block takes any number of
        rows; a stack of blocks takes one row per block.  ``out``, a (K, na)
        float64 array, if given receives the magnetizations and is the
        result's ``mag``.  It may be ``h`` itself, and ``h`` may come in any
        float64 layout: every chunk reads its rows of ``h`` before it writes
        them.  At n = 24 with the pair matrix, one call allocates 0.79 MiB
        at its peak.
        """
        H = np.atleast_2d(np.asarray(h, dtype=np.float64))
        K, na, blocks = H.shape[0], self.na, len(self.G)
        if blocks > 1 and K != blocks:
            raise ValueError(f"{K} field rows for a stack of {blocks} coupling blocks")
        if out is not None and out.shape != H.shape:
            raise ValueError(f"out of shape {out.shape} for fields of shape {H.shape}")
        if na <= _WALSH_SITES:
            chunks = _chunks(K, _TILE_STATES >> na)
            # one block for the largest chunk's grid, a scratch half its size
            # and the moments that ``out`` does not take
            size = max((c.stop - c.start for c in chunks), default=0) << na
            mag = K * na if out is None else 0
            pair = K * na * na if want_pair else 0
            block = _aligned_empty((size + size // 2 + K + mag + pair,))
            grid, scratch, log_z, rest = np.split(block, np.cumsum([size, size // 2, K]))
            raw = _RawMoments(
                log_z,
                rest[:mag].reshape(K, na) if out is None else out,
                rest[mag:].reshape(K, na, na) if want_pair else None,
            )
            for c in chunks:
                self._walsh_pass(H[c], c, raw, grid, scratch)
            return raw
        raw = _RawMoments(
            np.empty(K),
            np.empty((K, na)) if out is None else out,
            np.empty((K, na, na)) if want_pair else None,
        )
        for b, systems in self.systems.items():
            layout = _layout(self.n1, self.n2, b, _TILE_STATES)
            at = systems if blocks > 1 else np.arange(K)
            units = _runs(layout, self._joins(H, b, at)) if blocks > 1 else [1] * K
            # a run is one unit of the chunk plan, each counted as the longest
            per = max(1, _TILE_STATES // layout.operands(max(units, default=1)))
            chunks = _chunks(len(units), per)
            ends = [0, *itertools.accumulate(units)]
            k = max((ends[c.stop] - ends[c.start] for c in chunks), default=0)
            widest = max((c.stop - c.start for c in chunks), default=0)
            work = layout.workspace(k, min(k, systems.size), widest, want_pair)
            for c in chunks:
                span = slice(ends[c.start], ends[c.stop])
                rows = at[span] if blocks > 1 else span
                own = rows if blocks > 1 else systems
                # in C order, so that no BLAS operand depends on the layout of h
                self._pass(layout, own, np.ascontiguousarray(H[rows]), rows, raw, work, units[c])
        return raw

    def _joins(self, H, b: int, at: np.ndarray) -> list:
        """Whether each coupling block ``at`` of b but the first shares the D
        grid of the system of b before it: the same D operands, its high-left
        and right couplings G[b:, n1:] and its right fields, bit for bit.
        Only a stack of blocks asks."""
        n1 = self.n1
        key = np.concatenate([self.G[at, b:, n1:].reshape(at.size, -1), H[at, n1:]], axis=1)
        key = key.view(np.int64)
        return np.logical_and.reduce(key[1:] == key[:-1], axis=1).tolist()

    def _walsh_pass(self, H, rows: slice, out: _RawMoments, grid, scratch) -> None:
        """Fill ``rows`` of every field of ``out`` from the field chunk ``H``
        by one Walsh-Hadamard transform of the weights, in place in ``grid``.

        The log-weights of the chunk form a (2^na, k) grid, the field rows
        the contiguous inner axis, its states in the order of
        ``_sign_matrix(na)``: the interaction energies E plus the field
        energies, which double bit by bit from the last site to the first
        (-h_a where s_a = -1, +h_a where s_a = +1, site a on bit na-1-a).
        Each column is shifted by its maximum and exponentiated, and after
        ``_walsh`` row ``mask`` holds the sum over states of w_s times the
        product of the spins on the bits of ``mask``, so every moment is
        one row divided by row 0.  Every step is an elementwise ufunc on
        whole columns, so a row's bits depend neither on k nor on the chunk.
        """
        k, na = H.shape
        X = grid[: k << na].reshape(1 << na, k)
        X[0] = 0.0
        for i, h in enumerate(H.T[::-1]):
            np.add(X[: 1 << i], h, out=X[1 << i : 2 << i])
            X[: 1 << i] -= h
        X += self.E[:, rows] if self.E.shape[1] > 1 else self.E
        # the shift waits in the rows of log Z, and log z goes into row 0
        # once every moment has read z: no temporary of the chunk's rows
        shift = X.max(axis=0, out=out.log_z[rows])
        X -= shift
        np.exp(X, out=X)
        _walsh(X, scratch)
        z = X[0]
        bits = 1 << np.arange(na)[::-1]
        for a, bit in enumerate(bits):  # no temporary of the grid's size
            np.divide(X[bit], z, out=out.mag[rows, a])
        if out.second is not None:
            out.second[rows] = (X[bits[:, None] ^ bits] / z).transpose(2, 0, 1)
        shift += np.log(z, out=z)

    def _pass(self, layout, own, H, rows, out: _RawMoments, work: dict, units: list) -> None:
        """Fill ``rows`` of every field of ``out`` from the field chunk ``H``,
        in the buffers ``work`` of ``layout.workspace``.

        ``own`` are the places in the stack of the chunk's coupling blocks,
        one per field row, or the one block that serves them all.  ``units``
        are the lengths of the chunk's runs, in order: coupling blocks that
        share their high-left and right couplings and right fields, and so
        one D grid.  Tiles split D at column boundaries fixed by na and b.
        Where the layout shares grids, row T of a tile is shifted by its own
        maximum r[T], W = exp(D - r[T]), one grid per run, and each system
        of the run folds its row factor exp(a_shift[T] + r[T] - grown) into
        its own eA, grown the running maximum of a_shift + r over its tiles
        so far; elsewhere each system's own grid takes its a_shift and is
        shifted by grown alone (see the module notes).  Every product is one
        BLAS call per system, or per run for the grid, never one whose row
        dimension spans the chunk or the tile: equal systems give equal bits
        wherever they sit, and whether or not they share their grid.  Per
        system it costs the exponentials of a and eC, the run's of D, and
        two products of 2^na multiply-adds (three with the pair matrix),
        whose left-left and right-right blocks then take ``_signed_sums``:
        no operand there spans more than 2^(n1/2) states.
        """
        k, blocks, pair = H.shape[0], len(own), out.second is not None
        n1, b, shared = self.n1, layout.low, layout.most > 1
        SL, SR, tc = layout.SL, layout.SR, layout.tile_cols
        nt, nT = 1 << b, layout.Sh.shape[0]
        row_sums, by_right = work["row_sums"][:k], work["by_right"][:k]
        right = work["right"][: len(units)]
        cross = work["cross"][:k] if pair else None
        eC = work["eC"][:blocks]
        G_LR = self.G[own, :n1, n1:]
        # C = sl(t) B[:, c] peaks where every low sign matches B, so its shift
        # max_c sum_a |B[a, c]| is known before the first tile builds eC; a
        # last row of B, -shift against the ones of ``Sl1``, subtracts it
        B = np.empty((blocks, b + 1, SR.shape[0]))
        B[:, :b] = G_LR[:, :b] @ SR.T
        c_shift = np.abs(B[:, :b]).sum(axis=1).max(axis=1)
        B[:, b] = -c_shift[:, None]
        # a[t, T], shifted by its maximum over t; the shift of column T
        # joins the row factor, so a tile's weights are
        # eA[t, T] exp(a_shift[T] + r[T] - grown) eC[t, c] W[T, c], or,
        # where no grid is shared, moves into the system's own D
        a = (self.EL[own] + _each(SL, H[:, :n1])).reshape(k, nt, nT)
        a_shift = a.max(axis=1)
        a -= a_shift[:, None, :]
        eA = np.exp(a, out=a)
        if shared:
            eAf = work["eAf"][:k]
        else:
            eAf, left = eA, work["left"][:k]
            left[:, :, -2] = a_shift
        # the first system of each run holds the run's D operands
        heads = slice(None) if len(units) == k else [0, *itertools.accumulate(units[:-1])]
        lead = own[heads]
        G_high = self.G[lead, b:n1, n1:]
        field = self.ER[lead] + _each(SR, H[heads, n1:])
        # Each group of runs holds its fields as (run, place in the run), so
        # that a run's grid broadcasts over the systems of the run.
        top, groups = np.empty(k), []
        for g, runs, L in _groups(units, layout.per_tile):
            R = runs.stop - runs.start
            W = work["W"][:R]
            views = (
                layout.left if shared else left[g],
                a_shift[g].reshape(R, L, nT),
                eA[g].reshape(R, L, nt, nT),
                eAf[g].reshape(R, L, nt, nT),
                eC[g].reshape(R, L, nt, tc) if blocks > 1 else eC[None],
                row_sums[g].reshape(R, L, nt, nT),
                top[g].reshape(R, L),
                by_right[g].reshape(R, L, -1),
            )
            # where row T of grid i starts in the flat W: argmax, then a
            # gather, finds the rows' maxima 2-3x faster than a row-wise max
            starts = np.arange(0, R * nT * tc, tc).reshape(R, nT)
            groups.append((g, runs, L, W, starts, W[:, None].transpose(0, 1, 3, 2), views))

        # Each grid tile W is read twice.  eC @ W^T gives, times eA and the
        # row factor, the sums over c of every (t, T); eA @ W, eA times the
        # row factor, gives the sums over T of every (t, c), which eC weighs.
        SRT, low = SR.T, work["col"]
        for j in range(layout.tiles):
            c = slice(j * tc, (j + 1) * tc)
            np.matmul(layout.Sl1, B[:, :, c], out=eC)
            np.exp(eC, out=eC)
            # a one-block chunk's rows share one high-left product, copied
            np.matmul(G_high, SRT[:, c], out=right[: len(lead), :-2])
            right[len(lead) :, :-2] = right[0, :-2]
            right[:, -1] = field[:, c]
            for g, runs, L, W, starts, WT, views in groups:
                left_g, shift, eA_g, eAf_g, eC_g, rows_g, top_g, col_sums = views
                np.matmul(left_g, right[runs], out=W)
                if shared:
                    # each row by its own maximum, and the row factor of
                    # every system of the group, folded into its eA
                    r = W.reshape(-1)[W.argmax(axis=2) + starts]
                    W -= r[:, :, None]
                    f = shift + r[:, None]
                    peak = f.max(axis=2)
                else:
                    peak = W.reshape(len(W), 1, -1).max(axis=2)
                grown = np.maximum(top_g, peak) if j else peak
                if shared:
                    f -= grown[:, :, None]
                    np.exp(f, out=f)
                    np.multiply(eA_g, f[:, :, None], out=eAf_g)
                else:
                    W -= grown[:, :, None]
                np.exp(W, out=W)
                row_part = rows_g if not j else np.empty(rows_g.shape)
                np.matmul(eC_g, WT, out=row_part)
                row_part *= eAf_g
                if pair:
                    cross_part = cross[g] if not j else np.empty_like(cross[g])
                    cross_g = cross_part.reshape(*top_g.shape, nT + nt, -1)
                # one place of every run at a time, so that the column sums
                # hold one tile per run, not per system
                for i in range(L):
                    eC_i, col = eC_g[:, i] if blocks > 1 else eC, low[: len(W)]
                    np.matmul(eAf_g[:, i], W, out=col)
                    col *= eC_i
                    np.matmul(layout.ones, col, out=col_sums[:, i, c])
                    if pair:
                        # the high left sites meet the right block in W * (eA^T @ eC),
                        # the low ones in the plain column sums
                        M = work["M"][: len(W)]
                        np.matmul(eAf_g[:, i].transpose(0, 2, 1), eC_i, out=M)
                        M *= W
                        np.matmul(M, SR[c], out=cross_g[:, i, :nT])
                        np.matmul(col, SR[c], out=cross_g[:, i, nT:])
                if j:
                    # a grown maximum rescales what the earlier tiles summed;
                    # one that held would scale by exp(0) = 1
                    if (grown > top_g).any():
                        scale = np.exp(top_g - grown).reshape(-1, 1, 1)
                        by_right[g, : c.start] *= scale[:, 0]
                        row_sums[g] *= scale
                        if pair:
                            cross[g] *= scale
                    rows_g += row_part
                    if pair:
                        cross[g] += cross_part
                top_g[...] = grown

        # the sums over c per left state (t, T) and over (t, T) per right state c
        u = row_sums.reshape(k, -1)
        zsum = u.sum(axis=1)
        norm = zsum[:, None]
        out.log_z[rows] = np.log(zsum) + top + c_shift

        if pair:
            # the right-left block stays 0: only the upper triangle is read
            sec = np.zeros((k, self.na, self.na))
            _signed_sums(u, sec[:, :n1, :n1])
            sec[:, :b, n1:] = layout.Sl.T @ cross[:, nT:]
            sec[:, b:n1, n1:] = layout.Sh.T @ cross[:, :nT]
            _signed_sums(by_right, sec[:, n1:, n1:])
            sec /= norm[:, :, None]
            out.second[rows] = _symmetrized_second(sec)

        # one product per block sums every site's signs against the sums,
        # giving the magnetizations
        at_left, at_right = u[:, None] @ SL, by_right[:, None] @ SR
        out.mag[rows] = np.concatenate([at_left[:, 0], at_right[:, 0]], axis=1) / norm


@functools.cache
def _layout(n1: int, n2: int, b: int, budget: int) -> "_Layout":
    """One ``_Layout`` per split, shared by every pass; ``budget``, the
    ``_TILE_STATES`` it was built under, keys it too."""
    return _Layout(n1, n2, b)


class _Layout:
    """Sign matrices, tiles and workspace of a pass at one split (n1, n2, b);
    its arrays are read-only."""

    def __init__(self, n1: int, n2: int, b: int):
        self.n1, self.n2, self.low = n1, n2, b
        self.SL = _sign_matrix(n1)
        self.SR = _sign_matrix(n2)
        self.Sl = _sign_matrix(b)
        # the low signs and a column of ones, for the shift row of B
        self.Sl1 = np.hstack([self.Sl, np.ones((1 << b, 1))])
        self.Sl1.setflags(write=False)
        # sums over the low states t, as one matrix-vector product
        self.ones = np.ones(1 << b)
        self.ones.setflags(write=False)
        self.Sh = _sign_matrix(n1 - b)
        # Tile boundaries depend on na and b alone: `tile_cols` columns of
        # D within half the budget, which the weights W of a tile share with
        # the product of the same shape that the pair matrix needs, and
        # within 2^19 states of the whole grid (columns x 2^n1), which binds
        # only at b >= 5.  Full- and quarter-budget tiles both ran slower;
        # where the 2^19 bound binds, its narrower tiles ran as fast and
        # held less.
        rows = self.Sh.shape[0]
        self.tile_cols = min(
            1 << n2, max(1, (_TILE_STATES // 2) // rows), (_TILE_STATES * 8) >> n1
        )
        self.tiles = (1 << n2) // self.tile_cols
        # the grids whose whole D makes one tile, within the same half
        # budget; a grid of several tiles has its tiles to itself
        self.per_tile = max(1, (_TILE_STATES // 2) // (rows << n2))
        # The most systems of a run that share one D grid: a run's operands
        # may reach 9/8 of the budget, the slack ``_chunks`` allows a chunk.
        # Where that is one system, from na = 22 at the cap's b, no grid is
        # shared, and a pass keeps the cheaper shift of a grid of its own.
        own = self.operands(1) - self.operands(0)
        self.most = max(1, (_TILE_STATES + _TILE_STATES // 8 - self.operands(0)) // own)
        # [Sh | 0 | 1] @ [G_LR[high] SR^T ; 1 ; right field] is a tile of D
        # in one product, the same for every system of a run
        self.left = np.hstack([self.Sh, np.zeros((rows, 1)), np.ones((rows, 1))])
        self.left.setflags(write=False)

    def operands(self, systems: int = 1) -> int:
        """Floats of a run of ``systems`` systems that share one D grid: each
        system's eC, eA and row sums, and once for the run the D operands and
        the column sums."""
        rows, right, nt = self.Sh.shape[0], self.SR.shape[0], 1 << self.low
        shared = (rows + right) * (self.n1 - self.low + 2) + right * nt
        return shared + systems * (2 * rows + right) * nt

    def workspace(self, k: int, blocks: int, units: int, pair: bool) -> dict:
        """Buffers of a pass over up to k field rows, ``blocks`` coupling
        blocks and ``units`` runs, with the pair matrix's if ``pair``.

        Of the buffers over the right states, only the totals per right
        state span all 2^n2 of them; the others hold one tile."""
        nt, ncol, nT, tc = 1 << self.low, self.SR.shape[0], self.Sh.shape[0], self.tile_cols
        high = self.n1 - self.low
        w = min(units, self.per_tile)
        shapes = {
            "right": (units, high + 2, tc),
            "eC": (blocks, nt, tc),
            "W": (w, nT, tc),
            "col": (w, nt, tc),
            "row_sums": (k, nt, nT),
            "by_right": (k, ncol),
        }
        if self.most > 1:
            # eA times the row factor of each tile
            shapes["eAf"] = (k, nt, nT)
        else:
            # [Sh | column shift of a | 1], one per system
            shapes["left"] = (k, nT, high + 2)
        if pair:
            shapes["M"] = shapes["W"]
            # the left x right block, over the high left states T, then the low ones t
            shapes["cross"] = (k, nT + nt, self.n2)
        # The row product eC @ W^T reads a tile of eC faster with c as the
        # outer axis, so a grid of several tiles stores eC c-major, and the
        # column sums that eC weighs with it: their product and the sum over
        # t (one matrix-vector product) then run faster too.  A grid of one
        # tile keeps both row-major: OpenBLAS picks its kernel by the layout of
        # the operands, and the bits of that product with it.
        flip = ("eC", "col") if self.tiles > 1 else ()
        # One block holds every buffer, each on a 64-byte boundary.  Where
        # each had its own, the heap of a process that builds a fresh
        # enumerator per sample (the cavity stacks of ``htap1_residuals``)
        # was trimmed and faulted in again on every sample, or not, as the
        # heap's layout fell, so the minor faults per sample moved by tens
        # from one edit to the next.  One block keeps them few and steady.
        sizes = [-(-math.prod(shape) // 8) * 8 for shape in shapes.values()]
        block = _aligned_empty((sum(sizes),))
        work, at = {}, 0
        for (name, shape), size in zip(shapes.items(), sizes):
            stored = (shape[0], shape[2], shape[1]) if name in flip else shape
            work[name] = block[at : at + math.prod(shape)].reshape(stored)
            if name in flip:
                work[name] = work[name].transpose(0, 2, 1)
            at += size
        if "left" in work:
            work["left"][:, :, :high] = self.Sh
            work["left"][:, :, -1] = 1.0
        work["right"][:, -2] = 1.0
        return work


def _walsh(X: np.ndarray, scratch: np.ndarray) -> None:
    """Walsh-Hadamard transform of the C-ordered (2^bits, k) array X, in place:
    stage i maps each pair (lo, hi) of rows that differ in bit i to
    (lo + hi, hi - lo), hi - lo by way of ``scratch``, at least half X's size."""
    rows, k = X.shape
    for i in range(rows.bit_length() - 1):
        lo, hi = X.reshape(-1, 2, 1 << i, k).swapaxes(0, 1)
        d = scratch[: X.size >> 1].reshape(lo.shape)
        np.subtract(hi, lo, out=d)
        lo += hi
        hi[...] = d


def _aligned_empty(shape: tuple) -> np.ndarray:
    """Uninitialized float64 array whose data starts on a 64-byte boundary.

    Every chunk of a pass writes and reads the workspace.  Where its buffers
    sat at the 16-byte offsets of plain heap blocks, passes over small
    systems, such as the clamped systems of the Ito check, ran slower.
    """
    size = math.prod(shape)
    buf = np.empty(size + 7)
    start = (-buf.ctypes.data % 64) // 8
    return buf[start : start + size].reshape(shape)


def _each(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """M @ x for every row x of the stack X, as one BLAS call per row."""
    return (M @ X[:, :, None])[:, :, 0]


# Most active sites an exact enumeration accepts: 2^24 states per pass.
ENUM_CAP = 24


def _reduce_system(cm: CouplingMatrix, params: ModelParams, clamped: Mapping[int, int] | None):
    """Active site list, coupling block and effective fields of the measure
    with the sites of ``clamped`` held at their +-1 values, the full one for
    None.

    Clamped sites j add g_ij * tau_j to the field of every active site i, in
    the order of ``clamped``; constant terms (fields/couplings among clamped
    sites) are not part of the reduced Hamiltonian.
    """
    clamped = clamped or {}
    if cm.n != params.n:
        raise ValueError(f"coupling matrix size {cm.n} != params n {params.n}")
    _check_sites(params.n, *clamped)
    for i, s in clamped.items():
        if s not in (-1, 1):
            raise ValueError(f"clamped spin at site {i} must be +-1, got {s}")
    active = np.array(sorted(set(range(params.n)) - set(clamped)), dtype=np.intp)
    if active.size > ENUM_CAP:
        raise ValueError(f"{active.size} active sites exceed enum_cap={ENUM_CAP}")
    G = cm.entries
    h_eff = params.field[active].copy()
    for j, tau in clamped.items():
        h_eff += G[active, j] * tau
    g_act = G[np.ix_(active, active)]
    return active, g_act, h_eff


def _enumerated(cm, params, clamped, want_pair):
    """Active sites and raw moments of one enumeration of the measure with
    ``clamped`` held, the full one for None."""
    active, g_act, h_eff = _reduce_system(cm, params, clamped)
    return active, BlockEnumerator(g_act).moments(h_eff[None], want_pair).row(0)


def _placed(n: int, clamped, active: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The magnetizations ``m`` of the active sites at full length n, where
    clamped sites carry their value."""
    full = np.empty(n)
    full[active] = m
    for i, tau in (clamped or {}).items():
        full[i] = float(tau)
    return full


def magnetizations(
    cm: CouplingMatrix,
    params: ModelParams,
    clamped: Mapping[int, int] | None = None,
) -> np.ndarray:
    """Magnetization vector only: cheaper than full tables, as the pass
    forms no pair matrix.

    Full length n: clamped sites carry their value.
    """
    active, raw = _enumerated(cm, params, clamped, want_pair=False)
    return _placed(params.n, clamped, active, raw.mag)


@functools.cache
def _cavity_order(n: int) -> tuple:
    """The site order of each of the n cavity systems of an n-site sample,
    (n, n - 1), and where each place of it goes in the flat (n, n - 1)
    array of the sites other than i in site order.  Row i of the order
    lists the other sites of i's group first, then every site outside the
    group, each in site order.

    A group is a run of cap + 1 sites, cap = ``_low_cap(n - 1)`` the most
    low left sites of a cavity: the cavities of one group then differ in
    their low left sites only, so they share their high-left and right
    couplings and right fields, and with them one D grid of the block pass.
    """
    size = _low_cap(n - 1) + 1
    sites = np.arange(n)
    others = np.arange(n - 1) + (np.arange(n - 1) >= sites[:, None])
    outside = others // size != (sites // size)[:, None]
    order = np.take_along_axis(others, np.argsort(outside, axis=1, kind="stable"), axis=1)
    # site j of cavity i sits at place j - (j > i) of the site order
    place = (order - (order > sites[:, None]) + (n - 1) * sites[:, None]).reshape(-1)
    order.setflags(write=False)
    place.setflags(write=False)
    return order, place


def cavity_magnetizations(cm: CouplingMatrix, params: ModelParams) -> np.ndarray:
    """The magnetizations m^{(i)} of every cavity system, the system of the
    n - 1 sites other than i, as an (n, n - 1) array whose row i lists them
    in site order.

    One stacked enumeration runs every cavity in the group order of
    ``_cavity_order``, so the cavities of one group share one D grid where
    their run fits the chunk budget, and each runs alone where it does not
    (``_Layout.most``)."""
    order, place = _cavity_order(params.n)
    stack = BlockEnumerator(cm.entries[order[:, :, None], order[:, None, :]])
    h = params.field[order]
    stack.moments(h, want_pair=False, out=h)
    cav = np.empty_like(h)
    cav.reshape(-1)[place] = h.reshape(-1)
    return cav


def gibbs_tables(
    cm: CouplingMatrix,
    params: ModelParams,
    clamped: Mapping[int, int] | None = None,
) -> GibbsTables:
    """All one- and two-point observables of the (clamped) measure in one pass."""
    active, raw = _enumerated(cm, params, clamped, want_pair=True)
    n = params.n
    # the rows and columns of clamped sites stay 0, and the diagonal is
    # 1 - m_i^2 already: ``second`` holds exactly 1 there
    pair = np.zeros((n, n))
    pair[np.ix_(active, active)] = raw.second - np.outer(raw.mag, raw.mag)
    return GibbsTables(log_z=raw.log_z, m=_placed(n, clamped, active, raw.mag), pair=pair)


def _local_index(active: np.ndarray, site: int) -> int:
    pos = np.searchsorted(active, site)
    if pos >= active.size or active[pos] != site:
        raise ValueError(f"site {site} is not active in this reduced measure")
    return int(pos)


def clamped_moments(G: np.ndarray, H, F):
    """Centred moments ``(m, pairs, triple)`` under the K field rows of ``H``
    at every site l, by clamping the sites ``F``: the (K, na) magnetizations,
    the (K, na) truncated column <(s_{F[a]} - m)(s_l - m)> as ``pairs[a]``,
    and the (K, na) <(s_{F[0]} - m)(s_{F[1]} - m)(s_l - m)>, None for one
    site.  On F a clamped system's moment is tau, and tau^2 = 1 gives the
    diagonal conventions m_jj = 1 - m_j^2, pinned exactly as the pair pass
    pins it, and m_jkj = -2 m_j m_jk.

    One magnetizations-only ``BlockEnumerator.moments`` call enumerates the
    other sites with F clamped all 2^|F| ways tau.  Each clamped system counts
    with weight Z_tau exp(tau.h_F + tau.G_FF.tau / 2), and a Walsh-Hadamard
    transform over tau mixes them back.  Every step is elementwise, so a
    row's bits do not depend on the other rows.

    The stack lives in one (na, states, K) mix, held once: its first rows
    belong to the sites F, the others to the free sites, which first hold
    the clamped fields, site-major, and which the pass overwrites in place
    with the magnetizations (``out``).  Unless F leads the sites in order,
    swaps of two rows then put the mix in site order, once the pass's block
    is freed.  ``m`` is a view of the mix, site-major: a sum over its sites
    runs in the order of that layout.
    """
    H, F = np.atleast_2d(H), list(F)
    (K, na), states = H.shape, 1 << len(F)
    rest = [a for a in range(na) if a not in F]
    tau = _sign_matrix(len(F))[:, ::-1]  # site F[a] on bit a of the configuration
    G_F = G[F]
    mix = np.empty((na, states, K))
    free = mix[len(F) :]
    np.add(H[:, rest].T[:, None], (tau @ G_F[:, rest]).T[:, :, None], out=free)
    fields = free.reshape(len(rest), states * K).T
    raw = BlockEnumerator(G[rest][:, rest]).moments(fields, want_pair=False, out=fields)
    w = raw.log_z.reshape(states, K)  # becomes each system's share of the weight
    w += 0.5 * ((tau @ G_F[:, F]) * tau).sum(axis=1)[:, None]
    for a, site in enumerate(F):
        # tau = +-1, so w + tau h is w + h or w - h: the same bits, in place,
        # with no temporary while the pass's block is held (and no view of
        # it left behind, which would hold the block past the ``del`` below)
        for s in range(states):
            (np.add if tau[s, a] > 0 else np.subtract)(w[s], H[:, site], out=w[s])
    w -= w.max(axis=0)
    np.exp(w, out=w)
    w /= w.sum(axis=0)
    mix[: len(F)] = tau.T[:, :, None]
    mix *= w
    del raw, w  # free the pass's block before the scratch and the centring
    at = F + rest  # the site of each row: into site order, a swap of two rows at a time
    for a in range(na):
        while at[a] != a:
            b = at[a]
            mix[[a, b]] = mix[[b, a]]
            at[a], at[b] = at[b], at[a]
    scratch = np.empty((states >> 1) * K)
    for site in mix:
        _walsh(site, scratch)
    r = mix.transpose(1, 2, 0)  # r[S]: <s_S s_l>, S a bit mask over F
    m = r[0]
    pairs = np.empty((len(F), na, K)).transpose(0, 2, 1)  # site-major, as m
    for a, site in enumerate(F):
        np.multiply(m[:, site, None], m, out=pairs[a])
        np.subtract(r[1 << a], pairs[a], out=pairs[a])
        # <s_F[a]^2> is exactly 1, which the mix reaches only up to rounding
        pairs[a][:, site] = 1.0 - m[:, site] * m[:, site]
    if len(F) < 2:
        return m, pairs, None
    ma, mb, r_ab = m[:, F[0], None], m[:, F[1], None], r[1][:, F[1], None]
    triple = r[3] - ma * r[2] - mb * r[1] - m * r_ab + 2.0 * ma * mb * m
    # m_jkj = -2 m_j m_jk and m_jkk = -2 m_k m_jk exactly, as for M_jj above
    for site in F:
        triple[:, site] = -2.0 * m[:, site] * pairs[0][:, F[1]]
    return m, pairs, triple


def pair_column(cm: CouplingMatrix, params: ModelParams, j: int):
    """The magnetizations m and column j of the pair matrix M of the full
    measure, M_jj = 1 - m_j^2, by clamping j (``clamped_moments``): one
    magnetizations-only pass over the two systems of the other n - 1 sites,
    in place of the pair pass of ``gibbs_tables`` that gives all of M."""
    _check_sites(params.n, j)
    _, G, h = _reduce_system(cm, params, None)
    m, (col,), _ = clamped_moments(G, h, (j,))
    return m[0], col[0]


def triple_correlation(
    cm: CouplingMatrix,
    params: ModelParams,
    clamped: Mapping[int, int] | None,
    i: int,
    j: int,
    k: int,
) -> float:
    """Centered three-point function <(s_i - m_i)(s_j - m_j)(s_k - m_k)>.

    Exact, from one enumeration of the measure with ``clamped`` held and i
    and j clamped all four ways (``clamped_moments``), magnetizations only.
    The indices must be three distinct active sites.
    """
    if len({i, j, k}) != 3:
        raise ValueError(f"triple indices must be distinct, got ({i}, {j}, {k})")
    active, g_act, h_eff = _reduce_system(cm, params, clamped)
    la, lb, lc = (_local_index(active, s) for s in (i, j, k))
    return float(clamped_moments(g_act, h_eff, (la, lb))[2][0, lc])


def key_identity_residual(
    cm: CouplingMatrix,
    params: ModelParams,
    clamped: Mapping[int, int],
    i: int,
    j: int,
    k: int | None = None,
) -> tuple[float, float | None]:
    """Residuals ``(pair, triple)`` of the conditional identities under
    clamping; ``triple`` is None without k.

    With A the clamped configuration, the pair identity states
    m_ij^[A] = (1 - (m_i^[A])^2) * delta_i m_j^[A u {i}] and the triple
    identity states
    m_ijk^[A] = (1 - (m_i^[A])^2) * delta_i m_jk^[A u {i}]
                - 2 m_i^[A] m_ik^[A] * delta_i m_j^[A u {i}].
    Both read one set of tables: the measure A and A with sigma_i = +-1
    (three pair passes), plus the clamped triple for k.  Both hold exactly
    for +-1 spins, so each residual is pure float noise.
    """
    targets = {i, j} if k is None else {i, j, k}
    _check_sites(params.n, *targets)
    if len(targets) != (2 if k is None else 3):
        raise ValueError("identity indices must be distinct")
    if targets & set(clamped):
        raise ValueError("identity indices must not be clamped")
    base = gibbs_tables(cm, params, clamped)
    up = gibbs_tables(cm, params, {**clamped, i: +1})
    down = gibbs_tables(cm, params, {**clamped, i: -1})
    var_i = 1.0 - base.m[i] ** 2
    delta_mj = 0.5 * (up.m[j] - down.m[j])
    pair = float(base.pair[i, j] - var_i * delta_mj)
    if k is None:
        return pair, None
    delta_mjk = 0.5 * (up.pair[j, k] - down.pair[j, k])
    mijk = triple_correlation(cm, params, clamped, i, j, k)
    return pair, float(mijk - var_i * delta_mjk + 2.0 * base.m[i] * base.pair[i, k] * delta_mj)


def susceptibility_fd(
    cm: CouplingMatrix,
    params: ModelParams,
    i: int,
    j: int,
    step: float = 1e-5,
) -> float:
    """Central finite difference d m_i / d h_j of the full measure.

    Agrees with the truncated correlation pair[i, j] up to O(step^2); each
    side reads the magnetizations only.
    """
    if step <= 0:
        raise ValueError(f"step must be > 0, got {step}")
    _check_sites(params.n, i)
    up = magnetizations(cm, params.bumped_field(j, +step))
    down = magnetizations(cm, params.bumped_field(j, -step))
    return float((up[i] - down[i]) / (2.0 * step))


def coupling_derivative_residual(
    cm: CouplingMatrix,
    params: ModelParams,
    i: int,
    l: int,
    k: int,
    step: float = 1e-5,
) -> float:
    """Finite-difference check of d m_k / d g_il = m_i m_kl + m_l m_ik + m_ilk.

    The bond g_il is bumped once (both symmetric storage slots move, the
    energy counts the pair once), and the bumped passes read m only.  The
    right-hand side clamps i and l in the full measure, which gives k = i
    and k = l the conventions m_kk = 1 - m_k^2 and m_ilk|_{k=i} = -2 m_i m_il.
    """
    if i == l:
        raise ValueError("coupling indices must satisfy i != l")
    if step <= 0:
        raise ValueError(f"step must be > 0, got {step}")
    _check_sites(params.n, k)
    up = magnetizations(cm.bumped(i, l, +step), params)
    down = magnetizations(cm.bumped(i, l, -step), params)
    fd = (up[k] - down[k]) / (2.0 * step)
    _, G, h = _reduce_system(cm, params, None)
    m, (pair_i, pair_l), m_ilk = clamped_moments(G, h, (i, l))
    rhs = m[0, i] * pair_l[0, k] + m[0, l] * pair_i[0, k] + m_ilk[0, k]
    return float(fd - rhs)
