"""Independent reference implementations used only by the tests.

Two references check the package's block enumeration engine:

* the naive oracle (``naive_tables``, ``naive_raw_moment``): pure-python
  loops, exact summation via math.fsum, direct evaluation of every
  configuration energy;
* the Gray-code engine (``GrayEnumerator``): a single-flip walk of the
  hypercube with an O(n) energy update per flip, then plain sums over the
  visited states.
  It has the stacked ``moments`` interface of ``sktap.gibbs.BlockEnumerator``,
  for one coupling block or a stack of them, output array included, so
  ``on_engine`` can put it in the block engine's place and the package's
  reduction, table assembly, cavity sweep, clamped mix and row-flow code run
  unchanged around it.
  Its walk ``gray_moments`` also sums keyed moments <s_F s_l> directly:
  centred in the tests, they are the reference for
  ``sktap.gibbs.clamped_moments``, which the package reaches by clamping F.

Neither shares enumeration or reduction code with the block engine, so
agreement is a genuine two-route check.  A third reference,
``two_buffer_walsh``, keeps the two-grid form of the engine's own
Walsh-Hadamard pass: the in-place pass must give its bits.  Two more check
the engine's products by halves directly: ``pair_energies`` sums the
interaction energy of every state term by term, and ``signed_sums`` sums
the weighted sign products of every state with ``math.fsum``, and
``first_fit_groups`` keeps the first-fit form of the block pass's group plan,
one unit at a time: the stretch-built plan must equal it.

The module also keeps the helpers that only the tests call: the derivative
``f_prime`` of the overlap map, the grid coarsening ``coarsened`` of a
coupling path and the cavity ``cavity_system`` of a site.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import pytest

import sktap.gibbs
from sktap import CouplingMatrix, CouplingPath, ModelParams
from sktap.gibbs import _RawMoments
from sktap.tap import QUAD_NODES, _sech, gauss_hermite


def naive_tables(g, h):
    """Direct enumeration of an Ising system: (log_z, m, pair, q_full).

    ``g`` is a symmetric zero-diagonal coupling matrix (nested sequences),
    ``h`` the per-site fields.  The pair matrix is the truncated correlation
    with diagonal 1 - m_i^2.  Weights are exp(H - max H); all sums use fsum.
    """
    n = len(h)
    configs = []
    energies = []
    for c in range(1 << n):
        sig = [1 if (c >> b) & 1 else -1 for b in range(n)]
        terms = [g[i][j] * sig[i] * sig[j] for i in range(n) for j in range(i + 1, n)]
        terms += [h[i] * sig[i] for i in range(n)]
        configs.append(sig)
        energies.append(math.fsum(terms))
    shift = max(energies)
    weights = [math.exp(e - shift) for e in energies]
    z = math.fsum(weights)
    log_z = math.log(z) + shift
    m = [math.fsum(w * sig[i] for w, sig in zip(weights, configs)) / z for i in range(n)]
    pair = [[0.0] * n for _ in range(n)]
    for i in range(n):
        pair[i][i] = 1.0 - m[i] ** 2
        for j in range(i + 1, n):
            raw = math.fsum(w * sig[i] * sig[j] for w, sig in zip(weights, configs)) / z
            pair[i][j] = raw - m[i] * m[j]
            pair[j][i] = pair[i][j]
    q_full = math.fsum(v * v for v in m) / n
    return log_z, m, pair, q_full


@dataclass
class GrayMoments(_RawMoments):
    """The fields of a row of ``BlockEnumerator.moments`` and the keyed sums
    of ``gray_moments``."""

    cols: dict = field(default_factory=dict)


def gray_moments(G, h, want_pair=True, cols=()) -> GrayMoments:
    """Raw moments of one system by a single-flip Gray-code walk.

    The same fields as a row of ``BlockEnumerator.moments``: log Z, the
    magnetizations and the second moment if ``want_pair``; and for each
    ``cols`` key F, summed directly over the walk, the vector <s_F s_l>
    over every site l, whose entry c of a two-site key (a, b) is the
    three-point moment <s_a s_b s_c>.

    The walk starts from the all-down state; step k flips the bit at the
    ruler position ctz(k).  Energies follow from the local fields
    phi_b = sum_j g_bj sigma_j, which are updated incrementally per flip.
    Every 16 flips the fields and the energy are recomputed from the
    state, so the rounding of the updates cannot build up over the 2^na
    flips: at |H| ~ 400 and na = 18 it would reach a few 1e-12 in m.
    """
    na = h.size
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
        if k % 16 == 0:
            phi = G @ sig
            hcur = 0.5 * float(sig @ phi) + float(h @ sig)
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
        raw = S.T @ (w[:, None] * S) / zsum
        upper = np.triu(raw, 1)
        second = upper + upper.T + np.eye(na)
    col_vals = {}
    for key in cols:
        prod = w.copy()
        for a in key:
            prod *= S[:, a]
        col_vals[key] = S.T @ prod / zsum
    return GrayMoments(log_z, mag, second, col_vals)


class GrayEnumerator:
    """Drop-in for ``BlockEnumerator``: one Gray-code walk per stacked field,
    behind the same ``moments(h, want_pair, out)``.

    ``G`` is one coupling block, which every field row uses, or a stack of
    K blocks, (K, na, na), whose block r walks with field row r.  ``out``
    receives the magnetizations once every walk has read its fields, so it
    may be ``h`` itself, as for the block engine.
    """

    def __init__(self, G):
        self.G = G if G.ndim == 3 else G[None]

    def moments(self, h, want_pair=True, out=None) -> _RawMoments:
        H = np.atleast_2d(np.asarray(h, dtype=np.float64))
        blocks = self.G if len(self.G) > 1 else [self.G[0]] * len(H)
        if len(blocks) != len(H):
            raise ValueError(f"{len(H)} field rows for a stack of {len(blocks)} coupling blocks")
        points = [gray_moments(G, row, want_pair) for G, row in zip(blocks, H)]
        mag = np.array([p.mag for p in points])
        if out is not None:
            out[...] = mag
        return _RawMoments(
            np.array([p.log_z for p in points]),
            mag if out is None else out,
            np.array([p.second for p in points]) if want_pair else None,
        )


def two_buffer_walsh(E, H, want_pair=True) -> _RawMoments:
    """The Walsh-Hadamard pass of ``sktap.gibbs.BlockEnumerator`` as it ran
    in two full grids, the reference for the in-place pass.

    ``E`` holds the interaction energy of every state, one column per
    coupling block (one column serves every row of ``H``).  The whole stack
    runs in one pair of (2^na, K) grids, and each butterfly stage writes
    both lo + hi and hi - lo into the other grid, so no entry is read after
    it is overwritten.
    """
    k, na = H.shape
    X, Y = np.empty((2, 1 << na, k))
    Y[0] = 0.0
    for i, h in enumerate(H.T[::-1]):
        np.add(Y[: 1 << i], h, out=Y[1 << i : 2 << i])
        Y[: 1 << i] -= h
    np.add(E, Y, out=X)
    shift = X.max(axis=0)
    X -= shift
    np.exp(X, out=X)
    for i in range(na):
        lo, hi = X.reshape(-1, 2, 1 << i, k).swapaxes(0, 1)
        dst = Y.reshape(-1, 2, 1 << i, k)
        np.add(lo, hi, out=dst[:, 0])
        np.subtract(hi, lo, out=dst[:, 1])
        X, Y = Y, X
    z = X[0]
    bits = 1 << np.arange(na)[::-1]
    second = (X[bits[:, None] ^ bits] / z).transpose(2, 0, 1) if want_pair else None
    return _RawMoments(np.log(z) + shift, (X[bits] / z).T, second)


def pair_energies(G):
    """Interaction energy 0.5 s.G.s = sum_{i<j} G_ij s_i s_j of every state s,
    in the order of ``sktap.gibbs._sign_matrix(k)``, for each block of a
    (K, k, k) stack G, as a (K, 2^k) array.

    Each term is exact (a sign times G_ij), and the terms are summed with
    Neumaier's compensation, so every energy is correct to about one
    rounding of its value, whatever the order of the pairs.
    """
    K, k = G.shape[0], G.shape[-1]
    # site j on bit k-1-j of the state index, as in the engine's sign matrices
    bits = np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1)
    signs = 2.0 * (bits & 1) - 1.0
    total, carry = np.zeros((K, 1 << k)), np.zeros((K, 1 << k))
    for i in range(k):
        for j in range(i + 1, k):
            term = G[:, i, j, None] * (signs[:, i] * signs[:, j])
            t = total + term
            carry += np.where(np.abs(total) >= np.abs(term), (total - t) + term, (term - t) + total)
            total = t
    return total + carry


def signed_sums(w, k):
    """sum_s w[s] s s^T for each row of the (K, 2^k) state weights w, states
    in the order of ``sktap.gibbs._sign_matrix(k)``, each entry summed by
    ``math.fsum``: its terms are exact (a weight times +-1), so the entry is
    correctly rounded."""
    bits = np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1)
    signs = 2.0 * (bits & 1) - 1.0
    out = np.empty((len(w), k, k))
    for r, row in enumerate(w):
        for i in range(k):
            for j in range(k):
                out[r, i, j] = math.fsum((row * signs[:, i] * signs[:, j]).tolist())
    return out


def first_fit_groups(units, per):
    """(systems, runs, length) of each group of a chunk's run lengths
    ``units``, as ``sktap.gibbs._groups`` plans them: from the first unit not
    yet placed, every next unit of its length, up to ``per`` units."""
    groups, q, s = [], 0, 0
    while q < len(units):
        e = q + 1
        while e < len(units) and e - q < per and units[e] == units[q]:
            e += 1
        stop = s + (e - q) * units[q]
        groups.append((slice(s, stop), slice(q, e), units[q]))
        q, s = e, stop
    return groups


def on_engine(engine, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` on the ``"block"`` engine or the ``"gray"`` reference.

    The Gray engine takes the block engine's place wherever the package
    looks it up, for the duration of the call.
    """
    if engine == "block":
        return fn(*args, **kwargs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sktap.gibbs, "BlockEnumerator", GrayEnumerator)
        return fn(*args, **kwargs)


def naive_raw_moment(g, h, indices):
    """Raw moment <sigma_{i1} ... sigma_{ik}> by direct enumeration."""
    n = len(h)
    num_terms = []
    den_terms = []
    energies = []
    sigs = []
    for c in range(1 << n):
        sig = [1 if (c >> b) & 1 else -1 for b in range(n)]
        terms = [g[i][j] * sig[i] * sig[j] for i in range(n) for j in range(i + 1, n)]
        terms += [h[i] * sig[i] for i in range(n)]
        energies.append(math.fsum(terms))
        sigs.append(sig)
    shift = max(energies)
    for e, sig in zip(energies, sigs):
        w = math.exp(e - shift)
        prod = 1.0
        for ix in indices:
            prod *= sig[ix]
        num_terms.append(w * prod)
        den_terms.append(w)
    return math.fsum(num_terms) / math.fsum(den_terms)


class Kahan:
    """Compensated accumulator, the reference for the partial sums of
    ``sktap.dynamics.ito_decomposition_trace``."""

    __slots__ = ("total", "carry")

    def __init__(self):
        self.total = 0.0
        self.carry = 0.0

    def add(self, x: float) -> None:
        y = x - self.carry
        t = self.total + y
        self.carry = (t - self.total) - y
        self.total = t


def halvings_last_true(holds, lo, hi):
    """``sktap.tap._last_true`` without its early stop: 200 plain halvings."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo


def exact_trace_root(lam, t, e, s):
    """The root of S = n^-1 sum 1/(lam_i - e - t S) next to the float s, as a Fraction.

    Two Newton steps from s in exact rational arithmetic: from a root good to
    a few ulps they leave an error near 1e-60.
    """
    ds = [Fraction(float(v)) - Fraction(e) for v in lam]
    root = Fraction(s)
    for _ in range(2):
        inverse = [1 / (d - Fraction(t) * root) for d in ds]
        excess = root - sum(inverse) / len(ds)
        slope = 1 - Fraction(t) * sum(x * x for x in inverse) / len(ds)
        root -= excess / slope
    return root


def bisect_fixed_point(t, h, expect_fn, tol=1e-13):
    """Bisection root of q - E tanh^2(h + sqrt(t q) Z) on [0, 1].

    ``expect_fn(fn)`` must return the Gaussian expectation of ``fn``; the
    caller supplies an integrator (a dense quadrature or similar).
    """

    def gap(q):
        return q - expect_fn(lambda z: math.tanh(h + math.sqrt(t * q) * z) ** 2)

    lo, hi = 0.0, 1.0
    if gap(0.0) >= 0.0:
        return 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(mid) <= 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def ks_two_sample(x, y):
    """Two-sample Kolmogorov-Smirnov statistic and its 1% critical value."""
    xs = sorted(x)
    ys = sorted(y)
    nx, ny = len(xs), len(ys)
    ix = iy = 0
    d = 0.0
    while ix < nx and iy < ny:
        if xs[ix] <= ys[iy]:
            ix += 1
        else:
            iy += 1
        d = max(d, abs(ix / nx - iy / ny))
    crit = 1.628 * math.sqrt((nx + ny) / (nx * ny))  # alpha = 0.01
    return d, crit


def f_prime(x, t, h, nodes=QUAD_NODES):
    """Derivative of the overlap map: t E (1 - 2 sinh^2 y)/cosh^4 y at y = h + sqrt(t x) Z.

    Evaluated as sech^4 - 2 tanh^2 sech^2, which stays finite for any y.
    Satisfies |f'(x)| <= t everywhere, the contraction bound behind the
    uniqueness of ``sktap.solve_q``'s fixed point for t < 1.
    """
    z, w = gauss_hermite(nodes)
    y = h + math.sqrt(t * x) * z
    s2 = _sech(y) ** 2
    return t * float(w @ (s2 * s2 - 2.0 * (np.tanh(y) ** 2) * s2))


def coarsened(path, factor):
    """The Brownian motion of ``path`` on its grid coarsened by ``factor``.

    Consecutive increments are summed, so every retained grid point and in
    particular the terminal matrix agree with the fine path up to float
    summation order: the coarse half of a paired grid-refinement comparison.
    """
    if factor < 1 or path.steps % factor != 0:
        raise ValueError(f"factor {factor} must divide steps={path.steps}")
    if factor == 1:
        return path
    inc = path.increments.reshape(path.steps // factor, factor, -1).sum(axis=1)
    return CouplingPath(n=path.n, grid=path.grid[::factor], increments=inc)


def cavity_system(cm, params, i):
    """The cavity of site i as a system of its own: the couplings and fields
    of the n - 1 other sites, in site order, so site l > i sits at l - 1."""
    others = [site for site in range(params.n) if site != i]
    return (
        CouplingMatrix(params.n - 1, cm.entries[np.ix_(others, others)]),
        ModelParams(params.n - 1, params.t, params.field[others]),
    )
