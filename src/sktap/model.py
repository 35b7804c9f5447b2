"""Model parameters and Gaussian disorder for the SK spin glass.

The Hamiltonian is H(sigma) = sum_{i<j} g_ij sigma_i sigma_j + sum_i h_i sigma_i
with couplings g_ij i.i.d. N(0, t/n), g_ii = 0.  The couplings can be drawn
either as a static symmetric matrix or as a discretized Brownian path in the
interaction time, with the path running at speed 1/n so that its value at
time s has entry variance s/n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1

# Largest field energy sum_i |h_i|: a pass spans log-weights over about
# 2 sum_i |h_i| plus the coupling energy, which gets the other half of the
# float64 range.  Largest t: a squared pair residual grows like n t, and an
# ensemble squares each sample's scalar again in its variance.
_FIELD_ENERGY_MAX = float(np.finfo(np.float64).max) / 4
_T_MAX = float(np.finfo(np.float64).max) ** 0.25


def _mix64(z: int) -> int:
    """SplitMix64 finalizer: avalanching 64-bit integer hash."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def substream_seed(master_seed: int, *indices: int) -> int:
    """Derive a reproducible 64-bit substream seed from (master_seed, indices).

    Each index word is avalanched through the SplitMix64 finalizer and folded
    into the running state, so substreams are independent of the order in
    which replicas are evaluated.  This is the single seeding convention used
    by all ensemble drivers.
    """
    state = _mix64(master_seed & _MASK64)
    for ix in indices:
        state = _mix64(state ^ _mix64(ix & _MASK64))
    return state


def _check_sites(n: int, *sites: int) -> None:
    """Reject any site outside 0..n-1; negative indices do not wrap around."""
    for i in sites:
        if not 0 <= i < n:
            raise ValueError(f"site {i} out of range for n={n}")


def _check_index(what: str, k: int, count: int) -> None:
    """Reject k outside 0..count-1; negative indices do not wrap around."""
    if not 0 <= k < count:
        raise ValueError(f"{what} {k} out of range 0..{count - 1}")


@dataclass
class ModelParams:
    """System size, coupling variance scale t and per-site fields.

    t plays the role of the squared inverse temperature; the couplings have
    variance t/n.  The field is per-site to support finite-difference
    susceptibility checks; the uniform-field case is the physical default.
    """

    n: int
    t: float
    field: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 0 <= self.t <= _T_MAX:
            raise ValueError(f"t must be finite, >= 0 and <= {_T_MAX:.3e}, got {self.t}")
        self.t = self.t + 0.0  # -0.0 becomes 0.0: numpy's normal refuses the scale sqrt(-0.0)
        f = np.asarray(self.field, dtype=np.float64)
        if f.shape != (self.n,):
            raise ValueError(f"field must have length n={self.n}, got shape {f.shape}")
        if not np.all(np.isfinite(f)):
            raise ValueError("field must be finite at every site")
        energy = float(np.sum(np.abs(f) / self.n)) * self.n  # a float64 sum could overflow
        if not energy <= _FIELD_ENERGY_MAX:
            raise ValueError(f"field energy sum |h_i| = {energy:.3e} exceeds "
                             f"{_FIELD_ENERGY_MAX:.3e}, past which the log-weights overflow")
        f = f.copy()
        f.setflags(write=False)
        self.field = f

    @classmethod
    def uniform(cls, n: int, t: float, h: float) -> "ModelParams":
        """Uniform external field h at every site."""
        return cls(n=n, t=float(t), field=np.full(n, float(h)))

    def bumped_field(self, j: int, delta: float) -> "ModelParams":
        """Copy of the parameters with field[j] shifted by delta."""
        _check_sites(self.n, j)
        f = np.array(self.field)
        f[j] += delta
        return ModelParams(n=self.n, t=self.t, field=f)


@dataclass
class CouplingMatrix:
    """Symmetric coupling matrix with exactly zero diagonal."""

    n: int
    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=np.float64)
        if e.shape != (self.n, self.n):
            raise ValueError(f"entries must be {self.n}x{self.n}, got {e.shape}")
        if not np.isfinite(e).all():
            raise ValueError("entries must be finite")
        if not np.array_equal(e, e.T):
            raise ValueError("entries must be bit-identically symmetric")
        if np.any(np.diag(e) != 0.0):
            raise ValueError("diagonal entries must be exactly zero")
        e = e.copy()
        e.setflags(write=False)
        self.entries = e

    def bumped(self, i: int, j: int, delta: float) -> "CouplingMatrix":
        """Copy with the single logical coupling g_ij shifted by delta.

        Both symmetric storage slots move together; the bond still enters the
        energy once (the energy sums over i < j).
        """
        _check_sites(self.n, i, j)
        if i == j:
            raise ValueError("cannot bump a diagonal entry")
        e = np.array(self.entries)
        e[i, j] += delta
        e[j, i] = e[i, j]
        return CouplingMatrix(n=self.n, entries=e)


def sample_couplings(params: ModelParams, seed: int) -> CouplingMatrix:
    """Draw a symmetric zero-diagonal coupling matrix with N(0, t/n) entries.

    Upper-triangle entries are i.i.d.; the lower triangle mirrors them
    bit-identically.  Deterministic for fixed (params, seed).
    """
    n = params.n
    rng = np.random.default_rng(seed & _MASK64)
    upper = rng.normal(0.0, np.sqrt(params.t / n), size=n * (n - 1) // 2)
    return _symmetric(n, upper)


def _symmetric(n: int, upper: np.ndarray) -> CouplingMatrix:
    """The coupling matrix whose upper triangle holds ``upper`` in row-major
    (i < j) order, mirrored below it."""
    e = np.zeros((n, n))
    e[np.triu_indices(n, 1)] = upper
    return CouplingMatrix(n=n, entries=e + e.T)


@dataclass
class CouplingPath:
    """Couplings as discretized Brownian motions of speed 1/n on [0, t].

    ``increments`` holds, per grid step, the Gaussian increments of the
    upper-triangle couplings in row-major (i < j) order; each increment has
    variance (grid step)/n.  The path keeps only these: its value at grid
    point k, the sum of the first k increments in grid order, is summed when
    it is asked for, so the path starts at the zero matrix.
    """

    n: int
    grid: np.ndarray
    increments: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=np.float64)
        if g.ndim != 1 or g.size < 1 or g[0] != 0.0:
            raise ValueError("grid must be a 1d sequence starting at 0")
        if not np.all(np.isfinite(g)):
            raise ValueError("grid points must be finite")
        if np.any(np.diff(g) <= 0):
            raise ValueError("grid must be strictly increasing")
        npairs = self.n * (self.n - 1) // 2
        inc = np.ascontiguousarray(self.increments, dtype=np.float64)
        if inc.shape != (g.size - 1, npairs):
            raise ValueError(
                f"increments must have shape ({g.size - 1}, {npairs}), got {inc.shape}"
            )
        if not np.all(np.isfinite(inc)):
            raise ValueError("increments must be finite")
        self.grid = g
        self.increments = inc

    @property
    def steps(self) -> int:
        return self.grid.size - 1

    def terminal(self) -> CouplingMatrix:
        """Coupling matrix at the last grid point, time t: the sum of every
        increment, in grid order, as ``row_path`` sums it.

        A sum over the rows of the C-ordered increments adds them one row at
        a time and allocates only its result.  numpy sums a lone column
        (n = 2) pairwise instead, so that one takes its running total.
        """
        inc = self.increments
        if inc.shape[1] == 1:
            inc = np.cumsum(inc, axis=0)[-1:]
        return _symmetric(self.n, inc.sum(axis=0))

    def row_path(self, i: int) -> tuple:
        """Row i at every grid point and its increments over every segment.

        Returns arrays of shape (steps + 1, n) and (steps, n), zero in
        column i; row k of each equals ``row_at(i, k)`` and
        ``row_increment(i, k)``.
        """
        increments = np.insert(self.cavity_increments(i), i, 0.0, axis=1)
        rows = np.zeros((self.grid.size, self.n))
        np.cumsum(increments, axis=0, out=rows[1:])
        return rows, increments

    def cavity_increments(self, i: int) -> np.ndarray:
        """Row i's increments over every segment at the n - 1 other sites,
        site l > i in column l - 1, in C order: ``row_path(i)[1]`` without
        column i, gathered without the row path."""
        _check_sites(self.n, i)
        partner = np.delete(np.arange(self.n), i)
        lo, hi = np.minimum(partner, i), np.maximum(partner, i)
        # the row-major place of pair (lo, hi), lo < hi, among the upper pairs
        return np.take(self.increments, lo * (2 * self.n - lo - 1) // 2 + (hi - lo - 1), axis=1)

    def row_at(self, i: int, k: int) -> np.ndarray:
        """Row i of the coupling matrix at grid point k (length n, zero at i)."""
        _check_index("grid point", k, self.steps + 1)
        return self.row_path(i)[0][k]

    def row_increment(self, i: int, k: int) -> np.ndarray:
        """Increment of row i over grid segment k -> k+1 (length n, zero at i)."""
        _check_index("segment", k, self.steps)
        return self.row_path(i)[1][k]


def sample_path(params: ModelParams, steps: int, seed: int) -> CouplingPath:
    """Sample a Brownian coupling path on a uniform grid 0 = s_0 < ... < s_steps = t.

    Increments are independent N(0, ds/n); the terminal point is distributed
    like ``sample_couplings`` output.  Rejects steps < 1 and t <= 0.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if params.t <= 0:
        raise ValueError(f"path sampling needs t > 0, got t={params.t}")
    n = params.n
    npairs = n * (n - 1) // 2
    ds = params.t / steps
    rng = np.random.default_rng(seed & _MASK64)
    inc = rng.normal(0.0, np.sqrt(ds / n), size=(steps, npairs))
    grid = np.linspace(0.0, params.t, steps + 1)
    return CouplingPath(n=n, grid=grid, increments=inc)
