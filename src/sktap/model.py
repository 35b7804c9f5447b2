"""Model parameters and Gaussian disorder for the SK spin glass.

The Hamiltonian is H(sigma) = sum_{i<j} g_ij sigma_i sigma_j + sum_i h_i sigma_i
with couplings g_ij i.i.d. N(0, t/n), g_ii = 0.  The couplings can be drawn
either as a static symmetric matrix or as a discretized Brownian path in the
interaction time, with the path running at speed 1/n so that its value at
time s has entry variance s/n.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

_MASK64 = (1 << 64) - 1


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


@dataclass
class ModelParams:
    """System size, coupling variance scale t, per-site fields, enumeration cap.

    t plays the role of the squared inverse temperature; the couplings have
    variance t/n.  The field is per-site to support finite-difference
    susceptibility checks; the uniform-field case is the physical default.
    ``enum_cap`` bounds the number of active sites accepted by the exact
    enumeration routines (2^enum_cap states are visited).
    """

    n: int
    t: float
    field: np.ndarray
    enum_cap: int = 24

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.t < 0:
            raise ValueError(f"t must be >= 0, got {self.t}")
        if self.enum_cap < 1:
            raise ValueError(f"enum_cap must be >= 1, got {self.enum_cap}")
        f = np.asarray(self.field, dtype=np.float64)
        if f.shape != (self.n,):
            raise ValueError(f"field must have length n={self.n}, got shape {f.shape}")
        f = f.copy()
        f.setflags(write=False)
        self.field = f

    @classmethod
    def uniform(cls, n: int, t: float, h: float, enum_cap: int = 24) -> "ModelParams":
        """Uniform external field h at every site."""
        return cls(n=n, t=float(t), field=np.full(n, float(h)), enum_cap=enum_cap)

    def bumped_field(self, j: int, delta: float) -> "ModelParams":
        """Copy of the parameters with field[j] shifted by delta."""
        if not 0 <= j < self.n:
            raise ValueError(f"site {j} out of range for n={self.n}")
        f = np.array(self.field)
        f[j] += delta
        return ModelParams(n=self.n, t=self.t, field=f, enum_cap=self.enum_cap)


@dataclass
class CouplingMatrix:
    """Symmetric coupling matrix with exactly zero diagonal.

    ``t`` and ``seed`` are recorded when the matrix came from a sampler so a
    serialized matrix is self-describing; hand-built matrices may leave them
    as None.
    """

    n: int
    entries: np.ndarray
    t: float | None = None
    seed: int | None = None

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=np.float64)
        if e.shape != (self.n, self.n):
            raise ValueError(f"entries must be {self.n}x{self.n}, got {e.shape}")
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
        if i == j:
            raise ValueError("cannot bump a diagonal entry")
        e = np.array(self.entries)
        e[i, j] += delta
        e[j, i] = e[i, j]
        return CouplingMatrix(n=self.n, entries=e)

    def to_json(self) -> str:
        iu = np.triu_indices(self.n, 1)
        return json.dumps(
            {
                "n": self.n,
                "t": self.t,
                "seed": self.seed,
                "upper": [float(v) for v in self.entries[iu]],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "CouplingMatrix":
        obj = json.loads(text)
        n = int(obj["n"])
        e = np.zeros((n, n))
        iu = np.triu_indices(n, 1)
        upper = np.asarray(obj["upper"], dtype=np.float64)
        if upper.shape != iu[0].shape:
            raise ValueError("upper triangle has wrong length")
        e[iu] = upper
        e = e + e.T
        return cls(n=n, entries=e, t=obj.get("t"), seed=obj.get("seed"))


def sample_couplings(params: ModelParams, seed: int) -> CouplingMatrix:
    """Draw a symmetric zero-diagonal coupling matrix with N(0, t/n) entries.

    Upper-triangle entries are i.i.d.; the lower triangle mirrors them
    bit-identically.  Deterministic for fixed (params, seed).
    """
    n = params.n
    rng = np.random.default_rng(seed & _MASK64)
    iu = np.triu_indices(n, 1)
    vals = rng.normal(0.0, np.sqrt(params.t / n), size=iu[0].size)
    e = np.zeros((n, n))
    e[iu] = vals
    e = e + e.T
    return CouplingMatrix(n=n, entries=e, t=params.t, seed=seed)


@dataclass
class CouplingPath:
    """Couplings as discretized Brownian motions of speed 1/n on [0, t].

    ``increments`` holds, per grid step, the Gaussian increments of the
    upper-triangle couplings in row-major (i < j) order; each increment has
    variance (grid step)/n.  The path value at grid point k is the prefix sum
    of the first k increments, so the path starts at the zero matrix.
    """

    n: int
    grid: np.ndarray
    increments: np.ndarray
    seed: int | None = None
    _cum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=np.float64)
        if g.ndim != 1 or g.size < 1 or g[0] != 0.0:
            raise ValueError("grid must be a 1d sequence starting at 0")
        if np.any(np.diff(g) <= 0):
            raise ValueError("grid must be strictly increasing")
        npairs = self.n * (self.n - 1) // 2
        inc = np.asarray(self.increments, dtype=np.float64)
        if inc.shape != (g.size - 1, npairs):
            raise ValueError(
                f"increments must have shape ({g.size - 1}, {npairs}), got {inc.shape}"
            )
        self.grid = g
        self.increments = inc
        cum = np.zeros((g.size, npairs))
        if g.size > 1:
            np.cumsum(inc, axis=0, out=cum[1:])
        cum.setflags(write=False)
        self._cum = cum

    @classmethod
    def degenerate(cls, n: int) -> "CouplingPath":
        """Single-point path at time 0 (zero couplings, no increments)."""
        return cls(n=n, grid=np.zeros(1), increments=np.zeros((0, n * (n - 1) // 2)))

    @property
    def steps(self) -> int:
        return self.grid.size - 1

    def coarsened(self, factor: int) -> "CouplingPath":
        """Same Brownian motion on a grid coarsened by ``factor``.

        Consecutive increments are summed, so every retained grid point and
        in particular the terminal matrix agree with the fine path up to
        float summation order.  Used for paired grid-refinement comparisons.
        """
        if factor < 1 or self.steps % factor != 0:
            raise ValueError(f"factor {factor} must divide steps={self.steps}")
        if factor == 1:
            return self
        inc = self.increments.reshape(self.steps // factor, factor, -1).sum(axis=1)
        return CouplingPath(
            n=self.n, grid=self.grid[::factor], increments=inc, seed=self.seed
        )

    def matrix_at(self, k: int) -> CouplingMatrix:
        """Coupling matrix at grid point k (k may be negative, python-style)."""
        iu = np.triu_indices(self.n, 1)
        e = np.zeros((self.n, self.n))
        e[iu] = self._cum[k]
        e = e + e.T
        return CouplingMatrix(n=self.n, entries=e)

    def terminal(self) -> CouplingMatrix:
        return self.matrix_at(-1)

    def _row_columns(self, i: int) -> tuple:
        """Partner sites of row i and the increment columns of their couplings."""
        if not 0 <= i < self.n:
            raise ValueError(f"site {i} out of range for n={self.n}")
        partner = np.delete(np.arange(self.n), i)
        lo = np.minimum(partner, i)
        hi = np.maximum(partner, i)
        # row-major position of pair (lo, hi), lo < hi, among the upper pairs
        return partner, lo * (2 * self.n - lo - 1) // 2 + (hi - lo - 1)

    def row_path(self, i: int) -> tuple:
        """Row i at every grid point and its increments over every segment.

        Returns arrays of shape (steps + 1, n) and (steps, n), zero in
        column i; row k of each equals ``row_at(i, k)`` and
        ``row_increment(i, k)``.
        """
        partner, columns = self._row_columns(i)
        rows = np.zeros((self.grid.size, self.n))
        rows[:, partner] = self._cum[:, columns]
        increments = np.zeros((self.steps, self.n))
        increments[:, partner] = self.increments[:, columns]
        return rows, increments

    def row_at(self, i: int, k: int) -> np.ndarray:
        """Row i of the coupling matrix at grid point k (length n, zero at i)."""
        partner, columns = self._row_columns(i)
        row = np.zeros(self.n)
        row[partner] = self._cum[k, columns]
        return row

    def row_increment(self, i: int, k: int) -> np.ndarray:
        """Increment of row i over grid segment k -> k+1 (length n, zero at i)."""
        partner, columns = self._row_columns(i)
        row = np.zeros(self.n)
        row[partner] = self.increments[k, columns]
        return row


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
    return CouplingPath(n=n, grid=grid, increments=inc, seed=seed)
