"""Disorder-averaged experiments and finite-size scaling fits.

Each experiment in ``EXPERIMENTS`` maps one disorder sample to one scalar;
the driver averages the scalar over ``samples`` independent couplings at
every system size and fits log(mean) against log(n).  Per-sample RNG streams
are derived from (master_seed, n, sample index), so results are bit-identical
no matter how samples are scheduled, serially or across a process pool (the
reduction order is fixed by sample index).  ``map_samples`` is the one loop
over disorder samples: it serves ``sktap spectral`` too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import ItoCheckConfig, ito_decomposition_residual
from .errors import EnsembleSampleError, NumericalError
from .gibbs import ENUM_CAP, magnetizations, pair_column
from .model import ModelParams, sample_couplings, sample_path, substream_seed
from .spectral import resolvent_error
from .tap import (
    QUAD_NODES,
    gauss_hermite,
    htap1_residuals,
    htap2_residual,
    solve_q,
    tap1_residuals,
    tap2_residual,
)


@functools.cache
def reference_overlap(t: float, h: float, quad_nodes: int) -> float:
    """Replica-symmetric overlap q that ``qn_conc`` measures the spread around."""
    return solve_q(t, h, quad_nodes)


def _ito(cfg, params, seed) -> float:
    path = sample_path(params, cfg.ito_steps, seed)
    check = ItoCheckConfig(clamped_site=0, target_site=1)
    return float(ito_decomposition_residual(path, check, params))


def _qn_conc(cfg, params, seed) -> float:
    m = magnetizations(sample_couplings(params, seed), params)
    q_n = float(np.sum(m**2)) / params.n
    return (q_n - reference_overlap(cfg.t, cfg.h, cfg.quad_nodes)) ** 2


def _pair01(params, seed) -> float:
    _, col = pair_column(sample_couplings(params, seed), params, 1)
    return float(col[0])


# Experiment name -> scalar of one disorder sample, called as
# scalar(cfg, params, seed).  The entries look up the experiment functions
# as module globals at call time, so a replacement installed on this module
# (a test double, a tracing wrapper) is the one that runs.
EXPERIMENTS = {
    "htap1": lambda cfg, p, seed: htap1_residuals(sample_couplings(p, seed), p).mean_square,
    "htap2": lambda cfg, p, seed: htap2_residual(sample_couplings(p, seed), p, 0, 1) ** 2,
    "tap1": lambda cfg, p, seed: tap1_residuals(sample_couplings(p, seed), p).mean_square,
    "tap2": lambda cfg, p, seed: tap2_residual(sample_couplings(p, seed), p, 0, 1) ** 2,
    "qn_conc": _qn_conc,
    "mij_sq": lambda cfg, p, seed: p.n * _pair01(p, seed) ** 2,
    "mij_moment": lambda cfg, p, seed: abs(_pair01(p, seed)) ** cfg.moment_p,
    "ito": _ito,
    "spectral": lambda cfg, p, seed: resolvent_error(sample_couplings(p, seed), p),
}

# The experiments whose scalar reads sites 0 and 1, so every n must be >= 2.
_ON_SITES_01 = frozenset({"htap2", "tap2", "mij_sq", "mij_moment", "ito"})


@dataclass
class EnsembleConfig:
    """One scaling experiment: sizes, sample count, parameters, seeding."""

    n_values: tuple
    samples: int
    t: float
    h: float
    master_seed: int
    experiment: str
    moment_p: float = 2.1        # exponent for mij_moment (2 + eps, eps = 0.1)
    ito_steps: int = 64
    quad_nodes: int = QUAD_NODES
    workers: int = 1

    def __post_init__(self):
        self.n_values = tuple(int(n) for n in self.n_values)
        if len(self.n_values) == 0:
            raise ValueError("n_values must be nonempty")
        if any(b <= a for a, b in zip(self.n_values, self.n_values[1:])):
            raise ValueError("n_values must be strictly increasing")
        if any(n > ENUM_CAP for n in self.n_values):
            raise ValueError(f"all n_values must be <= enum_cap={ENUM_CAP}")
        if self.samples < 2:
            raise ValueError(f"samples must be >= 2, got {self.samples}")
        if self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; choose from {tuple(EXPERIMENTS)}"
            )
        least = 2 if self.experiment in _ON_SITES_01 else 1
        if self.n_values[0] < least:
            raise ValueError(
                f"experiment {self.experiment!r} needs every n >= {least}, got {self.n_values[0]}"
            )
        # the parameters every sample builds, checked before any sample runs
        ModelParams.uniform(self.n_values[-1], self.t, self.h)
        if self.experiment == "ito" and self.ito_steps < 2:
            raise ValueError(f"ito needs steps >= 2, got {self.ito_steps}")
        if self.experiment == "ito" and self.t <= 0:
            raise ValueError(f"ito samples a coupling path on [0, t], it needs t > 0, got {self.t}")
        if self.experiment == "mij_moment" and not 0 < self.moment_p < math.inf:
            raise ValueError(f"mij_moment needs a finite moment_p > 0, got {self.moment_p}")
        # qn_conc's samples read the rule, so a count numpy cannot build fails
        # here, before any sample; the other experiments never build it
        if self.experiment == "qn_conc":
            gauss_hermite(self.quad_nodes)
        elif self.quad_nodes < 1:
            raise ValueError(f"quad_nodes must be >= 1, got {self.quad_nodes}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass
class EnsembleStats:
    """Per-size statistics of the experiment scalar plus the log-log fit.

    ``per_n`` maps each n, in increasing order, to (mean, sample variance,
    standard error), with the standard error sqrt(variance / samples).
    ``fit`` is (slope, intercept, slope standard error) of log(mean) vs
    log(n), or None (a degenerate fit) for fewer than 3 sizes or when a mean
    is not above the rounding floor.
    """

    per_n: dict
    fit: tuple | None

    def loglog_text(self) -> str:
        """Plot-ready two-column file: log n, log mean (skips nonpositive means)."""
        lines = ["log_n,log_mean"]
        for n, (mean, _, _) in sorted(self.per_n.items()):
            if mean > 0:
                lines.append(f"{math.log(n):.17g},{math.log(mean):.17g}")
        return "\n".join(lines) + "\n"


def _guarded(sample, task: tuple):
    """One task's ("ok", sample(n, index, seed)) or ("err", message).

    Top-level so process pools can pickle it.  Numerical failures are
    reported as values to keep failure handling deterministic across
    schedulers; any other exception is a bug and propagates, chained to an
    error that names the sample to replay.
    """
    n, index, seed = task
    try:
        return "ok", sample(n, index, seed)
    except NumericalError as exc:  # deterministic error transport across workers
        return "err", f"{type(exc).__name__}: {exc}"
    except Exception as exc:
        raise RuntimeError(
            f"sample {index} at n={n} (seed={seed}) raised {type(exc).__name__}, "
            "which is a bug, not a numerical failure"
        ) from exc


def map_samples(sample, master_seed: int, n_values, samples: int, workers: int = 1) -> list:
    """``sample(n, index, seed)`` for indices 0 to samples - 1 at each n, in that
    order, seeded by ``substream_seed(master_seed, n, index)``.

    Maps in this process for one worker, else through one process pool, which
    must pickle ``sample``.  The first failed sample in task order aborts the
    run, its (n, index, seed) in the error.
    """
    tasks = [(n, k, substream_seed(master_seed, n, k)) for n in n_values for k in range(samples)]
    run = functools.partial(_guarded, sample)
    if workers > 1:
        # imported here: the pool module tree costs every one-worker process 1.6 MiB
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, samples // (4 * workers))
        # the pool starts all its processes at the first task: no more than there are tasks
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            results = list(pool.map(run, tasks, chunksize=chunk))
    else:
        results = map(run, tasks)  # lazy, so no sample runs after a failed one
    values = []
    for (n, index, seed), (status, value) in zip(tasks, results):
        if status != "ok":
            raise EnsembleSampleError(n, index, seed, value)
        values.append(value)
    return values


def _scalar(cfg, n, index, seed):
    """One sample's scalar; top-level, so a process pool can pickle it."""
    return EXPERIMENTS[cfg.experiment](cfg, ModelParams.uniform(n, cfg.t, cfg.h), seed)


def run_ensemble(cfg: EnsembleConfig) -> EnsembleStats:
    """Run the configured experiment over all sizes, on ``cfg.workers`` workers, and fit the decay."""
    values = map_samples(functools.partial(_scalar, cfg), cfg.master_seed, cfg.n_values,
                         cfg.samples, cfg.workers)
    per_n = {}
    for n, row in zip(cfg.n_values, np.reshape(values, (len(cfg.n_values), cfg.samples))):
        var = float(row.var(ddof=1))
        per_n[n] = (float(row.mean()), var, math.sqrt(var / cfg.samples))

    # Exactly-zero experiments (e.g. residuals at t = 0) produce squared
    # rounding noise ~1e-33; fitting a decay law to that is meaningless.
    floor = 1e-28
    means = [per_n[n][0] for n in cfg.n_values]
    if len(cfg.n_values) >= 3 and all(m > floor for m in means):
        return EnsembleStats(per_n, fit_power_law(list(zip(cfg.n_values, means))))
    return EnsembleStats(per_n, None)


def fit_power_law(points) -> tuple:
    """Least-squares slope/intercept of log y vs log n, with slope standard error.

    Needs at least 3 points, n and y finite and positive.  The standard error
    comes from the residual variance with len(points) - 2 >= 1 degrees of freedom.
    """
    pts = [(float(n), float(y)) for n, y in points]
    if len(pts) < 3:
        raise ValueError(f"need at least 3 points, got {len(pts)}")
    if not all(0 < v < math.inf for pt in pts for v in pt):
        raise ValueError("all n and y values must be finite and positive for a log-log fit")
    x = np.log(np.array([p[0] for p in pts]))
    y = np.log(np.array([p[1] for p in pts]))
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    if sxx == 0:
        raise ValueError("points must span more than one n")
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = float(ym - slope * xm)
    resid = y - (intercept + slope * x)
    dof = len(pts) - 2
    sigma2 = float(np.sum(resid**2) / dof)
    return slope, intercept, math.sqrt(sigma2 / sxx)
