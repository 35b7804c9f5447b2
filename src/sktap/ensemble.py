"""Disorder-averaged experiments and finite-size scaling fits.

Each experiment maps one disorder sample to one scalar; the driver averages
the scalar over ``samples`` independent couplings at every system size and
fits log(mean) against log(n).  Per-sample RNG streams are derived from
(master_seed, n, sample index), so results are bit-identical no matter how
samples are scheduled, serially or across a process pool (the reduction
order is fixed by sample index).
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dynamics import ItoCheckConfig, ito_decomposition_residual
from .errors import EnsembleSampleError, NumericalError
from .gibbs import gibbs_tables
from .model import ModelParams, sample_couplings, sample_path, substream_seed
from .spectral import resolvent_error
from .tap import (
    QuadratureRule,
    htap1_residuals,
    htap2_residual,
    solve_q,
    tap1_residuals,
    tap2_residual,
)

EXPERIMENTS = (
    "htap1",
    "htap2",
    "tap1",
    "tap2",
    "qn_conc",
    "mij_sq",
    "mij_moment",
    "ito",
    "spectral",
)


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
    enum_cap: int = 24
    quad_nodes: int = 61
    workers: int = 1

    def __post_init__(self):
        self.n_values = tuple(int(n) for n in self.n_values)
        if len(self.n_values) == 0:
            raise ValueError("n_values must be nonempty")
        if any(b <= a for a, b in zip(self.n_values, self.n_values[1:])):
            raise ValueError("n_values must be strictly increasing")
        if any(n > self.enum_cap for n in self.n_values):
            raise ValueError(f"all n_values must be <= enum_cap={self.enum_cap}")
        if self.samples < 2:
            raise ValueError(f"samples must be >= 2, got {self.samples}")
        if self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass
class EnsembleStats:
    """Per-size statistics of the experiment scalar plus the log-log fit.

    ``per_n`` maps n -> (mean, sample variance, standard error), with the
    standard error sqrt(variance / samples).  ``fit`` is (slope, intercept,
    slope standard error) of log(mean) vs log(n); when any mean is
    nonpositive the fit is flagged degenerate and omitted.
    """

    per_n: dict
    fit: tuple | None
    fit_residuals: tuple | None
    degenerate: bool
    config: EnsembleConfig | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        return {
            "per_n": {
                str(n): {"mean": v[0], "variance": v[1], "stderr": v[2]}
                for n, v in self.per_n.items()
            },
            "fit": None
            if self.fit is None
            else {"slope": self.fit[0], "intercept": self.fit[1], "slope_stderr": self.fit[2]},
            "fit_residuals": None if self.fit_residuals is None else list(self.fit_residuals),
            "degenerate": self.degenerate,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def loglog_text(self) -> str:
        """Plot-ready two-column file: log n, log mean (skips nonpositive means)."""
        lines = ["log_n,log_mean"]
        for n, (mean, _, _) in sorted(self.per_n.items()):
            if mean > 0:
                lines.append(f"{math.log(n):.17g},{math.log(mean):.17g}")
        return "\n".join(lines) + "\n"


def _sample_scalar(task: tuple):
    """Evaluate one disorder sample; returns ("ok", value) or ("err", message).

    Top-level so process pools can pickle it.  Numerical failures are
    reported as values to keep failure handling deterministic across
    schedulers; any other exception is a bug and propagates, chained to an
    error that names the sample to replay.
    """
    experiment, n, index, seed, t, h, moment_p, ito_steps, enum_cap, q_ref = task
    try:
        params = ModelParams.uniform(n, t, h, enum_cap)
        if experiment == "ito":
            path = sample_path(params, ito_steps, seed)
            cfg = ItoCheckConfig(clamped_site=0, target_site=1, steps=ito_steps)
            return "ok", float(ito_decomposition_residual(path, cfg, params))
        cm = sample_couplings(params, seed)
        if experiment == "htap1":
            return "ok", htap1_residuals(cm, params).mean_square
        if experiment == "tap1":
            return "ok", tap1_residuals(cm, params).mean_square
        if experiment == "htap2":
            return "ok", htap2_residual(cm, params, 0, 1) ** 2
        if experiment == "tap2":
            return "ok", tap2_residual(cm, params, 0, 1) ** 2
        if experiment == "qn_conc":
            return "ok", (gibbs_tables(cm, params).q_n - q_ref) ** 2
        if experiment == "mij_sq":
            return "ok", n * float(gibbs_tables(cm, params).pair[0, 1]) ** 2
        if experiment == "mij_moment":
            return "ok", abs(float(gibbs_tables(cm, params).pair[0, 1])) ** moment_p
        if experiment == "spectral":
            return "ok", resolvent_error(cm, params)
        return "err", f"unknown experiment {experiment!r}"
    except NumericalError as exc:  # deterministic error transport across workers
        return "err", f"{type(exc).__name__}: {exc}"
    except Exception as exc:
        raise RuntimeError(
            f"sample {index} at n={n} (seed={seed}) raised {type(exc).__name__}, "
            "which is a bug, not a numerical failure"
        ) from exc


def run_ensemble(cfg: EnsembleConfig) -> EnsembleStats:
    """Run the configured experiment over all sizes and fit the decay.

    Deterministic for a fixed config; a failed sample aborts the run with
    its (n, index, seed) recorded in the raised error.
    """
    q_ref = 0.0
    if cfg.experiment == "qn_conc":
        q_ref = solve_q(cfg.t, cfg.h, QuadratureRule.gauss_hermite(cfg.quad_nodes))
    per_n = {}
    for n in cfg.n_values:
        seeds = [substream_seed(cfg.master_seed, n, k) for k in range(cfg.samples)]
        tasks = [
            (cfg.experiment, n, k, s, cfg.t, cfg.h, cfg.moment_p, cfg.ito_steps, cfg.enum_cap, q_ref)
            for k, s in enumerate(seeds)
        ]
        if cfg.workers > 1:
            chunk = max(1, cfg.samples // (4 * cfg.workers))
            with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
                results = list(pool.map(_sample_scalar, tasks, chunksize=chunk))
        else:
            results = [_sample_scalar(task) for task in tasks]
        for idx, (status, value) in enumerate(results):
            if status != "ok":
                raise EnsembleSampleError(n, idx, seeds[idx], value)
        scalars = np.array([value for _, value in results])
        mean = float(scalars.mean())
        var = float(scalars.var(ddof=1))
        per_n[n] = (mean, var, math.sqrt(var / cfg.samples))

    # Exactly-zero experiments (e.g. residuals at t = 0) produce squared
    # rounding noise ~1e-33; fitting a decay law to that is meaningless.
    floor = 1e-28
    means = [per_n[n][0] for n in cfg.n_values]
    if len(cfg.n_values) >= 3 and all(m > floor for m in means):
        slope, intercept, stderr = fit_power_law(list(zip(cfg.n_values, means)))
        logx = np.log(np.array(cfg.n_values, dtype=np.float64))
        resid = np.log(means) - (intercept + slope * logx)
        return EnsembleStats(per_n, (slope, intercept, stderr), tuple(float(r) for r in resid), False, cfg)
    return EnsembleStats(per_n, None, None, True, cfg)


def fit_power_law(points) -> tuple:
    """Least-squares slope/intercept of log y vs log n, with slope standard error.

    Needs at least 3 points with positive ordinates.  The standard error
    comes from the residual variance with len(points) - 2 degrees of freedom.
    """
    pts = [(float(n), float(y)) for n, y in points]
    if len(pts) < 3:
        raise ValueError(f"need at least 3 points, got {len(pts)}")
    if any(y <= 0 for _, y in pts):
        raise ValueError("all y values must be positive for a log-log fit")
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
    sigma2 = float(np.sum(resid**2) / dof) if dof > 0 else 0.0
    return slope, intercept, math.sqrt(sigma2 / sxx)
