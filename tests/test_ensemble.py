import concurrent.futures
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sktap.ensemble as ensemble_mod
from sktap import (
    EnsembleConfig,
    EnsembleSampleError,
    ModelParams,
    NonConvergenceError,
    NumericalError,
    fit_power_law,
    gibbs_tables,
    htap1_residuals,
    run_ensemble,
    sample_couplings,
    substream_seed,
)


def test_fit_power_law_exact():
    slope, intercept, stderr = fit_power_law([(8, 0.5), (16, 0.25), (32, 0.125)])
    assert slope == pytest.approx(-1.0, abs=1e-12)
    assert math.exp(intercept) == pytest.approx(4.0, abs=1e-10)
    assert stderr == pytest.approx(0.0, abs=1e-12)


def test_fit_power_law_constant():
    slope, _, stderr = fit_power_law([(8, 0.3), (16, 0.3), (32, 0.3)])
    assert slope == pytest.approx(0.0, abs=1e-13)
    assert stderr == pytest.approx(0.0, abs=1e-12)


def test_fit_power_law_synthetic_noise():
    rng = np.random.default_rng(12)
    ns = np.array([8, 12, 16, 24, 32, 48])
    ys = 4.0 / ns**2 * (1.0 + 0.01 * rng.standard_normal(ns.size))
    slope, _, stderr = fit_power_law(list(zip(ns, ys)))
    assert -2.1 <= slope <= -1.9
    assert stderr < 0.05
    # the slope's standard error from the residual variance with
    # len(points) - 2 degrees of freedom, as numpy's least-squares fit has it
    coef, cov = np.polyfit(np.log(ns), np.log(ys), 1, cov=True)
    assert slope == pytest.approx(coef[0], rel=1e-12)
    assert stderr == pytest.approx(math.sqrt(cov[0, 0]), rel=1e-12)


def test_fit_power_law_rejections():
    with pytest.raises(ValueError):
        fit_power_law([(8, 0.1), (16, 0.05)])
    with pytest.raises(ValueError):
        fit_power_law([(8, 0.1), (16, 0.0), (32, 0.1)])
    with pytest.raises(ValueError):
        fit_power_law([(8, 0.1), (8, 0.1), (8, 0.1)])
    # log n of these is -inf or NaN, and the fit returned (nan, nan, nan)
    for bad_n in (0, -4, math.nan, math.inf):
        with pytest.raises(ValueError, match="must be finite and positive"):
            fit_power_law([(bad_n, 1.0), (1, 2.0), (2, 3.0)])
    for bad_y in (math.nan, math.inf):
        with pytest.raises(ValueError, match="must be finite and positive"):
            fit_power_law([(8, 0.1), (16, bad_y), (32, 0.1)])


def test_config_validation():
    good = dict(n_values=(4, 6), samples=5, t=0.5, h=0.3, master_seed=1, experiment="tap1")
    EnsembleConfig(**good)
    with pytest.raises(ValueError, match="nonempty"):
        EnsembleConfig(**{**good, "n_values": ()})
    with pytest.raises(ValueError):
        EnsembleConfig(**{**good, "n_values": (6, 4)})
    with pytest.raises(ValueError):
        EnsembleConfig(**{**good, "samples": 1})
    with pytest.raises(ValueError):
        EnsembleConfig(**{**good, "experiment": "bogus"})
    with pytest.raises(ValueError):
        EnsembleConfig(**{**good, "n_values": (4, 30)})
    with pytest.raises(ValueError):
        EnsembleConfig(**{**good, "workers": 0})


def test_reruns_are_bit_identical():
    cfg = EnsembleConfig(
        n_values=(4, 6, 8), samples=10, t=0.5, h=0.3, master_seed=7, experiment="tap1"
    )
    a = run_ensemble(cfg)
    b = run_ensemble(cfg)
    assert a.per_n == b.per_n
    assert a.fit == b.fit


def test_worker_count_does_not_change_results(monkeypatch):
    pools = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs)
            super().__init__(*args, **kwargs)

    # run_ensemble imports the pool class from concurrent.futures only when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    base = dict(n_values=(4, 6, 8), samples=8, t=0.5, h=0.3, master_seed=3, experiment="mij_sq")
    serial = run_ensemble(EnsembleConfig(**base, workers=1))
    assert pools == []
    pooled = run_ensemble(EnsembleConfig(**base, workers=2))
    # one pool serves every size
    assert pools == [{"max_workers": 2}]
    assert serial.per_n == pooled.per_n
    assert serial.fit == pooled.fit


def test_the_pool_starts_no_more_workers_than_there_are_tasks(monkeypatch):
    sizes = []

    class InProcessPool:
        """Records its size and maps in this process, so no worker starts."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    base = dict(n_values=(4,), samples=2, t=0.5, h=0.3, master_seed=3, experiment="tap1")
    serial = run_ensemble(EnsembleConfig(**base, workers=1))
    capped = run_ensemble(EnsembleConfig(**base, workers=4096))
    assert sizes == [2]
    assert capped.per_n == serial.per_n


def test_zero_coupling_is_degenerate_for_tap1():
    cfg = EnsembleConfig(
        n_values=(4, 6, 8), samples=5, t=0.0, h=0.3, master_seed=2, experiment="tap1"
    )
    stats = run_ensemble(cfg)
    assert stats.fit is None
    assert all(v[0] < 1e-24 for v in stats.per_n.values())


def test_zero_coupling_overlap_matches_fixed_point():
    cfg = EnsembleConfig(
        n_values=(4, 6), samples=5, t=0.0, h=0.3, master_seed=2, experiment="qn_conc"
    )
    stats = run_ensemble(cfg)
    assert all(v[0] < 1e-26 for v in stats.per_n.values())


def test_stats_shape_and_stderr_definition():
    cfg = EnsembleConfig(
        n_values=(4, 6, 8), samples=12, t=0.4, h=0.3, master_seed=11, experiment="mij_sq"
    )
    stats = run_ensemble(cfg)
    for n, (mean, var, stderr) in stats.per_n.items():
        assert stderr == pytest.approx(math.sqrt(var / 12), abs=1e-15)
        assert mean > 0
        # the unbiased (ddof = 1) variance of the per-sample scalars
        params = ModelParams.uniform(n, 0.4, 0.3)
        pairs = np.array([
            gibbs_tables(sample_couplings(params, substream_seed(11, n, k)), params).pair[0, 1]
            for k in range(12)
        ])
        assert var == pytest.approx(float(np.var(n * pairs**2, ddof=1)), rel=1e-12)
    assert set(stats.per_n) == {4, 6, 8}
    assert stats.fit is not None and len(stats.fit) == 3


def test_mij_sq_scalar_definition():
    n, samples = 5, 3
    cfg = EnsembleConfig(
        n_values=(n,), samples=samples, t=0.5, h=0.3, master_seed=9, experiment="mij_sq"
    )
    stats = run_ensemble(cfg)
    params = ModelParams.uniform(n, 0.5, 0.3)
    manual = []
    for k in range(samples):
        cm = sample_couplings(params, substream_seed(9, n, k))
        manual.append(n * float(gibbs_tables(cm, params).pair[0, 1]) ** 2)
    assert stats.per_n[n][0] == pytest.approx(float(np.mean(manual)), abs=1e-15)


def test_ito_experiment_runs():
    cfg = EnsembleConfig(
        n_values=(4, 5), samples=3, t=0.4, h=0.3, master_seed=5, experiment="ito", ito_steps=8
    )
    stats = run_ensemble(cfg)
    assert all(v[0] > 0 for v in stats.per_n.values())


@pytest.mark.parametrize("experiment", ["htap2", "tap2"])
def test_pair_residual_mean_squares_decay(experiment):
    cfg = EnsembleConfig(
        n_values=(6, 12), samples=100, t=0.5, h=0.3, master_seed=17, experiment=experiment
    )
    stats = run_ensemble(cfg)
    assert stats.per_n[12][0] < stats.per_n[6][0]


def test_loglog_text_is_plot_ready():
    cfg = EnsembleConfig(
        n_values=(4, 6, 8), samples=10, t=0.5, h=0.3, master_seed=7, experiment="mij_sq"
    )
    stats = run_ensemble(cfg)
    lines = stats.loglog_text().strip().splitlines()
    assert lines[0] == "log_n,log_mean"
    assert len(lines) == 4
    log_n, log_mean = (float(v) for v in lines[1].split(","))
    assert log_n == pytest.approx(math.log(4), abs=1e-15)
    assert log_mean == pytest.approx(math.log(stats.per_n[4][0]), abs=1e-15)


def test_failed_sample_reports_its_seed(monkeypatch):
    # a numerical failure becomes EnsembleSampleError (CLI exit 2) with the seed
    def diverge(cm, params):
        raise NonConvergenceError("synthetic failure")

    monkeypatch.setattr(ensemble_mod, "htap1_residuals", diverge)
    cfg = EnsembleConfig(
        n_values=(4,), samples=3, t=0.5, h=0.3, master_seed=21, experiment="htap1"
    )
    with pytest.raises(EnsembleSampleError) as err:
        run_ensemble(cfg)
    assert err.value.n == 4
    assert err.value.index == 0
    assert err.value.seed == substream_seed(21, 4, 0)
    assert "synthetic failure" in str(err.value)

    # any other exception is a bug: it surfaces, still naming the sample
    def broken(cm, params):
        raise TypeError("synthetic bug")

    monkeypatch.setattr(ensemble_mod, "htap1_residuals", broken)
    with pytest.raises(RuntimeError) as err:
        run_ensemble(cfg)
    assert not isinstance(err.value, NumericalError)
    assert isinstance(err.value.__cause__, TypeError)
    assert f"sample 0 at n=4 (seed={substream_seed(21, 4, 0)})" in str(err.value)

    # samples 1 and 2 of the second size fail; the first of them in task
    # order is named, however many workers map the tasks
    failing = {substream_seed(21, 5, k) for k in (1, 2)}
    sizes_run = []

    def diverge_at(cm, params):
        sizes_run.append(params.n)
        if any(np.array_equal(cm.entries, sample_couplings(params, s).entries) for s in failing):
            raise NonConvergenceError("synthetic failure")
        return htap1_residuals(cm, params)

    monkeypatch.setattr(ensemble_mod, "htap1_residuals", diverge_at)
    for workers in (1, 2):
        sizes = EnsembleConfig(n_values=(4, 5, 6), samples=3, t=0.5, h=0.3, master_seed=21,
                               experiment="htap1", workers=workers)
        with pytest.raises(EnsembleSampleError) as err:
            run_ensemble(sizes)
        assert (err.value.n, err.value.index) == (5, 1)
        assert err.value.seed == substream_seed(21, 5, 1)
    # pool workers append to their own copies; one worker stops at the failure
    assert sizes_run == [4, 4, 4, 5, 5]


@pytest.mark.parametrize(
    "experiment, passes", [("mij_sq", 1), ("mij_moment", 1), ("tap2", 1), ("htap2", 2)]
)
def test_one_column_scalars_read_the_column_by_clamping(experiment, passes, monkeypatch):
    # These scalars read one column of the pair matrix, which clamping gives
    # from magnetizations alone: no call asks the kernel for the pair matrix.
    # htap2 clamps j in the full system and in the cavity of i.
    from sktap.gibbs import BlockEnumerator

    wants = []
    moments = BlockEnumerator.moments

    def spy(self, h, want_pair=True, out=None):
        wants.append(want_pair)
        return moments(self, h, want_pair, out)

    monkeypatch.setattr(BlockEnumerator, "moments", spy)
    cfg = EnsembleConfig(
        n_values=(8,), samples=2, t=0.5, h=0.3, master_seed=1, experiment=experiment
    )
    ensemble_mod._scalar(cfg, 8, 0, substream_seed(1, 8, 0))
    assert wants == [False] * passes


# Traced peak of one sample in MiB, draw included, after a warm-up sample:
# the peak measured at n = 24 (ito: n = 20, 2048 steps) plus 10%, rounded up
# to 0.05 MiB.  Measured: htap1 1.71, spectral 0.93, tap1 and qn_conc 0.72,
# htap2 0.59, tap2, mij_sq and mij_moment 0.53, ito 6.07 (7.14 while the
# kernel returned the clamped magnetizations in a block of their own).  A
# pair pass at n = 24 peaks at 0.93, past the bound of every scalar that
# reads one column.
SAMPLE_PEAK_MIB = {
    "htap1": 1.90,
    "htap2": 0.65,
    "tap1": 0.80,
    "tap2": 0.60,
    "qn_conc": 0.80,
    "mij_sq": 0.60,
    "mij_moment": 0.60,
    "ito": 6.70,
    "spectral": 1.05,
}


@pytest.fixture(scope="module")
def sample_peaks():
    """The traced peak of one sample of every experiment, from one fresh
    interpreter.  Every experiment first runs a warm-up sample at the same
    n; ito's takes 2 steps, as a traced 2048-step sample at n = 20 takes
    about 3 s."""
    script = (
        "import json, tracemalloc\n"
        "from sktap.ensemble import EXPERIMENTS, EnsembleConfig, _scalar\n"
        "from sktap.model import substream_seed\n"
        "peaks = {}\n"
        "for name in EXPERIMENTS:\n"
        "    n, steps = (20, 2048) if name == 'ito' else (24, 64)\n"
        "    cfg = EnsembleConfig((n,), 2, 0.5, 0.3, 1, name, ito_steps=steps)\n"
        "    warm = EnsembleConfig((n,), 2, 0.5, 0.3, 1, name, ito_steps=2)\n"
        "    _scalar(warm, n, 0, substream_seed(1, n, 0))\n"
        "    tracemalloc.start()\n"
        "    _scalar(cfg, n, 1, substream_seed(1, n, 1))\n"
        "    peaks[name] = tracemalloc.get_traced_memory()[1]\n"
        "    tracemalloc.stop()\n"
        "print(json.dumps(peaks))\n"
    )
    src = str(Path(ensemble_mod.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("experiment", sorted(ensemble_mod.EXPERIMENTS))
def test_one_sample_of_every_experiment_stays_within_its_memory_budget(experiment, sample_peaks):
    assert sample_peaks[experiment] < SAMPLE_PEAK_MIB[experiment] * 2**20
