import math

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


def test_fit_power_law_rejections():
    with pytest.raises(ValueError):
        fit_power_law([(8, 0.1), (16, 0.05)])
    with pytest.raises(ValueError):
        fit_power_law([(8, 0.1), (16, 0.0), (32, 0.1)])
    with pytest.raises(ValueError):
        fit_power_law([(8, 0.1), (8, 0.1), (8, 0.1)])


def test_config_validation():
    good = dict(n_values=(4, 6), samples=5, t=0.5, h=0.3, master_seed=1, experiment="tap1")
    EnsembleConfig(**good)
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


def test_worker_count_does_not_change_results():
    base = dict(n_values=(4, 6, 8), samples=8, t=0.5, h=0.3, master_seed=3, experiment="mij_sq")
    serial = run_ensemble(EnsembleConfig(**base, workers=1))
    pooled = run_ensemble(EnsembleConfig(**base, workers=2))
    assert serial.per_n == pooled.per_n
    assert serial.fit == pooled.fit


def test_zero_coupling_is_degenerate_for_tap1():
    cfg = EnsembleConfig(
        n_values=(4, 6, 8), samples=5, t=0.0, h=0.3, master_seed=2, experiment="tap1"
    )
    stats = run_ensemble(cfg)
    assert stats.degenerate
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
    assert stats.fit is not None and stats.fit_residuals is not None
    assert len(stats.fit_residuals) == 3
    obj = stats.to_dict()
    assert set(obj["per_n"]) == {"4", "6", "8"}
    assert obj["fit"]["slope"] == stats.fit[0]


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
