"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  The scaling criteria run full
disorder ensembles (hundreds of exact enumerations per size), so this
module takes a few minutes end to end; everything is deterministic.
"""

import math

import numpy as np

from sktap import (
    CouplingPath,
    EnsembleConfig,
    ItoCheckConfig,
    ModelParams,
    at_value,
    coupling_derivative_residual,
    f_map,
    gibbs_tables,
    htap1_residuals,
    htap2_residual,
    ito_decomposition_residual,
    key_identity_residual,
    predicted_mij_sq,
    resolvent_error,
    run_ensemble,
    s_prime_at_e0,
    sample_couplings,
    sample_path,
    solve_q,
    spectral_margin,
    substream_seed,
    susceptibility_fd,
    tap1_residuals,
    tap2_residual,
)
from oracles import bisect_fixed_point, coarsened, f_prime, naive_tables, on_engine

SEED = 42


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:2d} ({name}): {status} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_exactness_suite():
    checks = {}

    # zero coupling strength: everything collapses to the product measure
    p0 = ModelParams.uniform(6, 0.0, 0.3)
    cm0 = sample_couplings(p0, 3)
    tabs0 = gibbs_tables(cm0, p0)
    checks["m=tanh(h)"] = float(np.max(np.abs(tabs0.m - math.tanh(0.3))))
    off = tabs0.pair - np.diag(np.diag(tabs0.pair))
    checks["pair offdiag"] = float(np.max(np.abs(off)))
    checks["htap1 t=0"] = math.sqrt(htap1_residuals(cm0, p0).mean_square)
    checks["tap1 t=0"] = math.sqrt(tap1_residuals(cm0, p0).mean_square)
    checks["htap2 t=0"] = abs(htap2_residual(cm0, p0, 0, 1))
    checks["tap2 t=0"] = abs(tap2_residual(cm0, p0, 0, 1))
    checks["resolvent t=0"] = resolvent_error(cm0, p0)
    one_point = CouplingPath(n=6, grid=np.zeros(1), increments=np.zeros((0, 15)))
    checks["ito degenerate"] = ito_decomposition_residual(one_point, ItoCheckConfig(0, 1), p0)
    pair, triple = key_identity_residual(cm0, p0, {2: 1}, 0, 1, 3)
    checks["condid t=0"], checks["condid2 t=0"] = abs(pair), abs(triple)

    # zero field: spin-flip symmetry kills the magnetization residuals
    ph = ModelParams.uniform(6, 0.6, 0.0)
    cmh = sample_couplings(ph, 4)
    checks["htap1 h=0"] = math.sqrt(htap1_residuals(cmh, ph).mean_square)
    checks["tap1 h=0"] = math.sqrt(tap1_residuals(cmh, ph).mean_square)
    # the conditional identities are exact at any parameters
    pair, triple = key_identity_residual(cmh, ph, {}, 0, 1, 2)
    checks["condid h=0"], checks["condid2 h=0"] = abs(pair), abs(triple)
    # frozen couplings: both sides of the decomposition vanish identically
    frozen = CouplingPath(6, np.linspace(0.0, 0.6, 9), np.zeros((8, 15)))
    checks["ito frozen"] = ito_decomposition_residual(frozen, ItoCheckConfig(0, 1), ph)

    worst = max(checks.values())
    _report(1, "exactness", worst <= 1e-12, f"worst residual {worst:.3e}")


def test_criterion_02_oracle_equivalence():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 11))
        params = ModelParams(n=n, t=float(rng.uniform(0.0, 1.0)), field=rng.normal(0.0, 0.5, n))
        cm = sample_couplings(params, int(rng.integers(0, 2**63)))
        log_z, m, pair, _ = naive_tables(cm.entries.tolist(), params.field.tolist())
        for engine in ("gray", "block"):
            tabs = on_engine(engine, gibbs_tables, cm, params)
            worst = max(
                worst,
                abs(tabs.log_z - log_z),
                float(np.max(np.abs(tabs.m - np.array(m)))),
                float(np.max(np.abs(tabs.pair - np.array(pair)))),
            )
    _report(2, "oracle equivalence", worst <= 1e-12, f"worst deviation {worst:.3e}")


def test_criterion_03_derivative_identities():
    rng = np.random.default_rng(SEED + 1)
    worst_susc = 0.0
    for _ in range(30):
        n = int(rng.integers(3, 11))
        params = ModelParams(n=n, t=float(rng.uniform(0.1, 0.8)), field=rng.normal(0.3, 0.3, n))
        cm = sample_couplings(params, int(rng.integers(0, 2**63)))
        tabs = gibbs_tables(cm, params)
        i, j = (int(v) for v in rng.integers(0, n, size=2))
        fd = susceptibility_fd(cm, params, i, j, 1e-5)
        worst_susc = max(worst_susc, abs(fd - tabs.pair[i, j]))
    worst_cd = 0.0
    for _ in range(30):
        n = int(rng.integers(3, 11))
        params = ModelParams(n=n, t=float(rng.uniform(0.1, 0.8)), field=rng.normal(0.3, 0.3, n))
        cm = sample_couplings(params, int(rng.integers(0, 2**63)))
        i, l, k = (int(v) for v in rng.permutation(n)[:3])
        worst_cd = max(worst_cd, abs(coupling_derivative_residual(cm, params, i, l, k)))
    ok = worst_susc <= 1e-8 and worst_cd <= 1e-7
    _report(3, "derivative identities", ok,
            f"susceptibility {worst_susc:.3e}, coupling derivative {worst_cd:.3e}")


def test_criterion_04_cavity_tap_scaling():
    cfg = EnsembleConfig(
        n_values=(8, 12, 16, 20), samples=500, t=0.5, h=0.3,
        master_seed=SEED, experiment="htap1",
    )
    stats = run_ensemble(cfg)
    slope, _, stderr = stats.fit
    ok = -1.4 <= slope <= -0.7 and slope + 3 * stderr < 0
    _report(4, "cavity TAP decay", ok, f"slope {slope:.3f} +- {stderr:.3f}")


def test_criterion_05_pair_moment_scaling():
    cfg = EnsembleConfig(
        n_values=(8, 12, 16, 20), samples=500, t=0.5, h=0.3,
        master_seed=SEED, experiment="mij_moment", moment_p=2.1,
    )
    stats = run_ensemble(cfg)
    slope = stats.fit[0]
    _report(5, "pair moment decay", slope <= -0.8, f"slope {slope:.3f}")


def test_criterion_06_overlap_concentration_direction():
    x, w = np.polynomial.hermite.hermgauss(201)

    def expect(fn):
        return float(w @ np.vectorize(fn)(math.sqrt(2.0) * x)) / math.sqrt(math.pi)

    q = solve_q(0.5, 0.3, 201)
    q_bis = bisect_fixed_point(0.5, 0.3, expect)
    assert abs(q - q_bis) <= 1e-10, "fixed point not certified by bisection"
    cfg = EnsembleConfig(
        n_values=(8, 20), samples=500, t=0.5, h=0.3, master_seed=SEED, experiment="qn_conc"
    )
    stats = run_ensemble(cfg)
    small, large = stats.per_n[8][0], stats.per_n[20][0]
    _report(6, "overlap concentration", large < small,
            f"mean (q_n - q)^2: n=8 {small:.3e} vs n=20 {large:.3e}")


def test_criterion_07_pair_variance_magnitude():
    details = []
    ok = True
    for h in (0.3, 0.0):
        cfg = EnsembleConfig(
            n_values=(20,), samples=2000, t=0.5, h=h, master_seed=SEED, experiment="mij_sq"
        )
        measured = run_ensemble(cfg).per_n[20][0]
        predicted = 20 * predicted_mij_sq(0.5, h, 20)
        if h == 0.0:
            closed = 0.5 / (20 * (1 - 0.5))
            assert abs(predicted / 20 - closed) < 1e-13, "h=0 prediction closed form"
        ratio = measured / predicted
        ok = ok and 0.65 <= ratio <= 1.35
        details.append(f"h={h}: ratio {ratio:.3f}")
    _report(7, "pair variance magnitude", ok, "; ".join(details))


def test_criterion_08_ito_refinement():
    params = ModelParams.uniform(6, 0.5, 0.3)
    seeds, wins = 200, 0
    for s in range(seeds):
        fine = sample_path(params, 2048, substream_seed(SEED, 6, s))
        r_fine = ito_decomposition_residual(fine, ItoCheckConfig(0, 1), params)
        coarse = coarsened(fine, 256)
        r_coarse = ito_decomposition_residual(coarse, ItoCheckConfig(0, 1), params)
        wins += r_fine < r_coarse
    _report(8, "ito refinement", wins >= 0.9 * seeds, f"{wins}/{seeds} refined paths improved")


def test_criterion_09_spectral_remark():
    medians = {}
    for n in (8, 16):
        params = ModelParams.uniform(n, 0.4, 0.3)
        errs = [
            resolvent_error(sample_couplings(params, substream_seed(SEED, n, k)), params)
            for k in range(200)
        ]
        medians[n] = float(np.median(errs))
    params16 = ModelParams.uniform(16, 0.4, 0.3)
    worst_sp = 0.0
    for k in range(3):
        cm = sample_couplings(params16, substream_seed(SEED + 2, 16, k))
        fd, closed = s_prime_at_e0(cm, params16)
        worst_sp = max(worst_sp, abs(fd - closed))
    p25 = ModelParams.uniform(16, 0.25, 0.0)
    below = sum(
        eigmin > e0
        for eigmin, e0 in (
            spectral_margin(sample_couplings(p25, substream_seed(SEED + 3, 16, k)), p25)
            for k in range(200)
        )
    )
    ok = (
        medians[16] < medians[8]
        and medians[16] < 0.5
        and worst_sp <= 1e-6
        and below >= 0.95 * 200
    )
    _report(
        9, "spectral remark", ok,
        f"medians n=8 {medians[8]:.3f} > n=16 {medians[16]:.3f}; "
        f"s' gap {worst_sp:.2e}; margin {below}/200",
    )


def test_criterion_10_solver_suite():
    worst_fp = 0.0
    for t in (0.0, 0.3, 0.5, 0.8):
        for h in (0.0, 0.1, 0.3, 1.0):
            q = solve_q(t, h)
            worst_fp = max(worst_fp, abs(q - f_map(q, t, h)))
    bound_ok = all(
        abs(f_prime(float(x), t, h)) <= t + 1e-12
        for t in (0.2, 0.5, 0.69)
        for h in (0.0, 0.3)
        for x in np.linspace(0.0, 3.0, 25)
    )
    at_exact = max(abs(at_value(t, 0.0, 0.0) - t) for t in (0.3, 0.9, 1.0, 1.2))
    lo, hi = at_value(0.99, 0.0, solve_q(0.99, 0.0)), at_value(1.01, 0.0, solve_q(1.01, 0.0))
    crossing_ok = lo < 1.0 < hi and abs(at_value(1.0, 0.0, solve_q(1.0, 0.0)) - 1.0) < 1e-13
    ok = worst_fp <= 1e-12 and bound_ok and at_exact < 1e-13 and crossing_ok
    _report(
        10, "solver suite", ok,
        f"fixed-point residual {worst_fp:.2e}, at(t,0,0)=t gap {at_exact:.2e}",
    )
