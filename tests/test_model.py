import json
import math

import numpy as np
import pytest

from sktap import (
    CouplingMatrix,
    CouplingPath,
    ModelParams,
    sample_couplings,
    sample_path,
    substream_seed,
)
from oracles import ks_two_sample


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams.uniform(0, 0.5, 0.1)
    with pytest.raises(ValueError):
        ModelParams.uniform(4, -0.1, 0.1)
    with pytest.raises(ValueError):
        ModelParams(n=3, t=0.5, field=np.zeros(2))
    p = ModelParams.uniform(4, 0.5, 0.3)
    assert p.field.shape == (4,)
    assert not p.field.flags.writeable


def test_sample_couplings_symmetric_zero_diagonal():
    params = ModelParams.uniform(9, 0.7, 0.0)
    cm = sample_couplings(params, 123)
    assert np.array_equal(cm.entries, cm.entries.T)
    assert np.all(np.diag(cm.entries) == 0.0)


def test_sample_couplings_deterministic():
    params = ModelParams.uniform(2, 0.5, 0.0)
    a = sample_couplings(params, 7)
    b = sample_couplings(params, 7)
    assert np.array_equal(a.entries, b.entries)
    c = sample_couplings(params, 8)
    assert not np.array_equal(a.entries, c.entries)


def test_sample_couplings_zero_variance():
    params = ModelParams.uniform(4, 0.0, 0.2)
    cm = sample_couplings(params, 5)
    assert np.all(cm.entries == 0.0)


def test_sample_couplings_variance():
    # sample variance of the upper triangle vs t/n, three standard errors
    n, t = 1000, 1.0
    params = ModelParams.uniform(n, t, 0.0)
    cm = sample_couplings(params, 3)
    iu = np.triu_indices(n, 1)
    vals = cm.entries[iu]
    target = t / n
    sv = float(np.var(vals, ddof=1))
    se = target * math.sqrt(2.0 / (vals.size - 1))
    assert abs(sv - target) < 3 * se


def test_coupling_matrix_validation():
    with pytest.raises(ValueError):
        CouplingMatrix(2, np.array([[0.0, 1.0], [0.9, 0.0]]))
    with pytest.raises(ValueError):
        CouplingMatrix(2, np.array([[0.1, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        CouplingMatrix(3, np.zeros((2, 2)))


def test_coupling_matrix_json_roundtrip():
    params = ModelParams.uniform(6, 0.8, 0.0)
    cm = sample_couplings(params, 11)
    back = CouplingMatrix.from_json(cm.to_json())
    assert np.array_equal(back.entries, cm.entries)
    assert back.t == cm.t and back.seed == cm.seed


def test_bumped_coupling_moves_both_slots_once():
    params = ModelParams.uniform(4, 0.5, 0.0)
    cm = sample_couplings(params, 2)
    b = cm.bumped(1, 3, 0.25)
    assert b.entries[1, 3] == cm.entries[1, 3] + 0.25
    assert b.entries[3, 1] == b.entries[1, 3]
    untouched = np.ones((4, 4), dtype=bool)
    untouched[1, 3] = untouched[3, 1] = False
    assert np.array_equal(b.entries[untouched], cm.entries[untouched])
    with pytest.raises(ValueError):
        cm.bumped(2, 2, 0.1)


def test_path_starts_at_zero_matrix():
    params = ModelParams.uniform(5, 0.6, 0.0)
    path = sample_path(params, 8, 17)
    assert np.all(path.matrix_at(0).entries == 0.0)
    assert path.grid[0] == 0.0 and path.grid[-1] == params.t
    assert np.allclose(np.diff(path.grid), params.t / 8)


def test_path_rejects_bad_arguments():
    params = ModelParams.uniform(3, 0.5, 0.0)
    with pytest.raises(ValueError):
        sample_path(params, 0, 1)
    with pytest.raises(ValueError):
        sample_path(ModelParams.uniform(3, 0.0, 0.0), 4, 1)


def test_path_entry_variance_grows_linearly_in_time():
    # empirical variance of one entry over seeds vs s/n at the midpoint and
    # the terminal grid point, three standard errors each
    n, t, seeds = 4, 0.8, 400
    params = ModelParams.uniform(n, t, 0.0)
    mid = np.empty(seeds)
    end = np.empty(seeds)
    for s in range(seeds):
        path = sample_path(params, 6, 1000 + s)
        mid[s] = path.matrix_at(3).entries[0, 1]
        end[s] = path.terminal().entries[0, 1]
    for vals, target in ((mid, 0.5 * t / n), (end, t / n)):
        sv = float(np.var(vals, ddof=1))
        se = target * math.sqrt(2.0 / (seeds - 1))
        assert abs(sv - target) < 3 * se


def test_path_terminal_and_static_sampler_agree_in_distribution():
    # moment comparison between the two disorder routes, three standard errors
    n, t, seeds = 4, 0.8, 400
    params = ModelParams.uniform(n, t, 0.0)
    static = np.array(
        [sample_couplings(params, 3000 + s).entries[0, 1] for s in range(seeds)]
    )
    terminal = np.array(
        [sample_path(params, 6, 7000 + s).terminal().entries[0, 1] for s in range(seeds)]
    )
    target = t / n
    var_gap = abs(float(np.var(static, ddof=1)) - float(np.var(terminal, ddof=1)))
    se = target * math.sqrt(2.0 / (seeds - 1) + 2.0 / (seeds - 1))
    assert var_gap < 3 * se
    mean_gap = abs(float(static.mean()) - float(terminal.mean()))
    assert mean_gap < 3 * math.sqrt(2 * target / seeds)


def test_path_halving_leaves_terminal_distribution_unchanged():
    # Kolmogorov-Smirnov at the 1% level over 10^4 seeds per step count
    n, t, seeds = 4, 0.8, 10_000
    params = ModelParams.uniform(n, t, 0.0)
    coarse = [sample_path(params, 4, 20_000 + s).terminal().entries[0, 1] for s in range(seeds)]
    fine = [sample_path(params, 8, 50_000 + s).terminal().entries[0, 1] for s in range(seeds)]
    d, crit = ks_two_sample(coarse, fine)
    assert d < crit


def test_path_coarsening_preserves_the_motion():
    params = ModelParams.uniform(4, 0.5, 0.0)
    fine = sample_path(params, 16, 3)
    coarse = fine.coarsened(4)
    assert coarse.steps == 4
    assert np.array_equal(coarse.grid, fine.grid[::4])
    assert np.max(np.abs(coarse.terminal().entries - fine.terminal().entries)) < 1e-14
    with pytest.raises(ValueError):
        fine.coarsened(5)


def test_path_row_accessors_match_matrix():
    params = ModelParams.uniform(5, 0.7, 0.0)
    path = sample_path(params, 6, 9)
    for k in (0, 3, 6):
        assert np.array_equal(path.row_at(2, k), path.matrix_at(k).entries[2])
    inc = path.row_at(2, 4) - path.row_at(2, 3)
    assert np.allclose(path.row_increment(2, 3), inc, atol=1e-15)
    rows, incs = path.row_path(2)
    assert rows.shape == (7, 5) and incs.shape == (6, 5)
    for k in range(6):
        assert np.array_equal(rows[k], path.row_at(2, k))
        assert np.array_equal(incs[k], path.row_increment(2, k))
    assert np.array_equal(rows[6], path.row_at(2, 6))
    with pytest.raises(ValueError):
        path.row_path(5)


def test_degenerate_path():
    path = CouplingPath.degenerate(4)
    assert path.steps == 0
    assert np.all(path.matrix_at(0).entries == 0.0)


def test_substream_seed_is_stable_and_distinct():
    a = substream_seed(42, 8, 0)
    assert a == substream_seed(42, 8, 0)
    assert a != substream_seed(42, 8, 1)
    assert a != substream_seed(42, 12, 0)
    assert a != substream_seed(43, 8, 0)
    assert 0 <= a < 2**64


def test_params_bumped_field():
    p = ModelParams.uniform(3, 0.5, 0.1)
    b = p.bumped_field(1, 0.05)
    assert b.field[1] == pytest.approx(0.15)
    assert p.field[1] == 0.1
    with pytest.raises(ValueError):
        p.bumped_field(5, 0.1)


def test_matrix_json_is_parseable():
    params = ModelParams.uniform(3, 0.5, 0.0)
    cm = sample_couplings(params, 1)
    obj = json.loads(cm.to_json())
    assert obj["n"] == 3 and len(obj["upper"]) == 3
