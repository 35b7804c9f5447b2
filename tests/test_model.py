import math
import tracemalloc
import warnings

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
from oracles import coarsened, ks_two_sample


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


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "minus-inf", "nan"])
def test_coupling_matrix_refuses_non_finite_entries(value):
    # an infinite coupling is symmetric, and spectral_margin then returned (nan, e0)
    with pytest.raises(ValueError, match="entries must be finite"):
        CouplingMatrix(2, np.array([[0.0, value], [value, 0.0]]))
    cm = sample_couplings(ModelParams.uniform(4, 0.5, 0.3), 1)
    with pytest.raises(ValueError, match="entries must be finite"):
        cm.bumped(0, 1, value)
    # the samplers still build their matrices
    assert np.isfinite(cm.entries).all()
    path = sample_path(ModelParams.uniform(4, 0.5, 0.3), 8, 1)
    assert np.isfinite(path.terminal().entries).all()


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
    with pytest.raises(ValueError, match="out of range"):
        cm.bumped(0, -1, 0.1)  # would wrap around to g_03


def test_path_starts_at_zero_matrix():
    params = ModelParams.uniform(5, 0.6, 0.0)
    path = sample_path(params, 8, 17)
    rows = np.stack([path.row_path(i)[0][0] for i in range(5)])
    assert np.all(rows == 0.0)
    assert path.grid[0] == 0.0 and path.grid[-1] == params.t
    assert np.allclose(np.diff(path.grid), params.t / 8)


def test_path_rejects_bad_arguments():
    params = ModelParams.uniform(3, 0.5, 0.0)
    with pytest.raises(ValueError):
        sample_path(params, 0, 1)
    with pytest.raises(ValueError):
        sample_path(ModelParams.uniform(3, 0.0, 0.0), 4, 1)


@pytest.mark.parametrize(
    "grid, increments, message",
    [
        (np.zeros((2, 2)), np.zeros((1, 3)), "starting at 0"),
        (np.zeros(0), np.zeros((0, 3)), "starting at 0"),
        (np.array([0.1, 0.5]), np.zeros((1, 3)), "starting at 0"),
        (np.array([0.0, 0.5, 0.5]), np.zeros((2, 3)), "strictly increasing"),
        (np.array([0.0, 0.5]), np.zeros((2, 3)), r"shape \(1, 3\)"),
        (np.array([0.0, 0.5]), np.zeros((1, 2)), r"shape \(1, 3\)"),
        (np.array([0.0, np.nan]), np.zeros((1, 3)), "grid points must be finite"),
        (np.array([0.0, np.inf]), np.zeros((1, 3)), "grid points must be finite"),
        (np.array([0.0, 0.5]), np.array([[0.0, np.nan, 0.0]]), "increments must be finite"),
        (np.array([0.0, 0.5]), np.array([[0.0, 0.0, -np.inf]]), "increments must be finite"),
    ],
    ids=["grid-2d", "grid-empty", "grid-from-0.1", "grid-repeats", "steps-2", "pairs-2",
         "grid-nan", "grid-inf", "increment-nan", "increment-inf"],
)
def test_path_rejects_malformed_grids_and_increments(grid, increments, message):
    with pytest.raises(ValueError, match=message):
        CouplingPath(3, grid, increments)


def test_path_entry_variance_grows_linearly_in_time():
    # empirical variance of one entry over seeds vs s/n at the midpoint and
    # the terminal grid point, three standard errors each
    n, t, seeds = 4, 0.8, 400
    params = ModelParams.uniform(n, t, 0.0)
    mid = np.empty(seeds)
    end = np.empty(seeds)
    for s in range(seeds):
        path = sample_path(params, 6, 1000 + s)
        mid[s] = path.row_path(0)[0][3, 1]
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
    coarse = coarsened(fine, 4)
    assert coarse.steps == 4
    assert np.array_equal(coarse.grid, fine.grid[::4])
    assert np.max(np.abs(coarse.terminal().entries - fine.terminal().entries)) < 1e-14
    with pytest.raises(ValueError):
        coarsened(fine, 5)


def test_path_row_accessors_match_matrix():
    params = ModelParams.uniform(5, 0.7, 0.0)
    path = sample_path(params, 6, 9)
    rows, incs = path.row_path(2)
    assert rows.shape == (7, 5) and incs.shape == (6, 5)
    assert np.array_equal(rows[6], path.terminal().entries[2])
    inc = path.row_at(2, 4) - path.row_at(2, 3)
    assert np.allclose(path.row_increment(2, 3), inc, atol=1e-15)
    for k in range(6):
        assert np.array_equal(rows[k], path.row_at(2, k))
        assert np.array_equal(incs[k], path.row_increment(2, k))
    assert np.array_equal(rows[6], path.row_at(2, 6))
    with pytest.raises(ValueError):
        path.row_path(5)


@pytest.mark.parametrize("i", [0, 2, 4])
def test_cavity_increments_are_the_row_increments_without_their_own_column(i):
    # C order: the martingale increments are BLAS dots against these rows
    path = sample_path(ModelParams.uniform(5, 0.7, 0.0), 6, 9)
    cavity = path.cavity_increments(i)
    assert cavity.flags.c_contiguous
    assert np.array_equal(cavity, np.delete(path.row_path(i)[1], i, axis=1))
    with pytest.raises(ValueError):
        path.cavity_increments(5)


@pytest.mark.parametrize("n", range(2, 10))
def test_terminal_rows_are_the_last_rows_of_the_row_paths(n):
    # both add the increments one by one in grid order; a plain sum adds the
    # 64 steps of the lone coupling at n = 2 pairwise, in another order
    path = sample_path(ModelParams.uniform(n, 0.5, 0.0), 64, 11 + n)
    terminal = path.terminal().entries
    for i in range(n):
        assert np.array_equal(terminal[i], path.row_path(i)[0][-1])
    # the path stores its increments in C order, whatever order it is given
    given = CouplingPath(n, path.grid, np.asfortranarray(path.increments))
    assert np.array_equal(given.terminal().entries, terminal)


def test_a_path_holds_little_more_than_its_increments():
    # the path's values are summed when they are asked for: the prefix sums
    # of every coupling at every grid point would double what it holds.  A
    # first draw imports numpy.random, which is no part of the path.
    params = ModelParams.uniform(20, 0.5, 0.3)
    sample_path(params, 1, 5)
    tracemalloc.start()
    try:
        path = sample_path(params, 2048, 5)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 1.1 * path.increments.nbytes


@pytest.mark.parametrize(
    "n, steps",
    [pytest.param(20, s, id=str(s)) for s in (1, 85, 86, 87, 173, 2048)]
    + [pytest.param(24, 4097, id="n24-4097")],
)
def test_terminal_carries_its_running_total_across_blocks_of_rows(n, steps):
    # terminal() sums the rows of the increments at once and each row path
    # takes its running total: both add the steps in grid order, however
    # numpy blocks its loops over long paths and wide rows
    path = sample_path(ModelParams.uniform(n, 0.5, 0.0), steps, steps)
    terminal = path.terminal().entries
    for i in range(n):
        assert np.array_equal(terminal[i], path.row_path(i)[0][-1])


def test_the_terminal_point_is_summed_in_bounded_memory():
    # a cumsum over the whole path would hold a copy of its 2.97 MiB of
    # increments; terminal() allocates only the sum and the matrix
    path = sample_path(ModelParams.uniform(20, 0.5, 0.3), 2048, 5)
    path.terminal()
    tracemalloc.start()
    try:
        path.terminal()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * 2**20


@pytest.mark.parametrize(
    "accessor, k, message",
    [
        ("row_at", -1, "grid point -1 out of range 0..6"),
        ("row_at", 7, "grid point 7 out of range 0..6"),
        ("row_increment", -1, "segment -1 out of range 0..5"),
        ("row_increment", 6, "segment 6 out of range 0..5"),
    ],
)
def test_row_accessors_reject_grid_indices_outside_the_path(accessor, k, message):
    # a negative index must not wrap around to the terminal row or the last
    # increment, and one past the grid is a usage error, not an IndexError
    path = sample_path(ModelParams.uniform(5, 0.7, 0.0), 6, 9)
    with pytest.raises(ValueError, match=message):
        getattr(path, accessor)(2, k)


def test_degenerate_path():
    path = CouplingPath(n=4, grid=np.zeros(1), increments=np.zeros((0, 6)))
    assert path.steps == 0
    assert np.all(path.terminal().entries == 0.0)


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


def test_params_store_negative_zero_t_as_zero():
    # numpy's normal refuses the scale sqrt(-0.0) = -0.0
    p = ModelParams.uniform(4, -0.0, 0.3)
    assert p.t == 0.0 and math.copysign(1.0, p.t) == 1.0
    assert np.all(sample_couplings(p, 1).entries == 0.0)


@pytest.mark.parametrize("n", [1, 12, 24])
def test_params_bound_the_field_energy(n):
    # a quarter of the float64 range, checked without an overflow warning
    cap = float(np.finfo(np.float64).max) / 4
    inside, past = cap / n * (1 - 1e-12), cap / n * (1 + 1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = ModelParams.uniform(n, 0.5, inside)
        for h in (past, 1e308, -1e308):
            with pytest.raises(ValueError, match="field energy"):
                ModelParams.uniform(n, 0.5, h)
        with pytest.raises(ValueError, match="field energy"):
            p.bumped_field(0, cap * 1e-11)
    field = np.zeros(n)
    field[0] = -cap * (1 - 1e-12)
    ModelParams(n=n, t=0.5, field=field)


def test_params_bound_t_by_the_fourth_root_of_the_float_range():
    t_max = float(np.finfo(np.float64).max) ** 0.25
    ModelParams.uniform(4, t_max, 0.3)
    with pytest.raises(ValueError, match="t must be finite"):
        ModelParams.uniform(4, np.nextafter(t_max, np.inf), 0.3)
