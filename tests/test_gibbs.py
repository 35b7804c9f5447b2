import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sktap.gibbs
from sktap import (
    CouplingMatrix,
    ItoCheckConfig,
    ModelParams,
    coupling_derivative_residual,
    gibbs_tables,
    htap2_residual,
    ito_decomposition_residual,
    key_identity_residual,
    magnetizations,
    sample_couplings,
    sample_path,
    susceptibility_fd,
    tap2_residual,
    triple_correlation,
)
from oracles import (
    GrayEnumerator,
    first_fit_groups,
    gray_moments,
    naive_raw_moment,
    naive_tables,
    on_engine,
    pair_energies,
    signed_sums,
    two_buffer_walsh,
)


def two_site_matrix(g):
    return CouplingMatrix(2, np.array([[0.0, g], [g, 0.0]]))


def random_instance(rng, n):
    t = float(rng.uniform(0.1, 0.9))
    params = ModelParams(n=n, t=t, field=rng.normal(0.0, 0.5, n))
    cm = sample_couplings(params, int(rng.integers(0, 2**63)))
    return params, cm


def test_log_partition_single_spin():
    p = ModelParams.uniform(1, 0.0, 0.7)
    cm = sample_couplings(p, 0)
    assert gibbs_tables(cm, p).log_z == pytest.approx(math.log(2 * math.cosh(0.7)), abs=1e-13)


def test_log_partition_two_spins():
    p = ModelParams.uniform(2, 1.0, 0.0)
    assert gibbs_tables(two_site_matrix(0.4), p).log_z == pytest.approx(
        math.log(4 * math.cosh(0.4)), abs=1e-13
    )


def test_log_partition_clamped_reduces_to_single_site():
    p = ModelParams.uniform(2, 1.0, 0.2)
    got = gibbs_tables(two_site_matrix(0.4), p, {0: +1}).log_z
    assert got == pytest.approx(math.log(2 * math.cosh(0.2 + 0.4)), abs=1e-13)


def test_log_partition_rejects_oversized_systems(monkeypatch):
    monkeypatch.setattr(sktap.gibbs, "ENUM_CAP", 4)
    p = ModelParams(n=6, t=0.5, field=np.zeros(6))
    cm = sample_couplings(p, 1)
    with pytest.raises(ValueError, match="enum_cap"):
        gibbs_tables(cm, p)
    # the cavity and clamped passes of the pair residuals and the Ito check
    # count their sites against the cap too
    for call in (
        lambda: tap2_residual(cm, p, 0, 1),
        lambda: htap2_residual(cm, p, 0, 1),
        lambda: ito_decomposition_residual(sample_path(p, 4, 1), ItoCheckConfig(0, 1), p),
    ):
        with pytest.raises(ValueError, match="enum_cap"):
            call()
    # clamping enough sites brings the active count under the cap
    gibbs_tables(cm, p, {0: +1, 1: -1})


def test_product_measure_at_zero_coupling():
    p = ModelParams.uniform(5, 0.0, 0.3)
    cm = sample_couplings(p, 9)
    tabs = gibbs_tables(cm, p)
    assert np.max(np.abs(tabs.m - math.tanh(0.3))) < 1e-13
    off = tabs.pair - np.diag(np.diag(tabs.pair))
    assert np.max(np.abs(off)) < 1e-13
    assert tabs.log_z == pytest.approx(5 * math.log(2 * math.cosh(0.3)), abs=1e-12)


def test_two_spin_pair_correlation():
    p = ModelParams.uniform(2, 1.0, 0.0)
    tabs = gibbs_tables(two_site_matrix(0.4), p)
    assert np.max(np.abs(tabs.m)) < 1e-15
    assert tabs.pair[0, 1] == pytest.approx(math.tanh(0.4), abs=1e-13)


@pytest.mark.parametrize("engine", ["block", "gray"])
def test_engines_match_naive_oracle(engine):
    rng = np.random.default_rng(2024)
    for _ in range(12):
        n = int(rng.integers(2, 9))
        params, cm = random_instance(rng, n)
        tabs = on_engine(engine, gibbs_tables, cm, params)
        log_z, m, pair, _ = naive_tables(cm.entries.tolist(), params.field.tolist())
        assert abs(tabs.log_z - log_z) < 1e-12
        assert np.max(np.abs(tabs.m - np.array(m))) < 1e-12
        assert np.max(np.abs(tabs.pair - np.array(pair))) < 1e-12


def test_engines_match_each_other_with_reductions():
    rng = np.random.default_rng(77)
    params, cm = random_instance(rng, 12)
    clamped = {1: -1, 4: +1, 7: +1}
    tb = gibbs_tables(cm, params, clamped)
    tg = on_engine("gray", gibbs_tables, cm, params, clamped)
    assert abs(tb.log_z - tg.log_z) < 1e-12
    assert np.allclose(tb.m, tg.m, rtol=0.0, atol=1e-12)
    assert np.allclose(tb.pair, tg.pair, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize(
    "na,rows",
    [(12, 7), (12, 19), (12, 50), (12, 120), (16, 3), (5, 2051), (6, 1027), (5, 2400)],
)
def test_stacked_moments_match_one_call_per_row(na, rows):
    # na = 12 (b = 2) fits the operands of 58 systems per chunk, and a chunk
    # may take up to an eighth more: 7, 19 and 50 rows make one chunk, 120
    # rows split 60 + 60; na = 16 fits 9 systems per chunk.  The
    # Walsh-Hadamard pass fits 2048 rows per chunk at na = 5 and 1024 at
    # na = 6: 2051 and 1027 rows make one chunk, 2400 rows split 1200 + 1200.
    from sktap.gibbs import BlockEnumerator

    rng = np.random.default_rng(na)
    params, cm = random_instance(rng, na)
    fields = rng.normal(0.0, 0.5, (rows, na))
    fields[1] *= 600.0  # |H| ~ 1e3: each row needs its own log-sum-exp shift
    fields[-1] = fields[0]
    ctx = BlockEnumerator(cm.entries)
    stacked = ctx.moments(fields, want_pair=True)
    assert stacked.mag.shape == (rows, na)
    for r, h in enumerate(fields):
        one = ctx.moments(h[None, :], want_pair=True)
        assert stacked.log_z[r] == one.log_z[0]
        assert np.array_equal(stacked.mag[r], one.mag[0])
        assert np.array_equal(stacked.second[r], one.second[0])
    # a fresh enumerator, whose buffers hold one row, gives the same bits
    fresh = BlockEnumerator(cm.entries).moments(fields[-2], want_pair=True)
    assert np.array_equal(fresh.second[0], stacked.second[-2])
    # equal field rows give equal bits, in different chunks where the stack splits
    assert np.array_equal(stacked.mag[-1], stacked.mag[0])


def mixed_coupling_stack():
    """16 systems at na = 14 and their fields.  Scaling a low-left coupling
    row past the guard gives systems 2 and 9 b = 0 and system 5 b = 1, the
    rest b = 2; system 12 repeats system 3."""
    rng = np.random.default_rng(14)
    n, n1, K = 14, 7, 16
    params = ModelParams(n=n, t=0.5, field=np.zeros(n))
    G = np.array([sample_couplings(params, s).entries for s in range(K)])
    for r, row in [(2, 0), (9, 0), (5, 1)]:
        scale = 400.0 / np.abs(G[r, row, n1:]).sum()
        G[r, row, n1:] *= scale
        G[r, n1:, row] *= scale
    G[12] = G[3]
    fields = rng.normal(0.0, 0.5, (K, n))
    fields[12] = fields[3]
    return G, fields


def assert_stack_is_bit_equal_to_one_system_per_block(ctx, G, fields):
    """Every system of the stack gives the bits of its own one-block
    enumerator, and equal systems give equal bits wherever they sit."""
    from sktap.gibbs import BlockEnumerator

    assert sorted(set(ctx.low.tolist())) == [0, 1, 2]
    assert ctx.low[2] == ctx.low[9] == 0 and ctx.low[5] == 1
    stacked = ctx.moments(fields, want_pair=True)
    for r in range(len(G)):
        one = BlockEnumerator(G[r]).moments(fields[r], want_pair=True)
        assert stacked.log_z[r] == one.log_z[0]
        assert np.array_equal(stacked.mag[r], one.mag[0])
        assert np.array_equal(stacked.second[r], one.second[0])
    assert np.array_equal(stacked.mag[12], stacked.mag[3])
    return stacked


def test_coupling_stack_is_bit_equal_to_one_system_per_block():
    # At na = 14 a chunk holds up to 17 systems of b = 2 and a tile the
    # grids of 8, so the stack mixes three b and its 13 systems of b = 2
    # share one chunk of two tiles.
    from sktap.gibbs import BlockEnumerator

    G, fields = mixed_coupling_stack()
    ctx = BlockEnumerator(G)
    stacked = assert_stack_is_bit_equal_to_one_system_per_block(ctx, G, fields)
    # a second call on the same enumerator gives the same bits
    again = ctx.moments(fields, want_pair=True)
    assert np.array_equal(again.second, stacked.second)
    with pytest.raises(ValueError, match="field rows"):
        ctx.moments(fields[:3])


def test_coupling_stack_spanning_several_tiles_is_bit_equal_to_one_system_per_block(
    monkeypatch,
):
    # A 2^9 state budget splits the pass of every system of the same stack
    # into column tiles, 16 at b = 2 and 64 at b = 0, so every system runs
    # the running rescale of its own sums.
    import sktap.gibbs
    from sktap.gibbs import BlockEnumerator, _Layout

    monkeypatch.setattr(sktap.gibbs, "_TILE_STATES", 1 << 9)
    G, fields = mixed_coupling_stack()
    ctx = BlockEnumerator(G)
    for b in ctx.systems:
        layout = _Layout(ctx.n1, ctx.n2, b)
        assert layout.tile_cols * 4 <= layout.SR.shape[0]
    assert_stack_is_bit_equal_to_one_system_per_block(ctx, G, fields)


def test_a_chunk_of_several_systems_gives_each_system_its_own_tiles(monkeypatch):
    # At na = 18 the D grid of a b = 3 system, 2^15 states, is a tile by
    # itself, while a chunk holds the operands of 4 such systems, with the
    # pair matrix or without: the 7 systems of b = 3 run in the two equal
    # chunks of 3 + 4 that the chunk plan cuts.
    # Systems 2 and 6 (b = 0) share a chunk and span 8 tiles each, system 5
    # has b = 1, and system 9 repeats system 1 in another chunk.
    from sktap.gibbs import BlockEnumerator

    n, n1, K = 18, 9, 10
    params = ModelParams(n=n, t=0.5, field=np.zeros(n))
    G = np.array([sample_couplings(params, s).entries for s in range(K)])
    for r, row in [(2, 0), (6, 0), (5, 1)]:
        scale = 400.0 / np.abs(G[r, row, n1:]).sum()
        G[r, row, n1:] *= scale
        G[r, n1:, row] *= scale
    G[9] = G[1]
    fields = np.random.default_rng(n).normal(0.0, 0.5, (K, n))
    fields[4] *= 600.0  # |H| ~ 1e3 beside systems of |H| ~ 1
    fields[9] = fields[1]
    ctx = BlockEnumerator(G)
    assert ctx.low.tolist() == [3, 3, 0, 3, 3, 1, 0, 3, 3, 3]
    passes = []
    kernel = BlockEnumerator._pass

    def spy(self, layout, own, H, *args):
        passes.append((layout.low, len(H), layout.per_tile, layout.tile_cols))
        return kernel(self, layout, own, H, *args)

    for want_pair in (True, False):
        passes.clear()
        with monkeypatch.context() as patch:
            patch.setattr(BlockEnumerator, "_pass", spy)
            stacked = ctx.moments(fields, want_pair=want_pair)
        assert [k for _, k, _, _ in passes] == [2, 1, 3, 4]
        for b, _, per_tile, tile_cols in passes:
            assert per_tile == 1
            assert tile_cols * {0: 8, 1: 4, 3: 1}[b] == 1 << (n - n1)
        for r in range(K):
            one = BlockEnumerator(G[r]).moments(fields[r], want_pair=want_pair)
            assert stacked.log_z[r] == one.log_z[0]
            assert np.array_equal(stacked.mag[r], one.mag[0])
            if want_pair:
                assert np.array_equal(stacked.second[r], one.second[0])
        assert np.array_equal(stacked.mag[9], stacked.mag[1])


def cavity_stack(n, seed):
    """The n cavity systems of one sample at n sites in the group order of
    ``_cavity_order``, and their fields; the fields of the second group's
    cavities are scaled by 500, so that each of their D rows needs a shift
    of its own."""
    from sktap.gibbs import _cavity_order, _low_cap

    params = ModelParams(n=n, t=0.5, field=np.random.default_rng(seed).normal(0.3, 0.4, n))
    g = sample_couplings(params, seed).entries
    order, _ = _cavity_order(n)
    G, H = g[order[:, :, None], order[:, None, :]], params.field[order]
    size = _low_cap(n - 1) + 1
    H[size : 2 * size] *= 500.0
    return G, H, size


def spy_passes(monkeypatch):
    """Record (b, rows, runs, tiles) of every block pass."""
    from sktap.gibbs import BlockEnumerator

    passes, kernel = [], BlockEnumerator._pass

    def spy(self, layout, own, H, rows, out, work, units):
        passes.append((layout.low, len(H), list(units), layout.tiles))
        return kernel(self, layout, own, H, rows, out, work, units)

    monkeypatch.setattr(BlockEnumerator, "_pass", spy)
    return passes


@pytest.mark.parametrize(
    "n, budget", [(8, None), (12, None), (16, None), (20, None), (24, None), (20, 1 << 15)]
)
def test_the_cavities_of_a_group_share_one_grid_and_keep_their_own_bits(n, budget, monkeypatch):
    # The cavities of one group of cap + 1 sites share their high-left and
    # right couplings and fields, so one D grid.  Each keeps the bits of
    # its own one-system pass in the same site order, with the pair matrix
    # or without, while the second group's fields are 500 times larger.  A
    # run whose operands fit the budget takes one grid: the 4 groups at
    # n = 8-20.  At n = 24 no run of 6 cavities fits, so each cavity, 16
    # tiles of its grid, runs alone; with a 2^15-state budget at n = 20 a
    # run of 5 fits as pieces of 2 (1 + 2 + 2), each sharing one grid over
    # 2 tiles.
    from sktap.gibbs import BlockEnumerator, _layout

    if budget:
        monkeypatch.setattr(sktap.gibbs, "_TILE_STATES", budget)
    G, H, size = cavity_stack(n, n)
    ctx = BlockEnumerator(G)
    (b,) = ctx.systems
    assert b == size - 1
    runs = [min(size, n - start) for start in range(0, n, size)]
    layout = _layout(ctx.n1, ctx.n2, b, sktap.gibbs._TILE_STATES)
    fits = layout.operands(size) <= sktap.gibbs._TILE_STATES
    assert fits == (n <= 20 and not budget)
    passes = spy_passes(monkeypatch)
    for want_pair in (False, True):
        passes.clear()
        stacked = ctx.moments(H, want_pair=want_pair)
        units = [u for _, _, pass_units, _ in passes for u in pass_units]
        if fits:  # never split
            assert units == runs
        elif budget:
            assert units == [1, 2, 2] * 4 and {tiles for *_, tiles in passes} == {2}
        else:
            assert units == [1] * n and {tiles for *_, tiles in passes} == {16}
        for r in range(n):
            one = BlockEnumerator(G[r]).moments(H[r], want_pair=want_pair)
            assert stacked.log_z[r] == one.log_z[0]
            assert np.array_equal(stacked.mag[r], one.mag[0])
            if want_pair:
                assert np.array_equal(stacked.second[r], one.second[0])
    if n == 8:
        gray = GrayEnumerator(G).moments(H, want_pair=True)
        assert np.max(np.abs(stacked.log_z - gray.log_z) / np.abs(gray.log_z)) < 1e-12
        assert np.max(np.abs(stacked.mag - gray.mag)) < 1e-12
        assert np.max(np.abs(stacked.second - gray.second)) < 1e-12


def test_an_htap1_sample_at_n20_builds_one_grid_per_group(monkeypatch):
    # 5 D grids a sample: the full system's and one per group of 5 cavities
    from sktap import htap1_residuals

    params = ModelParams.uniform(20, 0.5, 0.3)
    passes = spy_passes(monkeypatch)
    htap1_residuals(sample_couplings(params, 0), params)
    assert [(k, units) for _, k, units, _ in passes] == [(1, [1])] + [(5, [5])] * 4


def test_runs_break_where_the_couplings_the_fields_or_b_differ():
    # System 1 differs from system 0 in one right field, system 3 from
    # system 2 in a low-left coupling only (its D grid is system 2's), and
    # system 5 has b = 0: its couplings from row b = 2 on equal system 6's,
    # whose right fields equal system 4's, the system of b = 2 before it.
    # Runs: 0 | 1 | 2 3 | 4 | 5 | 6, and every system keeps its own bits.
    from sktap.gibbs import BlockEnumerator

    n, n1 = 14, 7
    params = ModelParams(n=n, t=0.5, field=np.zeros(n))
    base = sample_couplings(params, 3).entries
    G = np.array([base] * 7)
    H = np.tile(np.random.default_rng(1).normal(0.0, 0.5, n), (7, 1))
    H[1, -1] += 0.25
    G[3, 0, 1] = G[3, 1, 0] = G[3, 0, 1] + 0.125
    for r in (4, 5, 6):
        G[r] = sample_couplings(params, r).entries
    G[5, 0, n1:] *= 400.0 / np.abs(G[5, 0, n1:]).sum()
    G[5, n1:, 0] = G[5, 0, n1:]
    G[6, 2:, n1:], G[6, n1:, 2:] = G[5, 2:, n1:], G[5, n1:, 2:]
    H[6, n1:] = H[4, n1:]
    ctx = BlockEnumerator(G)
    assert ctx.low.tolist() == [2, 2, 2, 2, 2, 0, 2]
    assert ctx._joins(H, 2, ctx.systems[2]) == [False, False, True, False, False]
    stacked = ctx.moments(H, want_pair=True)
    for r in range(len(G)):
        one = BlockEnumerator(G[r]).moments(H[r], want_pair=True)
        assert stacked.log_z[r] == one.log_z[0]
        assert np.array_equal(stacked.mag[r], one.mag[0])
        assert np.array_equal(stacked.second[r], one.second[0])


def test_systems_of_one_b_apart_in_the_stack_share_a_grid_and_keep_their_bits(monkeypatch):
    # Blocks 0 and 2 are equal and have b = 2; block 1 between them has
    # b = 0.  The two systems of b = 2 have equal D operands and differ in
    # a low-left field, so they make one run whose pass builds one grid,
    # and every system keeps the bits of its own one-system pass.
    from sktap.gibbs import BlockEnumerator

    n, n1 = 14, 7
    params = ModelParams(n=n, t=0.5, field=np.zeros(n))
    G = np.array([sample_couplings(params, 3).entries] * 3)
    G[1, 0, n1:] *= 400.0 / np.abs(G[1, 0, n1:]).sum()
    G[1, n1:, 0] = G[1, 0, n1:]
    H = np.tile(np.random.default_rng(1).normal(0.0, 0.5, n), (3, 1))
    H[2, 0] += 0.25
    ctx = BlockEnumerator(G)
    assert ctx.low.tolist() == [2, 0, 2]
    assert ctx._joins(H, 2, ctx.systems[2]) == [True]
    passes = spy_passes(monkeypatch)
    for want_pair in (False, True):
        passes.clear()
        stacked = ctx.moments(H, want_pair=want_pair)
        assert sorted((b, units) for b, _, units, _ in passes) == [(0, [1]), (2, [2])]
        for r in range(len(G)):
            one = BlockEnumerator(G[r]).moments(H[r], want_pair=want_pair)
            assert stacked.log_z[r] == one.log_z[0]
            assert np.array_equal(stacked.mag[r], one.mag[0])
            if want_pair:
                assert np.array_equal(stacked.second[r], one.second[0])


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.lists(st.booleans(), max_size=40), st.sampled_from([(19, 4), (19, 3), (23, 5), (11, 2)]))
def test_the_run_plan_never_splits_a_run_that_fits(joins, split):
    from sktap.gibbs import _TILE_STATES, _Layout, _runs

    na, b = split
    layout = _Layout((na + 1) // 2, na // 2, b)
    units = _runs(layout, joins)
    cuts = [0] + [i + 1 for i, join in enumerate(joins) if not join] + [len(joins) + 1]
    runs = [stop - start for start, stop in zip(cuts, cuts[1:])]
    assert sum(units) == sum(runs)
    at = 0
    for run in runs:
        pieces = []
        while sum(pieces) < run:
            pieces.append(units[at])
            at += 1
        assert sum(pieces) == run  # no unit spans two runs
        if layout.operands(run) <= _TILE_STATES + _TILE_STATES // 8:
            assert pieces == [run]
        assert max(pieces) - min(pieces) <= 1
        assert all(layout.operands(p) <= _TILE_STATES + _TILE_STATES // 8 for p in pieces if p > 1)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(
    st.lists(st.tuples(st.integers(1, 6), st.integers(1, 300)), max_size=40),
    st.integers(1, 64),
)
@example([(1, 4100)], 64)
@example([(1, 5000)], 7)
@example([(5, 1), (2, 2), (5, 3), (5, 1), (1, 64), (1, 1)], 4)
def test_the_stretch_plan_equals_the_first_fit_plan(stretches, per):
    # Runs of 1-6 systems, in stretches of one length, up to 5000 units: a
    # one-block chunk of thousands of rows is one stretch of runs of one.
    from sktap.gibbs import _groups

    units = [length for length, count in stretches for _ in range(count)][:5000]
    assert _groups(units, per) == first_fit_groups(units, per)


@pytest.mark.parametrize("na", range(8))
def test_small_systems_match_the_oracles_at_huge_fields(na):
    # na <= 6 take the Walsh-Hadamard pass and na = 7 the block pass, so
    # na = 6 and 7 check either side of the switch.  Field rows of
    # |H| ~ 1e3 need their own log-sum-exp shift.
    from sktap.gibbs import BlockEnumerator

    params = ModelParams(n=max(na, 1), t=0.8, field=np.zeros(max(na, 1)))
    G = sample_couplings(params, na).entries[:na, :na]
    H = np.random.default_rng(na).normal(0.0, 0.5, (3, na))
    H[0] *= 2000.0
    H[2, : na // 2] += 4.0
    ran = []

    def spy(name):
        kernel = getattr(BlockEnumerator, name)

        def run(*args):
            ran.append(name)
            return kernel(*args)

        return run

    with pytest.MonkeyPatch.context() as patch:
        for name in ("_walsh_pass", "_pass"):
            patch.setattr(BlockEnumerator, name, spy(name))
        block = BlockEnumerator(G).moments(H, want_pair=True)
    assert set(ran) == {"_walsh_pass" if na <= 6 else "_pass"}
    gray = GrayEnumerator(G).moments(H, want_pair=True)
    assert np.max(np.abs(block.log_z - gray.log_z) / np.maximum(1.0, np.abs(gray.log_z))) < 1e-12
    for got, want in [(block.mag, gray.mag), (block.second, gray.second)]:
        assert np.max(np.abs(got - want), initial=0.0) < 1e-12
    if na == 0:
        assert np.array_equal(block.log_z, np.zeros(3))
        return
    g = G.tolist()
    for r, h in enumerate(H):
        f = h.tolist()
        log_z, m, pair, _ = naive_tables(g, f)
        second = np.array(pair) + np.outer(m, m)
        np.fill_diagonal(second, 1.0)
        assert abs(block.log_z[r] - log_z) <= 1e-12 * max(1.0, abs(log_z))
        assert np.max(np.abs(block.mag[r] - np.array(m))) < 1e-12
        assert np.max(np.abs(block.second[r] - second)) < 1e-12


def test_walsh_coupling_stack_is_bit_equal_to_one_block_per_system():
    # 1154 systems at na = 6 span a chunk of 1024 rows and one of 130, more
    # than the last chunk takes in; systems 3 and 1153 are equal and sit in
    # different chunks.
    from sktap.gibbs import _TILE_STATES, BlockEnumerator

    na = 6
    per = _TILE_STATES >> na
    K = per + per // 8 + 2
    params = ModelParams(n=na, t=0.8, field=np.zeros(na))
    G = np.array([sample_couplings(params, s).entries for s in range(K)])
    H = np.random.default_rng(6).normal(0.0, 0.5, (K, na))
    G[-1], H[-1] = G[3], H[3]
    stacked = BlockEnumerator(G).moments(H, want_pair=True)
    for r in range(K):
        one = BlockEnumerator(G[r]).moments(H[r], want_pair=True)
        assert stacked.log_z[r] == one.log_z[0]
        assert np.array_equal(stacked.mag[r], one.mag[0])
        assert np.array_equal(stacked.second[r], one.second[0])
    assert np.array_equal(stacked.second[-1], stacked.second[3])


def _walsh_stacks():
    # one row and 300 rows at every na, and at na = 5 the stacks at the chunk
    # edges: one full chunk, the most the last chunk takes in, and one row
    # past it (two chunks)
    from sktap.gibbs import _TILE_STATES

    per = _TILE_STATES >> 5
    cases = [(na, 1) for na in range(1, 7)] + [(na, 300) for na in range(1, 7)]
    return cases + [(5, per), (5, per + per // 8), (5, per + per // 8 + 1)]


@pytest.mark.parametrize("want_pair", [False, True], ids=["m-only", "pair"])
@pytest.mark.parametrize("na, rows", _walsh_stacks())
def test_in_place_walsh_pass_keeps_the_bits_of_the_two_buffer_pass(na, rows, want_pair):
    from sktap.gibbs import BlockEnumerator

    params = ModelParams(n=na, t=0.8, field=np.zeros(na))
    G = sample_couplings(params, na).entries
    H = np.random.default_rng(rows + na).normal(0.0, 0.7, (rows, na))
    H[0] *= 300.0
    ctx = BlockEnumerator(G)
    got = ctx.moments(H, want_pair=want_pair)
    want = two_buffer_walsh(ctx.E, H, want_pair=want_pair)
    assert np.array_equal(got.log_z, want.log_z)
    assert np.array_equal(got.mag, want.mag)
    if want_pair:
        assert np.array_equal(got.second, want.second)
    else:
        assert got.second is None


@pytest.mark.parametrize("rows, passes", [(2049, [2049]), (4098, [2049, 2049])])
def test_walsh_stack_takes_a_small_remainder_into_its_last_chunk(rows, passes):
    # two grids of a 2048-step path at na = 5, 4098 rows, run in two equal
    # chunks of 2049, not a third for two rows; a 2049-row stack (one grid)
    # is one pass, not a second one for a single row; no chunk passes 9/8 of
    # the 2048 rows that fit the state budget at na = 5
    from sktap.gibbs import BlockEnumerator

    na = 5
    _, cm = random_instance(np.random.default_rng(rows), na)
    fields = np.random.default_rng(na).normal(0.0, 0.5, (rows, na))
    ctx = BlockEnumerator(cm.entries)
    chunks = []
    kernel = BlockEnumerator._walsh_pass

    def spy(self, H, *args):
        chunks.append(len(H))
        return kernel(self, H, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BlockEnumerator, "_walsh_pass", spy)
        stacked = ctx.moments(fields, want_pair=False)
    assert chunks == passes
    for r, h in enumerate(fields):
        one = ctx.moments(h, want_pair=False)
        assert stacked.log_z[r] == one.log_z[0]
        assert np.array_equal(stacked.mag[r], one.mag[0])


def parent_chunk_count(count, per):
    """Chunks of the rule that ``_chunks`` replaced: runs of ``per`` rows, the
    last of which took a remainder of up to per // 8 rows (the Walsh pass);
    the block pass ran plain runs of ``per``, never fewer chunks than this."""
    most, ends = per + per // 8, [0]
    while ends[-1] < count:
        ends.append(count if count - ends[-1] <= most else ends[-1] + per)
    return len(ends) - 1


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10**4), st.integers(min_value=1, max_value=1 << 16))
@example(0, 1)
@example(1, 1)
@example(10**4, 1)
@example(7, 4)
@example(2304, 2048)
@example(2305, 2048)
@example(4098, 2048)
@example(8196, 4096)
def test_the_chunk_plan_covers_each_row_once_in_the_fewest_equal_chunks(count, per):
    from sktap.gibbs import _chunks

    chunks = _chunks(count, per)
    assert [r for c in chunks for r in range(c.start, c.stop)] == list(range(count))
    sizes = [c.stop - c.start for c in chunks]
    assert all(size >= 1 for size in sizes)
    assert max(sizes, default=0) <= per + per // 8
    assert max(sizes, default=0) - min(sizes, default=0) <= 1
    assert len(chunks) == -(-count // (per + per // 8))  # the fewest within 9/8
    assert len(chunks) <= parent_chunk_count(count, per)


def test_one_pass_allocates_far_less_than_one_grid():
    # The 2^24 float64 grid is 128 MiB.  A streamed pass at b = 5 holds one
    # tile of W and one of the pair matrix's product of the same shape, 128
    # x 128 states or 128 KiB each, the 6 x 2^12 coupling rows of eC (192
    # KiB), and vectors over the 2^12 left and the 2^12 right states: 0.79
    # MiB at its peak, in the tile loop.  The bound is that peak plus 10%,
    # rounded up to 0.05 MiB.  With the left-left pair block summed against
    # a 2^12 x 12 operand (384 KiB) it took 0.86 MiB; with b = 4 and tiles
    # of 256 x 128 states 1.10 MiB, and 2.96 MiB before the tiles held eC,
    # its column sums and the right operand.
    from sktap.gibbs import BlockEnumerator

    params = ModelParams.uniform(24, 0.5, 0.3)
    couplings = sample_couplings(params, 0).entries
    ctx = BlockEnumerator(couplings)
    ctx.moments(params.field, want_pair=True)  # the cached sign matrices
    tracemalloc.start()
    try:
        ctx = BlockEnumerator(couplings)
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        ctx.moments(params.field, want_pair=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < 0.9 * 2**20


def test_a_first_construction_allocates_less_than_a_mebibyte():
    # A fresh interpreter, so that no sign matrix is cached yet.  At n = 24
    # a construction builds the two block energies, 2^12 floats each (32
    # KiB), from the halves of each block: it caches the 2^6 x 6 signs and
    # makes temporaries over 2^6 states, 0.10 MiB at its peak.  One copy of
    # the 2^12 x 12 signs (384 KiB), which the dense product cached along
    # with one 384 KiB S @ G temporary per block energy (0.82 MiB), would
    # pass the bound of 0.25 MiB.
    script = (
        "import tracemalloc\n"
        "from sktap import ModelParams, sample_couplings\n"
        "from sktap.gibbs import BlockEnumerator\n"
        "couplings = sample_couplings(ModelParams.uniform(24, 0.5, 0.3), 0).entries\n"
        "tracemalloc.start()\n"
        "BlockEnumerator(couplings)\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    src = str(Path(sktap.gibbs.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 0.25 * 2**20


# (tile_cols, tiles, per_tile) of ``_Layout(n1, n2, b)`` for every b the guard
# can give at na, from 0 to the cap of ``_low_bits``.  Up to na = 22 these are
# the tiles that every README payload and pinned value, and the n = 20 htap1
# benchmark, run on, so the bits there stay put; at na = 23 and 24, b reaches
# 5, whose tiles stop at 2^19 states of the whole grid.
SPLITS = {
    7: [(8, 1, 256), (8, 1, 512)],
    8: [(16, 1, 128), (16, 1, 256)],
    9: [(16, 1, 64), (16, 1, 128)],
    10: [(32, 1, 32), (32, 1, 64)],
    11: [(32, 1, 16), (32, 1, 32), (32, 1, 64)],
    12: [(64, 1, 8), (64, 1, 16), (64, 1, 32)],
    13: [(64, 1, 4), (64, 1, 8), (64, 1, 16)],
    14: [(128, 1, 2), (128, 1, 4), (128, 1, 8)],
    15: [(128, 1, 1), (128, 1, 2), (128, 1, 4), (128, 1, 8)],
    16: [(128, 2, 1), (256, 1, 1), (256, 1, 2), (256, 1, 4)],
    17: [(64, 4, 1), (128, 2, 1), (256, 1, 1), (256, 1, 2)],
    18: [(64, 8, 1), (128, 4, 1), (256, 2, 1), (512, 1, 1)],
    19: [(32, 16, 1), (64, 8, 1), (128, 4, 1), (256, 2, 1), (512, 1, 1)],
    20: [(32, 32, 1), (64, 16, 1), (128, 8, 1), (256, 4, 1), (512, 2, 1)],
    21: [(16, 64, 1), (32, 32, 1), (64, 16, 1), (128, 8, 1), (256, 4, 1)],
    22: [(16, 128, 1), (32, 64, 1), (64, 32, 1), (128, 16, 1), (256, 8, 1)],
    23: [(8, 256, 1), (16, 128, 1), (32, 64, 1), (64, 32, 1), (128, 16, 1), (128, 16, 1)],
    24: [(8, 512, 1), (16, 256, 1), (32, 128, 1), (64, 64, 1), (128, 32, 1), (128, 32, 1)],
}


@pytest.mark.parametrize("na", sorted(SPLITS))
def test_split_table_is_pinned(na):
    from sktap.gibbs import _Layout, _low_bits

    n1, n2 = (na + 1) // 2, na // 2
    assert _low_bits(np.zeros((1, n1, n2))).tolist() == [len(SPLITS[na]) - 1]
    for b, want in enumerate(SPLITS[na]):
        layout = _Layout(n1, n2, b)
        assert (layout.tile_cols, layout.tiles, layout.per_tile) == want


@pytest.mark.parametrize("n", [23, 24])
def test_largest_passes_equal_the_mix_of_their_clamped_halves(n):
    # Beyond the oracles' reach: the pass over n sites equals the mix of its
    # two systems with site 0 clamped to +1 and -1, each weighted by its
    # partition sum times exp(+-h_0).  At n = 24 a b = 5 pass over 32 tiles
    # meets two b = 5 passes at na = 23, and at n = 23 two b = 4 at na = 22.
    from sktap.gibbs import BlockEnumerator

    rng = np.random.default_rng(n)
    params = ModelParams(n=n, t=0.6, field=rng.normal(0.2, 0.5, n))
    G, h = sample_couplings(params, n).entries, params.field
    ctx = BlockEnumerator(G)
    assert ctx.low.tolist() == [5]
    full = ctx.moments(h, want_pair=True).row(0)
    halves = {}
    for tau in (1, -1):
        raw = BlockEnumerator(G[1:, 1:]).moments(h[1:] + tau * G[1:, 0], want_pair=True).row(0)
        halves[tau] = (raw.log_z + tau * h[0], raw)
    log_z = np.logaddexp(halves[1][0], halves[-1][0])
    m, second = np.zeros(n), np.zeros((n, n))
    second[0, 0] = 1.0
    for tau, (log_w, raw) in halves.items():
        w = math.exp(log_w - log_z)
        m[0] += tau * w
        m[1:] += w * raw.mag
        second[0, 1:] += tau * w * raw.mag
        second[1:, 1:] += w * raw.second
    second[1:, 0] = second[0, 1:]
    assert abs(full.log_z - log_z) < 1e-12
    assert np.max(np.abs(full.mag - m)) < 1e-12
    pair = second - np.outer(m, m)
    assert np.max(np.abs((full.second - np.outer(full.mag, full.mag)) - pair)) < 1e-12


def test_sign_matrices_equal_their_bitwise_construction():
    # the column fills give the bits of the shift-and-mask construction,
    # site j on bit k-1-j, for every block size; and for every split (n1, b)
    # of na = 7..24, row t 2^(n1-b) + T of the left signs holds the low
    # sites of state t and the high sites of state T, as the pass reads them
    from sktap.gibbs import _sign_matrix

    def by_bits(k):
        idx = np.arange(1 << k, dtype=np.uint64)[:, None]
        bits = (idx >> np.arange(k - 1, -1, -1, dtype=np.uint64)[None, :]) & 1
        return 2.0 * bits.astype(np.float64) - 1.0

    for k in range(13):
        S = _sign_matrix(k)
        assert S.shape == (1 << k, k) and not S.flags.writeable
        assert np.array_equal(S, by_bits(k))
    for n1 in range(4, 13):
        for b in range(-(-n1 // 2)):
            # [t, T] indexes row t 2^(n1-b) + T
            S = _sign_matrix(n1).reshape(1 << b, 1 << (n1 - b), n1)
            low, high = _sign_matrix(b), _sign_matrix(n1 - b)
            assert np.array_equal(S[:, :, :b], np.broadcast_to(low[:, None], S[:, :, :b].shape))
            assert np.array_equal(S[:, :, b:], np.broadcast_to(high, S[:, :, b:].shape))


def coupling_stack(rng, blocks, k):
    """``blocks`` symmetric zero-diagonal k x k blocks, each of its own scale."""
    scale = 10.0 ** rng.uniform(-2.0, 2.0, (blocks, 1, 1))
    G = np.triu(rng.normal(0.0, 1.0, (blocks, k, k)) * scale, 1)
    return G + G.transpose(0, 2, 1)


@pytest.mark.parametrize("k", range(13))
def test_block_energies_by_halves_match_the_sum_over_pairs(k):
    # _quadratic adds each state's top-half and bottom-half energies to
    # their cross term; pair_energies sums the state's k(k-1)/2 pair terms
    # with compensation.  The bound is relative to sum_{i<j} |G_ij|, the
    # largest |E| can be: a sum of pair terms rounds on that scale, not on
    # |E|, which may cancel to near 0.  On these draws the gap measured at
    # most 2.1e-16 of it.
    from sktap.gibbs import _quadratic

    rng = np.random.default_rng(k)
    for blocks in (1, 3, 20):
        G = coupling_stack(rng, blocks, k)
        E = _quadratic(G)
        assert E.shape == (blocks, 1 << k)
        scale = np.abs(np.triu(G, 1)).sum(axis=(1, 2))[:, None]
        assert np.all(np.abs(E - pair_energies(G)) <= 1e-15 * scale)


@pytest.mark.parametrize("k", [1, 2, 5, 8, 9, 12])
def test_a_block_energy_keeps_its_bits_alone_or_in_a_stack(k):
    # Every product of _quadratic is one BLAS call per block, and every add
    # is elementwise, so a block's energies do not depend on its neighbours,
    # on its place in the stack or on the layout of the stack: the cavity
    # stacks of htap1 pass the strided view G[:, :n1, :n1] of their blocks.
    from sktap.gibbs import _quadratic

    rng = np.random.default_rng(50 + k)
    G = coupling_stack(rng, 20, k + 3)
    G[13] = G[4]
    view = G[:, :k, :k]
    E = _quadratic(view)
    for r in range(len(G)):
        assert np.array_equal(_quadratic(view[r : r + 1].copy())[0], E[r])
    assert np.array_equal(E[13], E[4])


@pytest.mark.parametrize("k", range(1, 13))
def test_signed_sums_by_halves_match_the_exact_sums(k):
    # The pair matrix's left-left and right-right blocks, from the halves of
    # the states, against correctly rounded sums.  Each entry sums 2^k
    # positive weights times +-1, so it rounds on the scale of the weights'
    # total; the gap measured at most 5.0e-16 of it on these draws and
    # 5.8e-16 over 240 more (the one product against the whole sign matrix,
    # which formed these blocks before, reached 3.8e-15 at k = 12).  The
    # block below the two halves is never written: the caller mirrors the
    # upper triangle.
    from sktap.gibbs import _signed_sums

    rng = np.random.default_rng(k)
    w = rng.exponential(1.0, (3, 1 << k)) * 10.0 ** rng.uniform(-3.0, 3.0, (3, 1))
    out = np.zeros((3, k, k))
    _signed_sums(w, out)
    upper = np.triu(np.ones((k, k), dtype=bool))
    gap = np.abs(out - signed_sums(w, k))[:, upper]
    assert np.all(gap <= 1e-15 * w.sum(axis=1)[:, None])
    k1 = (k + 1) // 2
    assert not out[:, k1:, :k1].any()


def test_sk_couplings_take_the_factorised_path():
    # The guard never binds for SK couplings, so the cached factor holds
    # b >= 4 low left sites at n = 20 and at the n = 19 cavity systems of
    # htap1: the suite exercises the factorised pass, not only its b = 0 end.
    from sktap.gibbs import BlockEnumerator

    for n, t, seed in [(19, 0.5, 1), (20, 0.5, 2), (20, 1.5, 3)]:
        params = ModelParams.uniform(n, t, 0.3)
        assert BlockEnumerator(sample_couplings(params, seed).entries).low >= 4


@pytest.mark.parametrize("n,b", [(14, 0), (14, 1), (16, 0), (16, 2), (18, 0)])
def test_guard_keeps_strong_low_left_couplings_exact(n, b):
    # Scale the couplings of low left sites 0..b to the right block so that
    # 2 * sum_{a<b'} |G_LR[a]|_1 first passes 600 at b' = b + 1: the guard,
    # not the size, then caps the cached factor at b sites.  The right
    # fields pull the right block off the pattern row b favours, so a factor
    # that held row b would see its heaviest states underflow; without the
    # guard every case fails.  At n = 18 and b = 0 the pass spans 8 tiles.
    from sktap.gibbs import BlockEnumerator

    rng = np.random.default_rng(n + b)
    params = ModelParams(n=n, t=0.5, field=rng.normal(0.0, 0.5, n))
    G = sample_couplings(params, n).entries.copy()
    n1, n2 = (n + 1) // 2, n // 2
    assert BlockEnumerator(G).low > b
    norms = np.abs(G[:n1, n1:]).sum(axis=1)
    for a in range(b + 1):
        scale = (1500.0 if a == b else 290.0 / b) / norms[a]
        G[a, n1:] *= scale
        G[n1:, a] *= scale
    h = params.field.copy()
    h[n1:] += 1500.0 / n2 * (-1.0) ** np.arange(n2) * np.sign(G[b, n1:])
    ctx = BlockEnumerator(G)
    assert ctx.low == b
    block = ctx.moments(h, want_pair=True).row(0)
    gray = GrayEnumerator(G).moments(h, want_pair=True).row(0)
    assert abs(block.log_z - gray.log_z) <= 1e-12 * abs(gray.log_z)
    assert np.max(np.abs(block.mag - gray.mag)) < 1e-12
    assert np.max(np.abs(block.second - gray.second)) < 1e-12
    if n == 14:
        g, f = G.tolist(), h.tolist()
        log_z, m, pair, _ = naive_tables(g, f)
        second = np.array(pair) + np.outer(m, m)
        np.fill_diagonal(second, 1.0)
        assert abs(block.log_z - log_z) <= 1e-12 * abs(log_z)
        assert np.max(np.abs(block.mag - np.array(m))) < 1e-12
        assert np.max(np.abs(block.second - second)) < 1e-12


def test_empty_active_set_edge_cases():
    p = ModelParams.uniform(3, 0.5, 0.4)
    cm = sample_couplings(p, 2)
    tabs = gibbs_tables(cm, p, {0: 1, 1: -1, 2: 1})
    assert tabs.log_z == 0.0
    assert tabs.m.tolist() == [1.0, -1.0, 1.0]
    assert not tabs.pair.any()


def test_log_sum_exp_survives_huge_energies():
    # |H| up to ~1200 must not overflow the weight handling;
    # log Z = 4 log(2 cosh 300) = 1200 to float precision
    p = ModelParams.uniform(4, 0.0, 300.0)
    cm = sample_couplings(p, 1)
    tabs = gibbs_tables(cm, p)
    assert np.isfinite(tabs.log_z)
    assert tabs.log_z == pytest.approx(1200.0, abs=1e-9)
    assert np.all(np.abs(tabs.m) <= 1.0)
    assert np.all(np.isfinite(tabs.pair))


def test_tables_invariants_random_sweep():
    rng = np.random.default_rng(5150)
    for _ in range(10):
        n = int(rng.integers(2, 10))
        params, cm = random_instance(rng, n)
        tabs = gibbs_tables(cm, params)
        assert np.all(np.abs(tabs.m) <= 1.0)
        assert np.all(np.abs(tabs.pair) <= 2.0)
        assert np.array_equal(tabs.pair, tabs.pair.T)
        assert np.array_equal(np.diag(tabs.pair), 1.0 - tabs.m**2)


def test_reduced_tables_masking_semantics():
    rng = np.random.default_rng(31)
    params, cm = random_instance(rng, 6)
    tabs = gibbs_tables(cm, params, {2: -1})
    assert tabs.m[2] == -1.0
    assert not tabs.pair[2].any() and not tabs.pair[:, 2].any()
    assert np.all(np.isfinite(tabs.m)) and np.all(np.isfinite(tabs.pair))


def test_triple_symmetry_zeros():
    # odd centered moments vanish under the global spin flip at zero field
    p = ModelParams.uniform(6, 0.7, 0.0)
    cm = sample_couplings(p, 12)
    assert abs(triple_correlation(cm, p, None, 0, 2, 5)) < 1e-13
    # independence at zero coupling
    p0 = ModelParams.uniform(6, 0.0, 0.4)
    cm0 = sample_couplings(p0, 1)
    assert abs(triple_correlation(cm0, p0, None, 1, 2, 3)) < 1e-13


@pytest.mark.parametrize("n,j", [(6, 3), (8, 6)], ids=["6", "8"])
def test_triple_matches_raw_moment_expansion(n, j):
    # i and j are clamped, so the enumerated systems have n - 2 sites: 4 at
    # n = 6 and 6 at n = 8, both on the Walsh-Hadamard pass.
    p = ModelParams.uniform(n, 0.5, 0.3)
    cm = sample_couplings(p, 2)
    g = cm.entries.tolist()
    h = p.field.tolist()
    i, k = 0, 5
    raw3 = naive_raw_moment(g, h, (i, j, k))
    _, m, _, _ = naive_tables(g, h)
    rij = naive_raw_moment(g, h, (i, j))
    rik = naive_raw_moment(g, h, (i, k))
    rjk = naive_raw_moment(g, h, (j, k))
    expansion = raw3 - m[i] * rjk - m[j] * rik - m[k] * rij + 2 * m[i] * m[j] * m[k]
    assert triple_correlation(cm, p, None, i, j, k) == pytest.approx(expansion, abs=1e-12)


def test_triple_with_one_free_site_matches_the_naive_oracle():
    # na = 3: clamping i and j leaves k alone in the enumerated systems
    p = ModelParams.uniform(3, 0.7, 0.2)
    cm = sample_couplings(p, 5)
    g, h = cm.entries.tolist(), p.field.tolist()
    i, j, k = 2, 0, 1
    _, m, _, _ = naive_tables(g, h)
    rij, rik, rjk = (naive_raw_moment(g, h, pair) for pair in ((i, j), (i, k), (j, k)))
    expansion = (naive_raw_moment(g, h, (i, j, k)) - m[i] * rjk - m[j] * rik - m[k] * rij
                 + 2 * m[i] * m[j] * m[k])
    assert triple_correlation(cm, p, None, i, j, k) == pytest.approx(expansion, abs=1e-12)


def test_triple_builds_one_enumerator_and_makes_one_kernel_call(monkeypatch):
    from sktap.gibbs import BlockEnumerator

    calls = []
    init, moments = BlockEnumerator.__init__, BlockEnumerator.moments

    def spy_init(self, G):
        calls.append(("init", G.shape[-1]))
        init(self, G)

    def spy_moments(self, h, *args, **kwargs):
        calls.append(("moments", len(np.atleast_2d(h))))
        return moments(self, h, *args, **kwargs)

    monkeypatch.setattr(BlockEnumerator, "__init__", spy_init)
    monkeypatch.setattr(BlockEnumerator, "moments", spy_moments)
    p = ModelParams.uniform(9, 0.5, 0.3)
    triple_correlation(sample_couplings(p, 1), p, {4: -1}, 0, 8, 3)
    # the 4 ways to clamp sites 0 and 8, each over the 6 other active sites
    assert calls == [("init", 6), ("moments", 4)]


def keyed_moments(F):
    """The keys of the raw moments that ``clamped_moments`` centres: entry S
    lists the sites F[a] whose bit a is set in S."""
    return [tuple(F[a] for a in range(len(F)) if S >> a & 1) for S in range(1 << len(F))]


def centred(raw, F):
    """The oracle's raw sums ``raw[S]`` = <s_S s_l>, S a bit mask over F,
    centred by hand: m, the pair column of each site of F, then the triple
    of two sites."""
    m = raw[0]
    out = [m, np.array([raw[1 << a] - m[site] * m for a, site in enumerate(F)])]
    if len(F) == 2:
        a, b = F
        out.append(raw[3] - m[a] * raw[2] - m[b] * raw[1] - raw[1][b] * m + 2 * m[a] * m[b] * m)
    return out


def row_of(moments, r):
    """Row r of every array ``clamped_moments`` returns: m, the pair columns
    and the triple, if any."""
    m, pairs, triple = moments
    return [m[r], pairs[:, r]] + ([] if triple is None else [triple[r]])


@pytest.mark.parametrize(
    "na, F",
    [(1, (0,)), (2, (1, 0)), (3, (2, 0)), (7, (6,)), (8, (7, 2)), (9, (8, 0)), (10, (3,))],
    ids=["1", "2", "3", "7", "8", "9", "10"],
)
def test_clamped_moments_match_the_naive_oracle(na, F):
    # The systems left after the clamps have na - |F| sites: none at na = 1
    # and 2, one at na = 3, 6 (the largest the Walsh-Hadamard pass takes)
    # at na = 7 and 8, 7 and 9 (the block pass) at na = 9 and 10.  F is
    # unsorted where it has two sites, and holds the last site but at
    # na = 10.  Row 0 has |H| ~ 1e3, so the clamped systems' partition sums
    # span far more than the float64 range; every row of the stacked call
    # keeps the bits of a call of its own.
    from sktap.gibbs import clamped_moments

    params = ModelParams(n=na, t=0.8, field=np.zeros(na))
    G = sample_couplings(params, na).entries
    H = np.random.default_rng(na).normal(0.2, 0.5, (3, na))
    H[0] *= 2000.0
    stacked = clamped_moments(G, H, F)
    m, pairs, triple = stacked
    assert m.shape == (3, na) and pairs.shape == (len(F), 3, na)
    assert triple is None if len(F) == 1 else triple.shape == (3, na)
    for r, h in enumerate(H):
        for got, one in zip(row_of(stacked, r), row_of(clamped_moments(G, h, F), 0), strict=True):
            assert np.array_equal(got, one)
    g = G.tolist()
    for r in (0, 1):
        f = H[r].tolist()
        raw = [
            np.array([naive_raw_moment(g, f, (*key, site)) for site in range(na)])
            for key in keyed_moments(F)
        ]
        for got, want in zip(row_of(stacked, r), centred(raw, F), strict=True):
            assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize(
    "n, clamped, F",
    [
        (12, None, (11,)),
        (14, None, (13, 4)),
        (16, None, (2, 9)),
        (15, {1: -1, 4: +1, 7: +1}, (14, 0)),
    ],
    ids=["12", "14", "16", "15-reduced"],
)
def test_clamped_moments_match_the_gray_walk(n, clamped, F):
    # Beyond the naive oracle: the keyed sums of the Gray-code walk over the
    # whole system.  The clamped systems have 10-14 sites, all on the block
    # pass; the reduced measure of 15 sites clamps three more, and F names
    # sites, mapped to its 12 active ones.
    from sktap.gibbs import _local_index, _reduce_system, clamped_moments

    rng = np.random.default_rng(n)
    params = ModelParams(n=n, t=0.7, field=rng.normal(0.2, 0.5, n))
    active, G, h = _reduce_system(sample_couplings(params, n), params, clamped)
    local = tuple(_local_index(active, site) for site in F)
    keys = keyed_moments(local)
    gray = gray_moments(G, h, want_pair=False, cols=keys[1:])
    raw = [gray.mag] + [gray.cols[key] for key in keys[1:]]
    rows = row_of(clamped_moments(G, h, local), 0)
    for got, want in zip(rows, centred(raw, local), strict=True):
        assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("n", [20, 23, 24])
def test_the_triple_agrees_along_its_three_clamped_routes(n):
    # m_ijk is symmetric in its sites, yet clamped_moments reaches it by
    # three different mixes: clamp (i, j) and read k, clamp (i, k) and read
    # j, clamp (j, k) and read i.  The centring sums five terms of size <= 1,
    # so 16 ulps of 1 bound the spread; these rows spread by at most 8.3e-16,
    # and 36 random draws at these sizes by at most 1.4e-15.
    from sktap.gibbs import clamped_moments

    params = ModelParams(n=n, t=0.9, field=np.random.default_rng(n).normal(0.2, 0.5, n))
    G, h = sample_couplings(params, n).entries, params.field
    i, j, k = 3, 1, n - 2
    routes = [clamped_moments(G, h, (i, j))[2][0, k],
              clamped_moments(G, h, (i, k))[2][0, j],
              clamped_moments(G, h, (j, k))[2][0, i]]
    assert abs(routes[0]) > 1e-2  # a triple well above the bound
    assert max(routes) - min(routes) <= 16 * np.finfo(np.float64).eps


@pytest.mark.parametrize("n", [8, 16, 24])
def test_the_clamped_triple_pins_its_diagonal_exactly(n):
    # On F = (j, k), tau^2 = 1 gives m_jkj = -2 m_j m_jk and m_jkk =
    # -2 m_k m_jk, both with the one m_jk of pairs[0].  The mix reaches
    # them only up to rounding: unpinned, these draws miss by up to 1.3e-16.
    from sktap.gibbs import clamped_moments

    params = ModelParams.uniform(n, 0.8, 0.3)
    G = sample_couplings(params, 0).entries
    H = np.random.default_rng(0).normal(0.0, 0.5, (2, n))
    F = (1, n - 2)
    m, pairs, triple = clamped_moments(G, H, F)
    for site in F:
        assert np.array_equal(triple[:, site], -2.0 * m[:, site] * pairs[0][:, F[1]])


@pytest.mark.parametrize("n", [20, 23, 24])
def test_the_clamped_column_agrees_with_the_pair_pass(n):
    # Column j of the pair matrix two ways, at sizes no oracle reaches:
    # clamping j (pair_column, two passes over n - 1 sites) and the pair
    # pass of gibbs_tables.  64 ulps of 1 (1.4e-14) bound the spread; these
    # rows spread by at most 12.25 ulps in the column and 8.5 in m, and 36
    # random draws at these sizes by at most 18.5 and 19.
    from sktap.gibbs import pair_column

    params = ModelParams(n=n, t=0.9, field=np.random.default_rng(n).normal(0.2, 0.5, n))
    cm = sample_couplings(params, n)
    m, col = pair_column(cm, params, n // 2)
    tabs = gibbs_tables(cm, params)
    assert np.max(np.abs(col)) > 0.5  # a column well above the bound
    assert np.max(np.abs(col - tabs.pair[:, n // 2])) <= 64 * np.finfo(np.float64).eps
    assert np.max(np.abs(m - tabs.m)) <= 64 * np.finfo(np.float64).eps


def test_the_identities_hold_at_the_largest_size():
    # n = 24, the largest pass, whose tiles are capped at 2^19 grid states:
    # the conditional triple identity (one pair pass at 24 sites, two at 23
    # and the clamped triple) and the coupling derivative, each against its
    # tolerance in verify-identities
    params = ModelParams(n=24, t=0.9, field=np.random.default_rng(24).normal(0.2, 0.5, 24))
    cm = sample_couplings(params, 24)
    pair, triple = key_identity_residual(cm, params, {}, 3, 20, 11)
    assert abs(pair) < 1e-12 and abs(triple) < 1e-12
    assert abs(coupling_derivative_residual(cm, params, 5, 17, 9)) < 1e-7


def same_bits(got, want):
    """Equal shapes and equal bits, so 0.0 and -0.0 differ."""
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("want_pair", [False, True], ids=["m", "pair"])
@pytest.mark.parametrize(
    "na, rows, blocks", [(4, 8196, 1), (9, 500, 1), (9, 300, 300)],
    ids=["walsh-chunks", "block-chunks", "block-stack"],
)
def test_moments_may_write_the_magnetizations_over_their_fields(na, rows, blocks, want_pair):
    # out=h: every chunk reads its rows of h before it writes them, and the
    # fields come column-major, as clamped_moments hands them over.  8196
    # rows of 4 sites run as two Walsh chunks, 500 rows of 9 sites as three
    # block-pass chunks; in the stack, every third block is scaled up until
    # most of them pass the guard's reach, so chunks of b = 0 and of b = 1
    # interleave along the stack
    from sktap.gibbs import BlockEnumerator

    params = ModelParams.uniform(na, 0.8, 0.3)
    G = np.array([sample_couplings(params, seed).entries for seed in range(blocks)])
    if blocks > 1:
        G[::3] *= 500.0
    fields = np.random.default_rng(na).normal(0.2, 0.6, (rows, na))
    h = np.asfortranarray(fields)
    fresh = BlockEnumerator(G).moments(fields, want_pair)
    got = BlockEnumerator(G).moments(h, want_pair, out=h)
    assert got.mag is h
    assert same_bits(h, fresh.mag) and same_bits(got.log_z, fresh.log_z)
    assert got.second is None if not want_pair else same_bits(got.second, fresh.second)


def fresh_output(moments):
    """``moments`` into fresh arrays, its magnetizations copied into ``out``
    after the call: the route of a kernel that takes no output array."""

    def run(self, h, want_pair=True, out=None):
        raw = moments(self, h, want_pair)
        if out is not None:
            out[...] = raw.mag
            raw.mag = out
        return raw

    return run


@pytest.mark.parametrize("where", ["start", "middle", "end"])
@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize(
    "free, rows", [(4, 1), (4, 8196), (9, 1), (9, 400)],
    ids=["walsh-one", "walsh-chunks", "block-one", "block-chunks"],
)
def test_the_clamped_mix_keeps_its_bits_when_the_pass_writes_over_its_fields(
    free, rows, count, where, monkeypatch
):
    # The pass writes the magnetizations over the clamped fields in the
    # free rows of the mix.  Every output keeps the bits of the same call
    # with a fresh output array, and m stays site-major, as the mix holds
    # it.  The kernel sees `rows` systems of `free` sites: one field row
    # (rows = 1 rounds K up to 1), two Walsh chunks, or two block-pass
    # chunks.  F leads the sites (the mix needs no reordering), sits among
    # them (unsorted for two sites) or ends them.
    from sktap.gibbs import BlockEnumerator, clamped_moments

    na, K = free + count, max(1, rows >> count)
    F = {
        "start": tuple(range(count)),
        "middle": (na // 2 + 1, na // 2 - 1)[:count],
        "end": tuple(range(na - count, na)),
    }[where]
    params = ModelParams.uniform(na, 0.8, 0.3)
    G = sample_couplings(params, na).entries
    H = np.random.default_rng(rows).normal(0.2, 0.6, (K, na))
    got = clamped_moments(G, H, F)
    monkeypatch.setattr(BlockEnumerator, "moments", fresh_output(BlockEnumerator.moments))
    want = clamped_moments(G, H, F)
    assert got[0].strides == (8, 8 * (K << count))
    assert (got[2] is None) == (count == 1)
    for part, ref in zip(got, want, strict=True):
        assert part is None or same_bits(part, ref)


def test_triple_rejects_bad_indices():
    p = ModelParams.uniform(5, 0.5, 0.1)
    cm = sample_couplings(p, 3)
    with pytest.raises(ValueError):
        triple_correlation(cm, p, None, 1, 1, 2)
    with pytest.raises(ValueError):
        triple_correlation(cm, p, {2: +1}, 1, 2, 3)


def clamp_pair(site, table):
    """``table(clamped)`` under sigma_site = +1 and under sigma_site = -1."""
    return (table({site: spin}) for spin in (+1, -1))


def test_delta_op_closed_form():
    # half-difference over the clamped spin: delta_0 m_1 = tanh(g) at zero field
    p = ModelParams.uniform(2, 1.0, 0.0)
    cm = two_site_matrix(0.4)
    up, down = clamp_pair(0, lambda clamped: magnetizations(cm, p, clamped)[1])
    assert 0.5 * (up - down) == pytest.approx(math.tanh(0.4), abs=1e-13)


def test_eps_op_kills_odd_observables_at_zero_field():
    # half-sum over the clamped spin: odd observables cancel at h = 0
    p = ModelParams.uniform(4, 0.6, 0.0)
    cm = sample_couplings(p, 21)
    up, down = clamp_pair(0, lambda clamped: magnetizations(cm, p, clamped)[2])
    assert abs(0.5 * (up + down)) < 1e-14
    # even observables survive
    up, down = clamp_pair(0, lambda clamped: gibbs_tables(cm, p, clamped).pair[1, 2])
    assert abs(0.5 * (up + down)) > 1e-6


def test_key_identity_two_site_closed_form():
    p = ModelParams.uniform(2, 1.0, 0.0)
    pair, triple = key_identity_residual(two_site_matrix(0.4), p, {}, 0, 1)
    assert abs(pair) < 1e-14
    assert triple is None


def test_key_identity_zero_coupling():
    p = ModelParams.uniform(5, 0.0, 0.3)
    cm = sample_couplings(p, 6)
    pair, triple = key_identity_residual(cm, p, {}, 0, 1, 2)
    assert abs(pair) < 1e-14 and abs(triple) < 1e-14


def test_key_identities_randomized():
    rng = np.random.default_rng(99)
    p = ModelParams.uniform(8, 0.6, 0.3)
    cm = sample_couplings(p, 13)
    for _ in range(50):
        sites = rng.permutation(8)
        i, j, k = (int(v) for v in sites[:3])
        clamp_count = int(rng.integers(0, 4))
        clamped = {int(s): int(rng.choice((-1, 1))) for s in sites[3 : 3 + clamp_count]}
        pair, triple = key_identity_residual(cm, p, clamped, i, j, k)
        assert abs(pair) < 1e-12 and abs(triple) < 1e-12
        # without k, the same pair residual from the same three tables
        assert key_identity_residual(cm, p, clamped, i, j) == (pair, None)


def test_susceptibility_matches_pair():
    p = ModelParams.uniform(8, 0.5, 0.3)
    cm = sample_couplings(p, 5)
    tabs = gibbs_tables(cm, p)
    for i, j in ((0, 5), (3, 3), (7, 1)):
        fd = susceptibility_fd(cm, p, i, j, 1e-5)
        assert abs(fd - tabs.pair[i, j]) < 1e-8
    with pytest.raises(ValueError):
        susceptibility_fd(cm, p, 0, 1, 0.0)


def test_susceptibility_richardson_step_check():
    # halving the step must be consistent with the O(step^2) error model:
    # the Richardson combination lands much closer to the exact covariance
    p = ModelParams.uniform(8, 0.5, 0.3)
    cm = sample_couplings(p, 5)
    tabs = gibbs_tables(cm, p)
    i, j = 2, 6
    fd1 = susceptibility_fd(cm, p, i, j, 1e-5)
    fd2 = susceptibility_fd(cm, p, i, j, 2e-5)
    richardson = (4.0 * fd1 - fd2) / 3.0
    assert abs(richardson - tabs.pair[i, j]) < 5e-10
    assert abs(fd1 - fd2) < 1e-7


def test_susceptibility_trivial_cases():
    p = ModelParams.uniform(3, 0.0, 0.0)
    cm = sample_couplings(p, 2)
    assert abs(susceptibility_fd(cm, p, 0, 2)) < 1e-9
    assert susceptibility_fd(cm, p, 1, 1) == pytest.approx(1.0, abs=1e-9)


def test_coupling_derivative_identity():
    p = ModelParams.uniform(8, 0.5, 0.3)
    cm = sample_couplings(p, 5)
    for i, l, k in ((0, 1, 2), (3, 7, 5), (2, 6, 0)):
        assert abs(coupling_derivative_residual(cm, p, i, l, k)) < 1e-7


def test_coupling_derivative_repeated_index_conventions():
    # two-site case: the derivative target coincides with one bond end
    p = ModelParams.uniform(2, 1.0, 0.0)
    cm = two_site_matrix(0.4)
    assert abs(coupling_derivative_residual(cm, p, 0, 1, 1)) < 1e-8
    ph = ModelParams.uniform(5, 0.5, 0.3)
    cmh = sample_couplings(ph, 8)
    assert abs(coupling_derivative_residual(cmh, ph, 1, 3, 3)) < 1e-7
    assert abs(coupling_derivative_residual(cmh, ph, 1, 3, 1)) < 1e-7
    with pytest.raises(ValueError):
        coupling_derivative_residual(cmh, ph, 2, 2, 0)


def test_coupling_derivative_zero_baseline():
    p = ModelParams.uniform(4, 0.0, 0.0)
    cm = sample_couplings(p, 1)
    assert abs(coupling_derivative_residual(cm, p, 0, 1, 2)) < 1e-10


def residual_from_tables(cm, p, i, l, k, step=1e-5):
    """The coupling derivative residual with its right-hand side read from
    ``gibbs_tables``, the repeated-index conventions written out by hand."""
    up = magnetizations(cm.bumped(i, l, +step), p)
    down = magnetizations(cm.bumped(i, l, -step), p)
    base = gibbs_tables(cm, p)
    if k in (i, l):
        trip = -2.0 * base.m[k] * base.pair[i, l]
    else:
        trip = triple_correlation(cm, p, None, i, l, k)
    rhs = base.m[i] * base.pair[k, l] + base.m[l] * base.pair[i, k] + trip
    return (up[k] - down[k]) / (2.0 * step) - rhs


@pytest.mark.parametrize("k", [2, 7, 4], ids=["k=i", "k=l", "k-generic"])
def test_coupling_derivative_reads_the_clamped_route_as_the_tables_do(k):
    # n = 10: the clamped systems of 8 sites run the block pass; both
    # routes share the finite difference, so only the right-hand sides
    # differ, by float noise
    p = ModelParams.uniform(10, 0.6, 0.3)
    cm = sample_couplings(p, 21)
    got = coupling_derivative_residual(cm, p, 2, 7, k)
    assert abs(got - residual_from_tables(cm, p, 2, 7, k)) < 1e-14


def test_coupling_derivative_makes_three_magnetization_passes(monkeypatch):
    # the two bumped passes and one call with i and l clamped four ways
    from sktap.gibbs import BlockEnumerator

    calls = []
    moments = BlockEnumerator.moments

    def spy(self, h, want_pair, out=None):
        calls.append((len(np.atleast_2d(h)), want_pair))
        return moments(self, h, want_pair, out)

    def no_tables(*args, **kwargs):
        raise AssertionError("gibbs_tables called")

    monkeypatch.setattr(BlockEnumerator, "moments", spy)
    monkeypatch.setattr(sktap.gibbs, "gibbs_tables", no_tables)
    p = ModelParams.uniform(8, 0.5, 0.3)
    coupling_derivative_residual(sample_couplings(p, 5), p, 0, 1, 2)
    assert calls == [(1, False), (1, False), (4, False)]


def _pair_derivative_fd(cm, p, i, k, a, b, step=1e-5):
    up = gibbs_tables(cm.bumped(i, k, +step), p)
    dn = gibbs_tables(cm.bumped(i, k, -step), p)
    return (up.pair[a, b] - dn.pair[a, b]) / (2.0 * step)


def test_pair_derivative_same_site_expansion():
    # d m_kj / d g_ik expands through the half-difference operator at site j:
    # -2 m_j (m_i m_jk + m_k m_ij + m_ijk) delta_j m_k^[j]
    #   + (1 - m_j^2) delta_j[(1 - (m_k^[j])^2) m_i^[j] - m_k^[j] m_ik^[j]]
    p = ModelParams.uniform(6, 0.5, 0.3)
    cm = sample_couplings(p, 17)
    base = gibbs_tables(cm, p)
    for i, k, j in ((0, 1, 2), (3, 5, 0), (4, 2, 5)):
        up = gibbs_tables(cm, p, {j: +1})
        dn = gibbs_tables(cm, p, {j: -1})
        delta_mk = 0.5 * (up.m[k] - dn.m[k])
        inner_up = (1.0 - up.m[k] ** 2) * up.m[i] - up.m[k] * up.pair[i, k]
        inner_dn = (1.0 - dn.m[k] ** 2) * dn.m[i] - dn.m[k] * dn.pair[i, k]
        trip = triple_correlation(cm, p, None, i, j, k)
        rhs = -2.0 * base.m[j] * (
            base.m[i] * base.pair[j, k] + base.m[k] * base.pair[i, j] + trip
        ) * delta_mk + (1.0 - base.m[j] ** 2) * 0.5 * (inner_up - inner_dn)
        lhs = _pair_derivative_fd(cm, p, i, k, k, j)
        assert abs(lhs - rhs) < 1e-7


def test_pair_derivative_distinct_site_expansion():
    # d m_lj / d g_ik expands through the half-difference operator at site l:
    # -2 m_l (m_i m_kl + m_k m_il + m_ilk) delta_l m_j^[l]
    #   + (1 - m_l^2) delta_l(m_i^[l] m_kj^[l] + m_k^[l] m_ij^[l] + m_ijk^[l])
    p = ModelParams.uniform(6, 0.5, 0.3)
    cm = sample_couplings(p, 17)
    base = gibbs_tables(cm, p)
    for i, k, l, j in ((0, 1, 2, 3), (4, 2, 5, 0)):
        clamps = [{l: s} for s in (+1, -1)]
        tabs = [gibbs_tables(cm, p, c) for c in clamps]
        trips = [triple_correlation(cm, p, c, i, j, k) for c in clamps]
        delta_mj = 0.5 * (tabs[0].m[j] - tabs[1].m[j])
        inner = [
            tb.m[i] * tb.pair[k, j] + tb.m[k] * tb.pair[i, j] + tr
            for tb, tr in zip(tabs, trips)
        ]
        trip_ilk = triple_correlation(cm, p, None, i, l, k)
        rhs = -2.0 * base.m[l] * (
            base.m[i] * base.pair[k, l] + base.m[k] * base.pair[i, l] + trip_ilk
        ) * delta_mj + (1.0 - base.m[l] ** 2) * 0.5 * (inner[0] - inner[1])
        lhs = _pair_derivative_fd(cm, p, i, k, l, j)
        assert abs(lhs - rhs) < 1e-7


def test_magnetizations_shortcut_agrees_with_tables():
    rng = np.random.default_rng(404)
    params, cm = random_instance(rng, 7)
    m_light = magnetizations(cm, params, {3: -1})
    m_full = gibbs_tables(cm, params, {3: -1}).m
    assert np.allclose(m_light, m_full, atol=1e-14)


def test_spec_validation():
    # a clamped measure is a mapping {site: +-1}, which cannot clamp a site twice
    p = ModelParams.uniform(3, 0.5, 0.0)
    cm = sample_couplings(p, 0)
    for clamped, message in (
        ({0: 2}, "clamped spin at site 0 must be \\+-1, got 2"),
        ({5: +1}, "site 5 out of range for n=3"),
        ({-1: +1}, "site -1 out of range for n=3"),
    ):
        for call in (gibbs_tables, magnetizations):
            with pytest.raises(ValueError, match=message):
                call(cm, p, clamped)


@pytest.mark.parametrize(
    "call",
    [
        lambda cm, p: susceptibility_fd(cm, p, -1, 2),
        lambda cm, p: susceptibility_fd(cm, p, 6, 2),
        lambda cm, p: key_identity_residual(cm, p, {}, 0, -1),
        lambda cm, p: key_identity_residual(cm, p, {}, 0, 1, 6),
        lambda cm, p: coupling_derivative_residual(cm, p, 0, -1, 0),
        lambda cm, p: coupling_derivative_residual(cm, p, 0, 1, 6),
    ],
    ids=["fd-i-1", "fd-i6", "identity-j-1", "identity-k6", "coupling-l-1", "coupling-k6"],
)
def test_site_arguments_out_of_range_are_rejected(call):
    # negative sites must not wrap around to n - 1, nor sites >= n end in IndexError
    p = ModelParams.uniform(6, 0.5, 0.3)
    cm = sample_couplings(p, 4)
    with pytest.raises(ValueError, match="out of range"):
        call(cm, p)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda cm, p: gibbs_tables(cm, ModelParams.uniform(5, 0.5, 0.3)), "size 6 != params n 5"),
        (lambda cm, p: magnetizations(cm, ModelParams.uniform(7, 0.5, 0.3)), "size 6 != params n 7"),
        (lambda cm, p: tap2_residual(cm, ModelParams.uniform(5, 0.5, 0.3), 0, 1), "size 6 != params n 5"),
        (lambda cm, p: htap2_residual(cm, ModelParams.uniform(5, 0.5, 0.3), 0, 1), "size 6 != params n 5"),
        (lambda cm, p: key_identity_residual(cm, p, {}, 0, 0), "must be distinct"),
        (lambda cm, p: key_identity_residual(cm, p, {}, 0, 1, 0), "must be distinct"),
        (lambda cm, p: key_identity_residual(cm, p, {1: -1}, 0, 1), "not be clamped"),
        (lambda cm, p: key_identity_residual(cm, p, {2: 1}, 0, 1, 2), "not be clamped"),
        (lambda cm, p: coupling_derivative_residual(cm, p, 0, 1, 2, 0.0), "step must be > 0"),
        (lambda cm, p: coupling_derivative_residual(cm, p, 0, 1, 2, -1e-5), "step must be > 0"),
    ],
    ids=["tables-n5", "mags-n7", "tap2-n5", "htap2-n5", "pair-repeated", "triple-repeated",
         "pair-clamped", "triple-clamped", "step-0", "step-negative"],
)
def test_malformed_arguments_are_rejected(call, message):
    p = ModelParams.uniform(6, 0.5, 0.3)
    cm = sample_couplings(p, 4)
    with pytest.raises(ValueError, match=message):
        call(cm, p)
