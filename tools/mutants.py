"""Mutation checks of the enumeration kernel and its clamped mix, the solvers, the TAP, spectral
and Ito formulas, the ensemble driver and its sample loop.

    python tools/mutants.py

Each mutant is one exact edit, (file, snippet, replacement), plus the tests
that must catch it.  The script copies ``src/``, ``tests/``, ``tools/``,
``pyproject.toml`` and ``README.md`` into a temporary directory, runs every
targeted test once there unmutated, then applies each mutant in turn to a
fresh copy of the file and runs its tests with pytest.  A mutant is killed
when its tests fail (pytest exit 1); an error that stops the tests from
running, such as a syntax error, does not count as a kill.  The run exits 1
if the unmutated tests fail, if a mutant is not killed, or if a snippet no
longer occurs exactly once in its file: a rewrite of the code a mutant
guards has to carry the mutant forward, not lose it.  The checkout itself
is never edited.  Each mutant costs one targeted pytest run (about 2-10 s),
so the checks stay outside the test suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

LATE_TILE = "tests/test_gibbs_properties.py::test_online_shift_matches_gray_when_the_maximum_sits_in_a_late_tile"
SMALL_SYSTEMS = "tests/test_gibbs.py::test_small_systems_match_the_oracles_at_huge_fields"
HAND_SPECTRAL = "tests/test_spectral.py::test_deformed_operator_and_resolvent_match_hand_formulas"
SEVERAL_PER_CHUNK = "tests/test_gibbs.py::test_a_chunk_of_several_systems_gives_each_system_its_own_tiles"
CLAMPED_NAIVE = "tests/test_gibbs.py::test_clamped_moments_match_the_naive_oracle"
WALSH_BITS = "tests/test_gibbs.py::test_in_place_walsh_pass_keeps_the_bits_of_the_two_buffer_pass"
HTAP2_SIDES = "tests/test_tap.py::test_htap2_matches_the_naive_oracle_on_either_side_of_the_cavity_site"
IN_PLACE_MIX = "tests/test_gibbs.py::test_the_clamped_mix_keeps_its_bits_when_the_pass_writes_over_its_fields"
WALSH_REMAINDER = "tests/test_gibbs.py::test_walsh_stack_takes_a_small_remainder_into_its_last_chunk"
CHUNK_PLAN = "tests/test_gibbs.py::test_the_chunk_plan_covers_each_row_once_in_the_fewest_equal_chunks"
BLOCK_ENERGIES = "tests/test_gibbs.py::test_block_energies_by_halves_match_the_sum_over_pairs"
SIGNED_SUMS = "tests/test_gibbs.py::test_signed_sums_by_halves_match_the_exact_sums"
NAIVE_TABLES = "tests/test_gibbs.py::test_engines_match_naive_oracle"
LARGEST_PASSES = "tests/test_gibbs.py::test_largest_passes_equal_the_mix_of_their_clamped_halves"
SHARED_GRIDS = "tests/test_gibbs.py::test_the_cavities_of_a_group_share_one_grid_and_keep_their_own_bits"
RUN_BREAKS = "tests/test_gibbs.py::test_runs_break_where_the_couplings_the_fields_or_b_differ"
RUN_PLAN = "tests/test_gibbs.py::test_the_run_plan_never_splits_a_run_that_fits"
SHARED_TILES = "tests/test_gibbs_properties.py::test_a_shared_grid_matches_gray_wherever_the_maximum_sits"
RUN_TRAFFIC = "tests/test_cli.py::test_only_the_cavity_stacks_ask_which_systems_share_a_grid"
STRETCH_PLAN = "tests/test_gibbs.py::test_the_stretch_plan_equals_the_first_fit_plan"
STACKED_ROWS = "tests/test_gibbs_properties.py::test_stacked_pass_equals_one_pass_per_row"
ENGINES = "tests/test_engines.py"
DIVIDED_DIFFERENCE = "tests/test_spectral.py::test_s_prime_fd_is_the_divided_difference_of_the_exact_roots"

# (name, file, exact snippet, replacement, targeted tests)
MUTANTS = (
    (
        "drop-running-column-total-rescale",
        "src/sktap/gibbs.py",
        "                        by_right[g, : c.start] *= scale[:, 0]\n",
        "",
        [LATE_TILE],
    ),
    (
        "drop-running-row-sum-rescale",
        "src/sktap/gibbs.py",
        "                        row_sums[g] *= scale\n",
        "",
        [LATE_TILE],
    ),
    (
        "drop-running-cross-rescale",
        "src/sktap/gibbs.py",
        "                            cross[g] *= scale\n",
        "                            pass\n",
        [LATE_TILE],
    ),
    (
        "drop-row-shift-of-a",
        "src/sktap/gibbs.py",
        "        a -= a_shift[:, None, :]\n",
        "",
        [LATE_TILE],
    ),
    (
        "run-key-ignores-right-fields",
        "src/sktap/gibbs.py",
        ".reshape(at.size, -1), H[at, n1:]]",
        ".reshape(at.size, -1)]",
        [RUN_BREAKS],
    ),
    (
        "run-key-ignores-couplings",
        "src/sktap/gibbs.py",
        "[self.G[at, b:, n1:].reshape(at.size, -1), H[at, n1:]]",
        "[H[at, n1:]]",
        [RUN_BREAKS],
    ),
    (
        "row-factor-without-a-shift",
        "src/sktap/gibbs.py",
        "                    f = shift + r[:, None]\n",
        "                    f = 0.0 * shift + r[:, None]\n",
        [SMALL_SYSTEMS],
    ),
    (
        "row-factor-forgets-earlier-tiles",
        "src/sktap/gibbs.py",
        "                    f -= grown[:, :, None]\n",
        "                    f -= peak[:, :, None]\n",
        [SHARED_TILES],
    ),
    (
        "grid-reused-across-a-run-boundary",
        "src/sktap/gibbs.py",
        "                np.matmul(left_g, right[runs], out=W)\n",
        "                np.matmul(left_g, right[runs.start : runs.start + 1], out=W)\n",
        [SHARED_GRIDS],
    ),
    (
        "one-block-stack-asks-for-runs",
        "src/sktap/gibbs.py",
        "if blocks > 1 else [1] * K\n",
        "if at.size > 1 else [1] * K\n",
        [RUN_TRAFFIC],
    ),
    (
        "stretch-cut-short-of-per",
        "src/sktap/gibbs.py",
        "        for i in range(0, count, per):\n            R = min(per, count - i)\n",
        "        for i in range(0, count, max(1, per - 1)):\n"
        "            R = min(max(1, per - 1), count - i)\n",
        [STRETCH_PLAN],
    ),
    (
        "high-left-rows-copied-from-row-0-of-a-stack",
        "src/sktap/gibbs.py",
        "            np.matmul(G_high, SRT[:, c], out=right[: len(lead), :-2])\n"
        "            right[len(lead) :, :-2] = right[0, :-2]\n",
        "            np.matmul(G_high[:1], SRT[:, c], out=right[:1, :-2])\n"
        "            right[1:, :-2] = right[0, :-2]\n",
        [SHARED_GRIDS, "tests/test_gibbs.py::test_coupling_stack_is_bit_equal_to_one_system_per_block"],
    ),
    (
        "one-block-rows-keep-a-stale-high-left-operand",
        "src/sktap/gibbs.py",
        "            right[len(lead) :, :-2] = right[0, :-2]\n",
        "",
        [STACKED_ROWS],
    ),
    (
        "run-plan-splits-a-run-that-fits",
        "src/sktap/gibbs.py",
        "        self.most = max(1, (_TILE_STATES + _TILE_STATES // 8 - self.operands(0)) // own)\n",
        "        self.most = max(1, (_TILE_STATES // 2 - self.operands(0)) // own)\n",
        [SHARED_GRIDS, RUN_PLAN],
    ),
    (
        "grids-shared-where-no-run-fits",
        "src/sktap/gibbs.py",
        "        self.most = max(1, (_TILE_STATES + _TILE_STATES // 8 - self.operands(0)) // own)\n",
        "        self.most = max(2, (_TILE_STATES + _TILE_STATES // 8 - self.operands(0)) // own)\n",
        [SHARED_GRIDS],
    ),
    (
        "own-grid-drops-the-column-shift-of-a",
        "src/sktap/gibbs.py",
        "            left[:, :, -2] = a_shift\n",
        "",
        [LARGEST_PASSES],
    ),
    (
        "drop-c-shift",
        "src/sktap/gibbs.py",
        "np.log(zsum) + top + c_shift",
        "np.log(zsum) + top",
        [LATE_TILE],
    ),
    (
        "zeroed-shift-row-of-the-factor",
        "src/sktap/gibbs.py",
        "        B[:, b] = -c_shift[:, None]\n",
        "        B[:, b] = 0.0\n",
        ["tests/test_gibbs.py::test_largest_passes_equal_the_mix_of_their_clamped_halves"],
    ),
    (
        "remove-guard",
        "src/sktap/gibbs.py",
        "    return np.count_nonzero(reach[:, : _low_cap(sum(G_LR.shape[1:]))] <= _GUARD, axis=1)\n",
        "    return np.full(len(reach), _low_cap(sum(G_LR.shape[1:])))\n",
        ["tests/test_gibbs.py::test_guard_keeps_strong_low_left_couplings_exact"],
    ),
    (
        "stack-shares-first-factor",
        "src/sktap/gibbs.py",
        "        B[:, :b] = G_LR[:, :b] @ SR.T\n",
        "        B[:, :b] = G_LR[:1, :b] @ SR.T\n",
        ["tests/test_gibbs.py::test_coupling_stack_is_bit_equal_to_one_system_per_block"],
    ),
    (
        "tile-subtracts-previous-system-shift",
        "src/sktap/gibbs.py",
        "                    f -= grown[:, :, None]\n",
        "                    f -= (grown if j else np.roll(grown, 1))[:, :, None]\n",
        [SHARED_GRIDS],
    ),
    (
        "last-chunk-skips-its-final-system",
        "src/sktap/gibbs.py",
        "                rows = at[span] if blocks > 1 else span\n",
        "                rows = at[span.start : min(span.stop, at.size - 1)] if blocks > 1 else span\n",
        [SEVERAL_PER_CHUNK],
    ),
    (
        "block-pass-magnetizations-off-by-1e-13",
        "src/sktap/gibbs.py",
        "        out.mag[rows] = np.concatenate([at_left[:, 0], at_right[:, 0]], axis=1) / norm\n",
        "        out.mag[rows] = np.concatenate([at_left[:, 0], at_right[:, 0]], axis=1)"
        " / (norm * (1 + 1e-13))\n",
        ["tests/test_pinned_payloads.py"],
    ),
    (
        "clamped-weights-without-the-clamped-couplings",
        "src/sktap/gibbs.py",
        "    w += 0.5 * ((tau @ G_F[:, F]) * tau).sum(axis=1)[:, None]\n",
        "",
        [CLAMPED_NAIVE],
    ),
    (
        "clamped-pass-into-a-fresh-output-array",
        "src/sktap/gibbs.py",
        "    raw = BlockEnumerator(G[rest][:, rest]).moments(fields, want_pair=False, out=fields)\n",
        "    raw = BlockEnumerator(G[rest][:, rest]).moments(fields, want_pair=False)\n"
        "    fields[...] = raw.mag\n",
        ["tests/test_dynamics.py::test_one_check_allocates_less_than_two_mebibytes"],
    ),
    (
        "walsh-writes-magnetizations-before-the-doubling",
        "src/sktap/gibbs.py",
        "        X[0] = 0.0\n",
        "        out.mag[rows] = 0.0\n        X[0] = 0.0\n",
        [IN_PLACE_MIX],
    ),
    (
        "clamped-mix-rows-left-unswapped",
        "src/sktap/gibbs.py",
        "            mix[[a, b]] = mix[[b, a]]\n",
        "            pass\n",
        [CLAMPED_NAIVE],
    ),
    (
        "clamped-pair-diagonal-unpinned",
        "src/sktap/gibbs.py",
        "        pairs[a][:, site] = 1.0 - m[:, site] * m[:, site]\n",
        "",
        ["tests/test_gibbs_properties.py::test_zero_field_measure_is_spin_flip_symmetric"],
    ),
    (
        "clamped-triple-diagonal-unpinned",
        "src/sktap/gibbs.py",
        "        triple[:, site] = -2.0 * m[:, site] * pairs[0][:, F[1]]\n",
        "        pass\n",
        ["tests/test_gibbs.py::test_the_clamped_triple_pins_its_diagonal_exactly"],
    ),
    (
        "clamped-mix-swaps-lo-and-hi",
        "src/sktap/gibbs.py",
        "        lo, hi = X.reshape(-1, 2, 1 << i, k).swapaxes(0, 1)\n",
        "        hi, lo = X.reshape(-1, 2, 1 << i, k).swapaxes(0, 1)\n",
        [CLAMPED_NAIVE],
    ),
    (
        "centred-triple-flipped-cubic-term",
        "src/sktap/gibbs.py",
        "    triple = r[3] - ma * r[2] - mb * r[1] - m * r_ab + 2.0 * ma * mb * m\n",
        "    triple = r[3] - ma * r[2] - mb * r[1] - m * r_ab - 2.0 * ma * mb * m\n",
        [CLAMPED_NAIVE],
    ),
    (
        "coupling-derivative-without-the-triple",
        "src/sktap/gibbs.py",
        "    rhs = m[0, i] * pair_l[0, k] + m[0, l] * pair_i[0, k] + m_ilk[0, k]\n",
        "    rhs = m[0, i] * pair_l[0, k] + m[0, l] * pair_i[0, k]\n",
        ["tests/test_gibbs.py::test_coupling_derivative_identity"],
    ),
    (
        "walsh-no-column-shift",
        "src/sktap/gibbs.py",
        "        X -= shift\n",
        "",
        [SMALL_SYSTEMS],
    ),
    (
        "walsh-flipped-butterfly-sign",
        "src/sktap/gibbs.py",
        "        np.subtract(hi, lo, out=d)\n",
        "        np.subtract(lo, hi, out=d)\n",
        [SMALL_SYSTEMS],
    ),
    (
        "walsh-fields-in-forward-site-order",
        "src/sktap/gibbs.py",
        "        for i, h in enumerate(H.T[::-1]):\n",
        "        for i, h in enumerate(H.T):\n",
        [SMALL_SYSTEMS],
    ),
    (
        "walsh-stack-reads-first-couplings",
        "src/sktap/gibbs.py",
        "        X += self.E[:, rows] if self.E.shape[1] > 1 else self.E\n",
        "        X += self.E[:, :1]\n",
        ["tests/test_gibbs.py::test_walsh_coupling_stack_is_bit_equal_to_one_block_per_system"],
    ),
    (
        "walsh-scratch-not-copied-back",
        "src/sktap/gibbs.py",
        "        hi[...] = d\n",
        "",
        [WALSH_BITS],
    ),
    (
        "shift-gray-magnetizations",
        "tests/oracles.py",
        "    mag = S.T @ w / zsum\n",
        "    mag = S.T @ w / zsum + 1e-10\n",
        ["tests/test_gibbs.py::test_engines_match_each_other_with_reductions"],
    ),
    (
        "nan-blind-fixed-point-check",
        "src/sktap/tap.py",
        "    if not abs(q - f_map(q, t, h, nodes)) <= tol:\n",
        "    if abs(q - f_map(q, t, h, nodes)) > tol:\n",
        ["tests/test_tap.py::test_solve_q_never_accepts_a_nan_residual"],
    ),
    (
        "biased-sample-variance",
        "src/sktap/ensemble.py",
        "        var = float(row.var(ddof=1))\n",
        "        var = float(row.var(ddof=0))\n",
        ["tests/test_ensemble.py::test_stats_shape_and_stderr_definition"],
    ),
    (
        "fit-residual-dof-off-by-one",
        "src/sktap/ensemble.py",
        "    dof = len(pts) - 2\n",
        "    dof = len(pts) - 1\n",
        ["tests/test_ensemble.py::test_fit_power_law_synthetic_noise"],
    ),
    (
        "halved-tap2-field-term",
        "src/sktap/tap.py",
        "(2.0 * params.t / params.n)",
        "(1.0 * params.t / params.n)",
        ["tests/test_tap.py::test_tap2_three_site_hand_expansion"],
    ),
    (
        "flipped-e0-overlap-sign",
        "src/sktap/spectral.py",
        "e0 = -params.t * (1.0 - float(np.sum(m**2)) / params.n)",
        "e0 = -params.t * (1.0 + float(np.sum(m**2)) / params.n)",
        [HAND_SPECTRAL],
    ),
    (
        "halved-rank-one",
        "src/sktap/spectral.py",
        "rank_one = (2.0 / params.n) * np.outer(m, m)",
        "rank_one = (1.0 / params.n) * np.outer(m, m)",
        [HAND_SPECTRAL],
    ),
    (
        "nan-magnetization-passes-the-guard",
        "src/sktap/spectral.py",
        "    if not np.all(np.abs(m) < 1.0):\n",
        "    if np.any(np.abs(m) >= 1.0):\n",
        ["tests/test_spectral.py::test_nan_magnetizations_are_a_singular_operator"],
    ),
    (
        "condition-number-without-the-inverse",
        "src/sktap/spectral.py",
        "cond = np.linalg.norm(d, 1) * np.linalg.norm(resolvent, 1)",
        "cond = np.linalg.norm(d, 1)",
        ["tests/test_spectral.py::test_resolvent_error_refuses_exactly_above_the_one_norm_condition_number"],
    ),
    (
        "phi-without-t-s",
        "src/sktap/spectral.py",
        "        denom = lam - e - t * s\n        if np.min(denom) <= 0:\n",
        "        denom = lam - e\n        if np.min(denom) <= 0:\n",
        ["tests/test_spectral.py::test_self_consistent_s_scalar_quadratic"],
    ),
    (
        "bracket-starts-at-zero",
        "src/sktap/spectral.py",
        "    s = _last_true(lambda x: x - phi(x) <= 0, s0, peak)\n",
        "    s = _last_true(lambda x: x - phi(x) <= 0, 0.0, peak)\n",
        ["tests/test_spectral.py::test_self_consistent_s_brackets_the_peak_and_the_root_from_s0"],
    ),
    (
        "fd-without-the-parts-below-the-last-bit",
        "src/sktap/spectral.py",
        "    fd = ((s_plus - s_minus) + below) / (e_plus - e_minus)\n",
        "    fd = (s_plus - s_minus) / (e_plus - e_minus)\n",
        [DIVIDED_DIFFERENCE, "tests/test_engines.py::test_s_prime_fd_agrees_on_both_engines_on_random_samples"],
    ),
    (
        "fd-over-twice-the-step",
        "src/sktap/spectral.py",
        "    fd = ((s_plus - s_minus) + below) / (e_plus - e_minus)\n",
        "    fd = ((s_plus - s_minus) + below) / (2.0 * step)\n",
        [DIVIDED_DIFFERENCE],
    ),
    (
        "below-last-bit-steps-away-from-the-root",
        "src/sktap/spectral.py",
        "    return -float(excess) / (1.0 - t * float(np.mean((lam - e - t * s) ** -2.0)))\n",
        "    return float(excess) / (1.0 - t * float(np.mean((lam - e - t * s) ** -2.0)))\n",
        [DIVIDED_DIFFERENCE],
    ),
    (
        "bracket-exits-on-lo-alone",
        "src/sktap/tap.py",
        "        if step == (lo, hi) and mid != 0.0:\n",
        "        if step[0] == lo and mid != 0.0:\n",
        ["tests/test_tap.py::test_last_true_stops_early_at_the_point_of_200_halvings"],
    ),
    (
        "bracket-exit-trusts-a-signed-zero",
        "src/sktap/tap.py",
        "        if step == (lo, hi) and mid != 0.0:\n",
        "        if step == (lo, hi):\n",
        ["tests/test_tap.py::test_last_true_stops_early_at_the_point_of_200_halvings"],
    ),
    (
        "bracket-never-stops-early",
        "src/sktap/tap.py",
        "        if step == (lo, hi) and mid != 0.0:\n",
        "        if False:\n",
        ["tests/test_tap.py::test_last_true_stops_once_its_ends_are_neighbours"],
    ),
    (
        "flipped-onsager-sign",
        "src/sktap/tap.py",
        "args = params.field + cm.entries @ m - onsager * m",
        "args = params.field + cm.entries @ m + onsager * m",
        ["tests/test_tap.py::test_tap1_report_matches_direct_recomputation"],
    ),
    (
        "flipped-htap1-field-sign",
        "src/sktap/tap.py",
        "    args = params.field + np.einsum(",
        "    args = -params.field + np.einsum(",
        ["tests/test_tap.py::test_htap1_report_matches_direct_recomputation"],
    ),
    (
        "flipped-ito-drift-sign",
        "src/sktap/dynamics.py",
        "drift_inc = -np.sum(drift_vec[:-1], axis=1)",
        "drift_inc = np.sum(drift_vec[:-1], axis=1)",
        ["tests/test_dynamics.py::test_residual_shrinks_under_refinement_of_one_path"],
    ),
    (
        "ito-residual-plain-sum",
        "src/sktap/dynamics.py",
        "math.fsum(mart_inc.tolist()), math.fsum(drift_inc.tolist())",
        "sum(mart_inc.tolist()), sum(drift_inc.tolist())",
        ["tests/test_dynamics.py::test_residual_is_the_exactly_rounded_sum_of_the_increments"],
    ),
    (
        "right-endpoint-martingale",
        "src/sktap/dynamics.py",
        "mart_inc = (mart_vec[:-1, None, :]",
        "mart_inc = (mart_vec[1:, None, :]",
        ["tests/test_dynamics.py::test_integrands_match_independent_clamped_route"],
    ),
    (
        "ito-pair-swapped-spin-halves",
        "src/sktap/dynamics.py",
        "        (up, dn), (pc_up, pc_dn) = np.split(m, 2), np.split(pc, 2)\n",
        "        (dn, up), (pc_dn, pc_up) = np.split(m, 2), np.split(pc, 2)\n",
        ["tests/test_dynamics.py::test_residual_shrinks_under_refinement_of_one_path"],
    ),
    (
        "product-drift-without-cross-term",
        "src/sktap/dynamics.py",
        "drift = m * pjk * pk + mk * (m * triple + pj * pk) - pk * triple",
        "drift = m * pjk * pk + mk * (m * triple + pj * pk)",
        ["tests/test_dynamics.py::test_variant_residuals_shrink_under_refinement"],
    ),
    (
        "unmixed-seed-index",
        "src/sktap/model.py",
        "state = _mix64(state ^ _mix64(ix & _MASK64))",
        "state = _mix64(state ^ (ix & _MASK64))",
        ["tests/test_dynamics.py::test_cavity_difference_terminal_square_scales_inversely_with_n"],
    ),
    (
        "terminal-skips-last-increment",
        "src/sktap/model.py",
        "        return _symmetric(self.n, inc.sum(axis=0))\n",
        "        return _symmetric(self.n, inc[:-1].sum(axis=0))\n",
        ["tests/test_model.py::test_terminal_rows_are_the_last_rows_of_the_row_paths"],
    ),
    (
        "path-keeps-the-given-layout",
        "src/sktap/model.py",
        "        inc = np.ascontiguousarray(self.increments, dtype=np.float64)\n",
        "        inc = np.asarray(self.increments, dtype=np.float64)\n",
        ["tests/test_model.py::test_terminal_rows_are_the_last_rows_of_the_row_paths"],
    ),
    (
        "terminal-sums-the-lone-coupling-pairwise",
        "src/sktap/model.py",
        "        if inc.shape[1] == 1:\n",
        "        if False:\n",
        ["tests/test_model.py::test_terminal_rows_are_the_last_rows_of_the_row_paths"],
    ),
    (
        "row-path-prefix-one-step-late",
        "src/sktap/model.py",
        "np.cumsum(increments, axis=0, out=rows[1:])",
        "np.cumsum(increments[1:], axis=0, out=rows[2:])",
        ["tests/test_model.py::test_terminal_rows_are_the_last_rows_of_the_row_paths"],
    ),
    (
        "trace-cavity-difference-from-the-minus-grid",
        "src/sktap/dynamics.py",
        "        return lhs, eps_col, delta_prod, up[:, jl]\n",
        "        return lhs, eps_col, delta_prod, dn[:, jl]\n",
        ["tests/test_dynamics.py::test_trace_reads_the_cavity_difference_of_its_own_enumeration"],
    ),
    (
        "halved-susceptibility-step",
        "src/sktap/gibbs.py",
        "    return float((up[i] - down[i]) / (2.0 * step))\n",
        "    return float((up[i] - down[i]) / (1.0 * step))\n",
        ["tests/test_gibbs.py::test_susceptibility_matches_pair"],
    ),
    (
        "htap2-full-system-magnetizations",
        "src/sktap/tap.py",
        "    arg = params.field[i] + g_i @ m_cav[0]\n",
        "    arg = params.field[i] + g_i @ magnetizations(cm, params)[others]\n",
        ["tests/test_cli.py::test_small_scaling_payload_matches_its_pinned_means[htap2]"],
    ),
    (
        "htap2-cavity-column-unshifted",
        "src/sktap/tap.py",
        "(j - (j > i),)",
        "(j,)",
        [HTAP2_SIDES],
    ),
    (
        "htap2-cavity-column-always-shifted",
        "src/sktap/tap.py",
        "(j - (j > i),)",
        "(j - 1,)",
        [HTAP2_SIDES],
    ),
    (
        "ito-cavity-sites-always-shifted",
        "src/sktap/dynamics.py",
        "    clamp = tuple(site - (site > i) for site in sites)\n",
        "    clamp = tuple(site - 1 for site in sites)\n",
        ["tests/test_dynamics.py::test_cavity_difference_matches_independent_clamped_route"],
    ),
    (
        "clamped-field-folded-with-the-wrong-sign",
        "src/sktap/gibbs.py",
        "        h_eff += G[active, j] * tau\n",
        "        h_eff -= G[active, j] * tau\n",
        ["tests/test_gibbs.py::test_log_partition_clamped_reduces_to_single_site"],
    ),
    (
        "clamped-spin-check-dropped",
        "src/sktap/gibbs.py",
        "        if s not in (-1, 1):\n",
        "        if False:\n",
        ["tests/test_gibbs.py::test_spec_validation"],
    ),
    (
        "pair-identity-reads-up-on-both-sides",
        "src/sktap/gibbs.py",
        "    delta_mj = 0.5 * (up.m[j] - down.m[j])\n",
        "    delta_mj = 0.5 * (up.m[j] - up.m[j])\n",
        ["tests/test_gibbs.py::test_key_identity_two_site_closed_form"],
    ),
    (
        "flipped-key-identity-triple-term",
        "src/sktap/gibbs.py",
        "+ 2.0 * base.m[i] * base.pair[i, k] * delta_mj)",
        "- 2.0 * base.m[i] * base.pair[i, k] * delta_mj)",
        ["tests/test_cli.py::test_verify_identities_passes"],
    ),
    (
        "at-value-without-t",
        "src/sktap/tap.py",
        "    return t * _sech4_mean(",
        "    return _sech4_mean(",
        ["tests/test_acceptance.py::test_criterion_10_solver_suite"],
    ),
    (
        "predicted-mij-unsquared-sech4",
        "src/sktap/tap.py",
        "(t / n) * es4**2 / denom",
        "(t / n) * es4 / denom",
        ["tests/test_tap.py::test_predicted_mij_sq_values"],
    ),
    (
        "predicted-mij-without-node-doubling",
        "src/sktap/tap.py",
        "    v2 = value(2 * nodes)\n",
        "    v2 = value(nodes)\n",
        ["tests/test_tap.py::test_predicted_mij_sq_refuses_a_rule_that_node_doubling_moves"],
    ),
    (
        "negative-zero-t-kept",
        "src/sktap/model.py",
        "        self.t = self.t + 0.0",
        "        self.t = self.t",
        ["tests/test_model.py::test_params_store_negative_zero_t_as_zero",
         "tests/test_cli.py::test_negative_zero_t_runs_as_zero"],
    ),
    (
        "field-energy-bound-without-margin",
        "src/sktap/model.py",
        "_FIELD_ENERGY_MAX = float(np.finfo(np.float64).max) / 4\n",
        "_FIELD_ENERGY_MAX = float(np.finfo(np.float64).max) / 2\n",
        ["tests/test_model.py::test_params_bound_the_field_energy",
         "tests/test_cli.py::test_a_field_energy_past_the_float_range_is_a_usage_error"],
    ),
    (
        "pool-for-one-worker",
        "src/sktap/ensemble.py",
        "    if workers > 1:\n",
        "    if workers >= 1:\n",
        ["tests/test_ensemble.py::test_worker_count_does_not_change_results"],
    ),
    (
        "pool-as-large-as-asked",
        "src/sktap/ensemble.py",
        "max_workers=min(workers, len(tasks))",
        "max_workers=workers",
        ["tests/test_ensemble.py::test_the_pool_starts_no_more_workers_than_there_are_tasks"],
    ),
    (
        "eager-one-worker-map",
        "src/sktap/ensemble.py",
        "        results = map(run, tasks)",
        "        results = list(map(run, tasks))",
        ["tests/test_ensemble.py::test_failed_sample_reports_its_seed"],
    ),
    (
        "s-prime-off-sample-0",
        "src/sktap/cli.py",
        "s_prime_at_e0(cm, params, tables=tabs) if k == 0 else None",
        "s_prime_at_e0(cm, params, tables=tabs) if k == 1 else None",
        ["tests/test_cli.py::test_a_failed_s_prime_fails_sample_0_and_prints_its_replay"],
    ),
    (
        "draw-before-the-size-check",
        "src/sktap/cli.py",
        "    if args.n - removed > ENUM_CAP:\n",
        "    if False:\n",
        ["tests/test_cli.py::test_a_system_too_large_to_enumerate_is_refused_before_any_draw"],
    ),
    (
        "replay-one-sample-short",
        "src/sktap/cli.py",
        "samples=max(2, failed.index + 1)",
        "samples=max(2, failed.index)",
        ["tests/test_cli.py::test_a_failed_sample_prints_the_argv_that_replays_it"],
    ),
    (
        "path-accepts-non-finite-increments",
        "src/sktap/model.py",
        "        if not np.all(np.isfinite(inc)):\n",
        "        if False:\n",
        ["tests/test_model.py::test_path_rejects_malformed_grids_and_increments"],
    ),
    (
        "main-without-unfreeze",
        "src/sktap/cli.py",
        "        if thaw:\n            gc.unfreeze()\n",
        "        if thaw:\n            pass\n",
        ["tests/test_cli.py::test_main_leaves_the_collector_as_it_found_it"],
    ),
    (
        "chunk-plan-without-its-eighth",
        "src/sktap/gibbs.py",
        "    pieces = -(-count // (per + per // 8))\n",
        "    pieces = -(-count // per)\n",
        [WALSH_REMAINDER, CHUNK_PLAN],
    ),
    (
        "chunk-plan-drops-the-last-row",
        "src/sktap/gibbs.py",
        "slice(count * i // pieces, count * (i + 1) // pieces)",
        "slice(count * i // pieces, count * (i + 1) // pieces - (i == pieces - 1))",
        [WALSH_REMAINDER, CHUNK_PLAN],
    ),
    (
        "chunk-plan-repeats-the-last-row",
        "src/sktap/gibbs.py",
        " for i in range(pieces)]\n",
        " for i in range(pieces)] + [slice(count - 1, count)]\n",
        [CHUNK_PLAN],
    ),
    (
        "block-energies-without-the-cross-term",
        "src/sktap/gibbs.py",
        "    np.matmul(S1 @ G[:, :k1, k1:], S2.T, out=E)\n",
        "    E[...] = 0.0\n",
        [BLOCK_ENERGIES],
    ),
    (
        "block-energies-with-the-cross-term-transposed",
        "src/sktap/gibbs.py",
        "    np.matmul(S1 @ G[:, :k1, k1:], S2.T, out=E)\n",
        "    np.matmul(S1 @ G[:, :k1, k1:], S2.T, out=E.swapaxes(1, 2))\n",
        [BLOCK_ENERGIES],
    ),
    (
        "block-energies-with-the-halves-swapped",
        "src/sktap/gibbs.py",
        "    E += _dense_quadratic(S1, G[:, :k1, :k1])[:, :, None]\n"
        "    E += _dense_quadratic(S2, G[:, k1:, k1:])[:, None, :]\n",
        "    E += _dense_quadratic(S2, G[:, k1:, k1:])[:, :, None]\n"
        "    E += _dense_quadratic(S1, G[:, :k1, :k1])[:, None, :]\n",
        [BLOCK_ENERGIES],
    ),
    (
        "signed-sums-with-the-halves-swapped",
        "src/sktap/gibbs.py",
        "    top, bottom = W.sum(axis=2), W.sum(axis=1)\n",
        "    top, bottom = W.sum(axis=1), W.sum(axis=2)\n",
        [SIGNED_SUMS, NAIVE_TABLES, LARGEST_PASSES],
    ),
    (
        "signed-sums-without-the-block-between-the-halves",
        "src/sktap/gibbs.py",
        "    out[:, :k1, k1:] = (S1.T @ W) @ S2\n",
        "",
        [SIGNED_SUMS, NAIVE_TABLES, LARGEST_PASSES],
    ),
    (
        "pair-pass-off-by-1e-11",
        "src/sktap/gibbs.py",
        "            sec /= norm[:, :, None]\n",
        "            sec /= norm[:, :, None] * (1 + 1e-11)\n",
        [f"{ENGINES}::test_every_scalar_agrees_on_both_engines[spectral]",
         f"{ENGINES}::test_every_readme_payload_agrees_on_both_engines[spectral]"],
    ),
    (
        "negative-exponent-is-an-option",
        "src/sktap/cli.py",
        "        self._negative_number_matcher = _NEGATIVE_NUMBER\n",
        "",
        ["tests/test_cli.py::test_a_negative_float_in_exponent_form_runs_as_its_decimal_form",
         "tests/test_cli.py::test_at_line_rejects_a_non_finite_t_bound_by_name"],
    ),
)


def run_tests(copy: Path, tests: list[str]) -> int:
    """pytest's exit code for the tests in the copy: 0 passed, 1 failed."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, capture_output=True, text=True,
    )
    return proc.returncode


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="sktap-mutants-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests", "tools"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        # the README's command block is the list that tests/test_engines.py runs
        for name in ("pyproject.toml", "README.md"):
            shutil.copy2(ROOT / name, copy / name)

        baseline = sorted({test for m in MUTANTS for test in m[4]})
        if run_tests(copy, baseline) != 0:
            print("unmutated: targeted tests fail, so no mutant can be judged")
            return 1
        for name, rel, snippet, replacement, tests in MUTANTS:
            path = copy / rel
            original = path.read_text()
            found = original.count(snippet)
            if found != 1:
                print(f"{name}: STALE (snippet occurs {found} times in {rel})")
                failures += 1
                continue
            path.write_text(original.replace(snippet, replacement))
            try:
                code = run_tests(copy, tests)
            finally:
                path.write_text(original)
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
            print(f"{name}: {verdict}", flush=True)
            failures += code != 1
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
