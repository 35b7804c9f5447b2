import argparse
import contextlib
import gc
import io
import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import sktap
import sktap.ensemble
import sktap.gibbs
from sktap import EXPERIMENTS, NumericalError, sample_couplings, substream_seed
from sktap.cli import _parse_n_list, build_parser, main
from sktap.gibbs import BlockEnumerator
from test_pinned_payloads import ITO_CLAMPS, SMALL_SCALING, check_pins

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from golden_payloads import README, readme_commands, with_out  # noqa: E402


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fixed_point_prints_q(capsys):
    code, out, _ = run_cli(["fixed-point", "--t", "0", "--h", "0.3"], capsys)
    assert code == 0
    assert out.startswith("q = 0.084863038173370")


def test_fixed_point_payload(tmp_path, capsys):
    out_file = tmp_path / "fp.json"
    code, _, _ = run_cli(
        ["fixed-point", "--t", "0.5", "--h", "0.3", "--out", str(out_file)], capsys
    )
    assert code == 0
    obj = json.loads(out_file.read_text())
    assert obj["summary"]["fixed_point_residual"] <= 1e-12
    assert obj["config"]["t"] == 0.5 and obj["config"]["command"] == "fixed-point"


def test_at_line_crosses_one_at_unit_t(tmp_path, capsys):
    out_file = tmp_path / "at.json"
    code, _, _ = run_cli(
        [
            "at-line", "--h", "0", "--t-min", "0.5", "--t-max", "1.5",
            "--grid", "11", "--out", str(out_file),
        ],
        capsys,
    )
    assert code == 0
    rows = json.loads(out_file.read_text())["rows"]
    assert len(rows) == 11
    for t, q, at in rows:
        assert q == pytest.approx(0.0, abs=1e-12)
        assert at == pytest.approx(t, abs=1e-12)
    crossings = [
        (a, b) for (a, _, va), (b, _, vb) in zip(rows, rows[1:]) if (va - 1) * (vb - 1) <= 0
    ]
    assert crossings and crossings[0][0] <= 1.0 <= crossings[0][1]


def test_outputs_are_byte_identical(tmp_path, capsys):
    args = [
        "scaling", "--experiment", "tap1", "--n", "4,5,6", "--t", "0.5", "--h", "0.3",
        "--samples", "5", "--seed", "42",
    ]
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(args + ["--out", str(f1)], capsys)[0] == 0
    assert run_cli(args + ["--out", str(f2)], capsys)[0] == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_csv_and_json_carry_equal_numbers(tmp_path, capsys):
    args = [
        "scaling", "--experiment", "mij-sq", "--n", "4,5,6", "--t", "0.5", "--h", "0.3",
        "--samples", "5", "--seed", "7",
    ]
    fj, fc = tmp_path / "o.json", tmp_path / "o.csv"
    assert run_cli(args + ["--format", "json", "--out", str(fj)], capsys)[0] == 0
    assert run_cli(args + ["--format", "csv", "--out", str(fc)], capsys)[0] == 0
    rows_json = json.loads(fj.read_text())["rows"]
    lines = [l for l in fc.read_text().splitlines() if l and not l.startswith("#")]
    header, data = lines[0], lines[1:]
    assert header == "n,mean,variance,stderr"
    assert len(data) == len(rows_json)
    for line, row in zip(data, rows_json):
        for got, want in zip(line.split(","), row):
            assert float(got) == pytest.approx(float(want), abs=1e-12)


# --steps 8 for the one experiment that reads it; the others refuse it
ITO_STEPS = {name.replace("_", "-"): ["--steps", "8"] if name == "ito" else []
             for name in EXPERIMENTS}


@pytest.mark.parametrize("experiment", sorted(name.replace("_", "-") for name in EXPERIMENTS))
def test_every_experiment_runs_through_the_cli(experiment, tmp_path, capsys):
    out_file = tmp_path / "o.json"
    code, _, err = run_cli(
        ["scaling", "--experiment", experiment, "--n", "4,5,6", "--t", "0.5", "--h", "0.3",
         "--samples", "2", *ITO_STEPS[experiment], "--out", str(out_file)],
        capsys,
    )
    assert code == 0, err
    payload = json.loads(out_file.read_text())
    assert payload["config"]["experiment"] == experiment
    assert [row[0] for row in payload["rows"]] == [4, 5, 6]


@pytest.mark.parametrize("experiment", sorted(SMALL_SCALING))
def test_small_scaling_payload_matches_its_pinned_means(experiment, tmp_path, capsys):
    # means, variances and fits of ``scaling --n 4,5,6 --samples 3 --seed 1``:
    # a changed formula moves them far more than float noise does
    check_pins(SMALL_SCALING[experiment], tmp_path, capsys)


def test_ito_scaling_runs_where_the_clamps_leave_one_site_or_none(tmp_path, capsys):
    check_pins(ITO_CLAMPS, tmp_path, capsys)


@pytest.mark.parametrize(
    "sizes, t", [("4,5", "0.5"), ("4,5,6", "0")], ids=["two-sizes", "zero-coupling"]
)
def test_scaling_reports_a_degenerate_fit(sizes, t, tmp_path, capsys):
    # two sizes cannot carry a slope with an error; at t = 0 the tap1
    # residuals are rounding noise, below the floor a fit needs
    out_file = tmp_path / "o.json"
    code, out, _ = run_cli(
        ["scaling", "--experiment", "tap1", "--n", sizes, "--t", t, "--h", "0.3",
         "--samples", "3", "--seed", "1", "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    assert out.startswith("fit degenerate")
    assert json.loads(out_file.read_text())["summary"] == {"degenerate": True}


def test_verify_identities_passes(capsys):
    code, out, _ = run_cli(
        ["verify-identities", "--n", "6", "--t", "0.5", "--h", "0.3", "--seed", "3",
         "--trials", "4"],
        capsys,
    )
    assert code == 0
    assert "max |pair_identity|" in out


def test_tap_residuals_summary(capsys):
    code, out, _ = run_cli(
        ["tap-residuals", "--n", "6", "--t", "0.5", "--h", "0.3", "--seed", "2"], capsys
    )
    assert code == 0
    assert "htap1_mean_square" in out and "tap2_residual" in out


def test_overlap_direction(capsys):
    code, out, _ = run_cli(
        ["overlap", "--n", "4,8", "--t", "0.5", "--h", "0.3", "--samples", "40",
         "--seed", "11"],
        capsys,
    )
    assert code == 0
    assert "q = " in out


def test_dynamics_trace_csv(tmp_path, capsys):
    out_file = tmp_path / "dyn.csv"
    code, out, _ = run_cli(
        ["dynamics", "--n", "5", "--t", "0.5", "--h", "0.3", "--steps", "8",
         "--seed", "2", "--format", "csv", "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    lines = [l for l in out_file.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "s,lhs,martingale_partial,drift_partial"
    assert len(lines) == 1 + 9
    assert "residual = " in out


def test_spectral_summary(capsys):
    code, out, _ = run_cli(
        ["spectral", "--n", "8", "--t", "0.4", "--h", "0.3", "--samples", "10"], capsys
    )
    assert code == 0
    assert "median_resolvent_error" in out
    assert "margin_fraction" in out


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_spectral_rejects_sample_counts_below_one(samples, capsys):
    code, out, err = run_cli(
        ["spectral", "--n", "6", "--t", "0.4", "--h", "0.3", "--samples", samples], capsys
    )
    assert code == 1
    assert "invalid configuration" in err and "samples" in err
    assert out == ""


@pytest.mark.parametrize(
    "argv", [["--n", "4", "--pair", "0,9"], ["--n", "4", "--pair", "0,-1"], ["--n", "1"]],
    ids=["j-too-large", "j-negative", "n-1"],
)
def test_tap_residuals_rejects_pair_out_of_range(argv, capsys):
    code, out, err = run_cli(["tap-residuals", *argv], capsys)
    assert code == 1
    assert "invalid configuration" in err and "out of range" in err
    assert out == ""


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--n", "4", "--site-j", "9"], "site 9 out of range for n=4"),
        (["--n", "4", "--site-j", "-1"], "site -1 out of range for n=4"),
        (["--n", "1"], "site 1 out of range for n=1"),
    ],
    ids=["j-too-large", "j-negative", "n-1"],
)
def test_dynamics_rejects_sites_out_of_range(argv, message, capsys):
    # a usage error naming n, not a site missing from the reduced measure
    code, out, err = run_cli(["dynamics", "--steps", "4", *argv], capsys)
    assert code == 1
    assert f"invalid configuration: {message}" in err
    assert out == ""


@pytest.mark.parametrize("pair", ["0", "0,1,2", "a,b", "0;1", ""])
def test_tap_residuals_rejects_a_malformed_pair(pair, capsys):
    code, out, err = run_cli(["tap-residuals", "--n", "4", "--pair", pair], capsys)
    assert code == 1
    assert "invalid configuration: --pair must be two site indices i,j" in err
    assert "unpack" not in err and "literal" not in err
    assert out == ""


@pytest.mark.parametrize(
    "argv,message",
    [
        *((["--n", n, "--trials", "2"], "--n must be >= 3") for n in ("2", "1", "0")),
        # zero trials would report a maximum residual of 0.0 from no check
        (["--n", "5", "--trials", "0"], "--trials must be >= 1"),
    ],
    ids=["2", "1", "0", "trials-0"],
)
def test_verify_identities_rejects_fewer_than_three_sites(argv, message, capsys):
    code, out, err = run_cli(["verify-identities", *argv], capsys)
    assert code == 1
    assert f"invalid configuration: {message}" in err
    assert "unpack" not in err
    assert out == ""


SCALING = ["scaling", "--t", "0.5", "--h", "0.3", "--samples", "2", "--seed", "1"]


@pytest.mark.parametrize(
    "argv,message",
    [
        ([*SCALING, "--experiment", "ito", "--steps", "1", "--n", "4,5,6"], "needs steps >= 2"),
        *(([*SCALING, "--experiment", name, "--n", "1,2,3"], "needs every n >= 2")
          for name in ("htap2", "tap2", "mij-sq", "mij-moment", "ito")),
        ([*SCALING, "--experiment", "htap1", "--n", "0,1,2"], "needs every n >= 1"),
        ([*SCALING, "--experiment", "qn-conc", "--n", "4,5,6", "--quad-nodes", "0"],
         "must be >= 1"),
        # numpy's Gauss-Hermite weights are 0 at 371 nodes and NaN at 400, so
        # these must fail before any sample, naming the count
        ([*SCALING, "--experiment", "qn-conc", "--n", "4,5,6", "--quad-nodes", "371"],
         "numpy cannot build a 371-node Gauss-Hermite rule"),
        (["overlap", "--n", "4", "--t", "0.5", "--h", "0.3", "--samples", "2",
          "--quad-nodes", "400"], "numpy cannot build a 400-node Gauss-Hermite rule"),
        # both certify their result against twice the nodes: 200 builds, 400 does not
        (["fixed-point", "--t", "0.5", "--h", "0.3", "--quad-nodes", "200"],
         "numpy cannot build a 400-node Gauss-Hermite rule"),
        (["mij-variance", "--n", "4", "--t", "0.5", "--h", "0.3", "--samples", "2",
          "--quad-nodes", "200"], "numpy cannot build a 400-node Gauss-Hermite rule"),
        # a path on [0, t] needs t > 0; before, every sample raised inside
        ([*SCALING, "--experiment", "ito", "--n", "4,5,6", "--t", "0"], "needs t > 0"),
        # the Ito check of the dynamics command needs a path of two segments
        (["dynamics", "--n", "4", "--steps", "1"], "at least 2 steps"),
    ],
    ids=["ito-steps-1", "htap2-n1", "tap2-n1", "mij-sq-n1", "mij-moment-n1", "ito-n1", "htap1-n0",
         "qn-conc-quad-nodes-0", "qn-conc-quad-nodes-371", "overlap-quad-nodes-400",
         "fixed-point-quad-nodes-200", "mij-variance-quad-nodes-200", "ito-t-0",
         "dynamics-steps-1"],
)
def test_scaling_rejects_sizes_and_steps_the_experiment_cannot_run(argv, message, capsys):
    # as errors, so that a warning numpy prints about a node count fails too
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert "invalid configuration" in err and message in err
    assert out == ""



@pytest.mark.parametrize(
    "argv",
    [
        ["fixed-point", "--t", "nan", "--h", "0.3"],
        # usage errors, not an unconverged q (inf) or a numerical failure (nan)
        ["fixed-point", "--t", "0.5", "--h", "0.3", "--tol", "inf"],
        ["fixed-point", "--t", "0.5", "--h", "0.3", "--tol", "nan"],
        ["at-line", "--h", "nan", "--t-min", "0.5", "--t-max", "1.5", "--grid", "3"],
        ["dynamics", "--n", "4", "--steps", "4", "--h", "nan"],
        ["tap-residuals", "--n", "4", "--t", "nan"],
        ["spectral", "--n", "4", "--h", "inf", "--samples", "2"],
        ["scaling", "--experiment", "htap1", "--n", "4,5,6", "--t", "0.5", "--h", "nan",
         "--samples", "2"],
        ["overlap", "--n", "4,5", "--t", "inf", "--h", "0.3", "--samples", "2"],
        ["mij-variance", "--n", "4", "--t", "0.5", "--h", "nan", "--samples", "2"],
        ["scaling", "--experiment", "mij-moment", "--n", "4,5,6", "--t", "0", "--h", "0.3",
         "--samples", "2", "--moment-p", "-1"],
        ["scaling", "--experiment", "mij-moment", "--n", "4,5,6", "--t", "0.5", "--h", "0.3",
         "--samples", "2", "--moment-p", "nan"],
    ],
    ids=["fixed-point-t-nan", "fixed-point-tol-inf", "fixed-point-tol-nan", "at-line-h-nan",
         "dynamics-h-nan", "tap-residuals-t-nan", "spectral-h-inf", "htap1-h-nan", "overlap-t-inf",
         "mij-variance-h-nan", "mij-moment-p-negative", "mij-moment-p-nan"],
)
def test_non_finite_parameters_are_usage_errors(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert "invalid configuration" in err and "finite" in err
    assert out == ""

def test_mij_variance_reports_ratio(capsys):
    code, out, _ = run_cli(
        ["mij-variance", "--n", "8", "--t", "0.5", "--h", "0.3", "--samples", "50",
         "--seed", "5"],
        capsys,
    )
    assert code == 0
    assert "ratio = " in out


def test_mij_variance_rows_follow_the_order_of_n(tmp_path, capsys):
    # one ensemble serves the sorted distinct sizes; the rows keep --n's order
    def rows(sizes):
        out_file = tmp_path / f"{sizes}.json"
        code, _, err = run_cli(
            ["mij-variance", "--n", sizes, "--t", "0.5", "--h", "0.3", "--samples", "6",
             "--seed", "5", "--out", str(out_file)],
            capsys,
        )
        assert code == 0, err
        return json.loads(out_file.read_text())["rows"]

    single = {n: rows(str(n))[0] for n in (4, 6)}
    assert rows("6,4,6") == [single[6], single[4], single[6]]


@pytest.mark.parametrize(
    "route", [["scaling", "--experiment", "htap1"], ["overlap"]], ids=["scaling", "overlap"]
)
def test_ensemble_commands_read_the_sizes_sorted(route, tmp_path, capsys):
    def payload(sizes):
        out_file = tmp_path / f"{sizes}.json"
        code, _, err = run_cli(
            [*route, "--n", sizes, "--t", "0.5", "--h", "0.3", "--samples", "4",
             "--out", str(out_file)],
            capsys,
        )
        assert code == 0, err
        return json.loads(out_file.read_text())

    given, ordered = payload("8,4,6"), payload("4,6,8")
    assert [row[0] for row in given["rows"]] == [4, 6, 8]
    assert given["rows"] == ordered["rows"]
    assert given["summary"] == ordered["summary"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-identities", "--n", "4", "--trials", "1"],
        ["tap-residuals", "--n", "4"],
        ["dynamics", "--n", "4", "--steps", "4"],
        ["spectral", "--n", "4", "--samples", "2"],
    ],
    ids=["verify-identities", "tap-residuals", "dynamics", "spectral"],
)
def test_quad_nodes_belongs_only_to_the_commands_that_read_it(argv, tmp_path, capsys):
    code, out, err = run_cli([*argv, "--quad-nodes", "3"], capsys)
    assert code == 1
    assert "unrecognized arguments: --quad-nodes 3" in err and out == ""
    out_file = tmp_path / "o.json"
    assert run_cli([*argv, "--out", str(out_file)], capsys)[0] == 0
    assert "quad_nodes" not in json.loads(out_file.read_text())["config"]


def test_scaling_loglog_output(tmp_path, capsys):
    out_file = tmp_path / "loglog.csv"
    code, _, _ = run_cli(
        ["scaling", "--experiment", "mij-sq", "--n", "4,5,6", "--t", "0.5", "--h", "0.3",
         "--samples", "5", "--seed", "7", "--loglog-out", str(out_file),
         "--out", str(tmp_path / "o.json")],
        capsys,
    )
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "log_n,log_mean"
    assert len(lines) == 4


def test_unknown_flag_exits_one(capsys):
    code, _, err = run_cli(["fixed-point", "--t", "0.5", "--h", "0.3", "--bogus"], capsys)
    assert code == 1
    assert "usage" in err


def test_missing_required_argument_exits_one(capsys):
    code, _, _ = run_cli(["fixed-point", "--t", "0.5"], capsys)
    assert code == 1


@pytest.mark.parametrize("sizes", ["4,x", "", "4,,5"], ids=["4-x", "empty", "4--5"])
def test_size_list_that_is_not_all_integers_exits_one(sizes, capsys):
    code, out, err = run_cli([*SCALING, "--experiment", "htap1", "--n", sizes], capsys)
    assert code == 1
    assert f"not a comma list of integers: {sizes!r}" in err
    assert out == ""


@pytest.mark.parametrize("value", [1e-9, math.nan], ids=["1e-9", "nan"])
def test_verify_identities_exits_two_naming_the_seed_when_a_residual_fails(
    value, monkeypatch, capsys
):
    # a NaN residual must fail its tolerance too, not vanish from the maximum
    monkeypatch.setattr(sktap.cli, "key_identity_residual", lambda *args: (value, value))
    code, _, err = run_cli(
        ["verify-identities", "--n", "5", "--seed", "3", "--trials", "2"], capsys
    )
    assert code == 2
    assert "numerical failure: pair_identity residual" in err
    assert "(seed=3)" in err


def test_numerical_failure_exits_two(monkeypatch, capsys):
    # the prediction fails past the AT line, and it is computed before any sample runs
    ensembles = []
    monkeypatch.setattr(sktap.cli, "run_ensemble", ensembles.append)
    code, _, err = run_cli(
        ["mij-variance", "--n", "8", "--t", "1.2", "--h", "0", "--samples", "5"], capsys
    )
    assert code == 2
    assert "numerical failure: prediction undefined at/below the AT line" in err
    assert ensembles == []


@pytest.mark.parametrize("flag", ["--out", "--loglog-out"])
def test_missing_output_directory_exits_one_before_any_sample(flag, tmp_path, monkeypatch, capsys):
    ensembles = []
    monkeypatch.setattr(sktap.cli, "run_ensemble", ensembles.append)
    target = tmp_path / "absent" / "x.json"
    code, out, err = run_cli(
        ["scaling", "--experiment", "htap1", "--n", "8,12,16", "--t", "0.5", "--h", "0.3",
         "--samples", "200", flag, str(target)],
        capsys,
    )
    assert code == 1
    assert f"invalid configuration: cannot write {target}" in err
    assert ensembles == [] and out == ""


def test_failed_payload_write_exits_one_naming_the_path(tmp_path, capsys):
    # the parent directory exists, but the path is itself a directory
    code, out, err = run_cli(["fixed-point", "--t", "0.5", "--h", "0.3", "--out", str(tmp_path)],
                             capsys)
    assert code == 1
    assert "invalid configuration" in err and str(tmp_path) in err
    assert out.startswith("q = ")


@pytest.mark.parametrize(
    "route", [["spectral"], ["scaling", "--experiment", "spectral"]], ids=["spectral", "scaling"]
)
def test_saturated_magnetization_exits_two_with_seed(route, capsys):
    # h = 40 drives tanh to exactly 1 in float64, so Lambda = 1/(1 - m^2) is undefined
    code, _, err = run_cli(
        route + ["--n", "6", "--t", "0.4", "--h", "40", "--samples", "2"], capsys
    )
    assert code == 2
    assert "numerical failure" in err
    assert f"seed={substream_seed(42, 6, 0)}" in err


@pytest.mark.parametrize(
    "argv, module, n, index",
    [
        (["scaling", "--experiment", "htap1", "--n", "4,5,6", "--samples", "4"], sktap.ensemble,
         5, 2),
        (["overlap", "--n", "4,6", "--samples", "3"], sktap.ensemble, 6, 0),
        (["mij-variance", "--n", "6,4", "--samples", "3"], sktap.ensemble, 4, 1),
        (["spectral", "--n", "6", "--samples", "5"], sktap.cli, 6, 3),
    ],
    ids=["scaling", "overlap", "mij-variance", "spectral"],
)
def test_a_failed_sample_prints_the_argv_that_replays_it(
    argv, module, n, index, tmp_path, monkeypatch, capsys
):
    failing = substream_seed(42, n, index)

    def draw(params, seed):
        if seed == failing:
            raise NumericalError("this draw fails")
        return sample_couplings(params, seed)

    monkeypatch.setattr(module, "sample_couplings", draw)
    extra = ["--loglog-out", str(tmp_path / "l.csv")] if argv[0] == "scaling" else []
    code, _, err = run_cli([*argv, "--t", "0.4", "--h", "-0.3", *extra], capsys)
    assert code == 2
    failure, replay = err.splitlines()
    assert f"sample {index} at n={n} failed (seed={failing})" in failure
    assert replay.startswith("replay: sktap ")
    replay_argv = shlex.split(replay.removeprefix("replay: sktap "))
    assert replay_argv[0] == argv[0] and "--loglog-out" not in replay_argv
    flags = dict(zip(replay_argv[1::2], replay_argv[2::2]))
    assert flags["--n"] == str(n) and flags["--samples"] == str(max(2, index + 1))
    code, _, again = run_cli(replay_argv, capsys)
    assert code == 2
    assert again.splitlines() == [failure, replay]


@pytest.mark.parametrize("t, h", [("1", "0"), ("8", "1")], ids=["off-the-branch", "in-the-spectrum"])
def test_a_failed_s_prime_fails_sample_0_and_prints_its_replay(t, h, capsys):
    # S'(E0) reads sample 0: without a real self-consistent S near E0 the
    # run fails there, with the seed and the argv that replays it
    code, _, err = run_cli(["spectral", "--n", "6", "--t", t, "--h", h, "--samples", "3"], capsys)
    assert code == 2
    failure, replay = err.splitlines()
    assert f"sample 0 at n=6 failed (seed={substream_seed(42, 6, 0)})" in failure
    assert replay.startswith("replay: sktap ")
    code, _, again = run_cli(shlex.split(replay.removeprefix("replay: sktap ")), capsys)
    assert code == 2
    assert again.splitlines() == [failure, replay]


@pytest.mark.parametrize(
    "argv, module, n, index",
    [(["scaling", "--experiment", "htap1", "--n", "4,5,6", "--samples", "4"], sktap.ensemble,
      5, 2),
     (["spectral", "--n", "6", "--samples", "5"], sktap.cli, 6, 3)],
    ids=["scaling", "spectral"],
)
def test_a_bug_in_a_sample_is_a_traceback_naming_the_sample(argv, module, n, index, monkeypatch):
    # a programming error is no numerical failure, so no exit 2: it
    # propagates, chained to an error that names the sample to replay
    failing = substream_seed(42, n, index)

    def draw(params, seed):
        if seed == failing:
            raise TypeError("this draw has a bug")
        return sample_couplings(params, seed)

    monkeypatch.setattr(module, "sample_couplings", draw)
    with pytest.raises(RuntimeError) as err:
        main([*argv, "--t", "0.4", "--h", "-0.3"])
    assert not isinstance(err.value, NumericalError)
    assert isinstance(err.value.__cause__, TypeError)
    assert f"sample {index} at n={n} (seed={failing})" in str(err.value)


def test_payload_bytes_do_not_depend_on_blas_threads(tmp_path):
    src = str(Path(sktap.__file__).resolve().parents[1])
    commands = {
        "ito": ["scaling", "--experiment", "ito", "--n", "6", "--steps", "256",
                "--t", "0.5", "--h", "0.3", "--samples", "4"],
        "dynamics": ["dynamics", "--n", "8", "--steps", "256"],
        # the pair pass at n = 18 has products large enough to thread
        "spectral": ["scaling", "--experiment", "spectral", "--n", "16,17,18",
                     "--t", "0.4", "--h", "0.3", "--samples", "2"],
    }
    for name, argv in commands.items():
        payloads = []
        for threads in ("1", "2"):
            out = tmp_path / f"{name}-{threads}.json"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-m", "sktap.cli", *argv, "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1], name


def test_one_worker_run_never_imports_the_process_pool(tmp_path):
    # a fresh interpreter, since this one may have imported the pool already
    src = str(Path(sktap.__file__).resolve().parents[1])
    script = (
        "import json, sys\n"
        "from sktap.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(json.dumps([code, [m for m in ('concurrent.futures', 'multiprocessing')"
        " if m in sys.modules]]))\n"
    )
    texts = {}
    for threads in ("1", "2"):
        out = tmp_path / f"{threads}.json"
        argv = ["scaling", "--experiment", "htap1", "--n", "4,5,6", "--t", "0.5", "--h", "0.3",
                "--samples", "2", "--threads", threads, "--out", str(out)]
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        code, pool_modules = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0
        assert pool_modules == ([] if threads == "1" else ["concurrent.futures", "multiprocessing"])
        texts[threads] = out.read_text()
    assert '"threads": 1' in texts["1"]
    assert texts["1"].replace('"threads": 1', '"threads": 2') == texts["2"]


def test_validation_failure_exits_one(capsys):
    code, _, err = run_cli(
        ["at-line", "--h", "0", "--t-min", "1.0", "--t-max", "0.5"], capsys
    )
    assert code == 1
    assert "invalid configuration" in err


def test_fixed_point_t0_value_matches_closed_form(capsys):
    code, out, _ = run_cli(["fixed-point", "--t", "0", "--h", "0.3"], capsys)
    q_line = out.splitlines()[0]
    q = float(q_line.split("=")[1])
    assert q == pytest.approx(math.tanh(0.3) ** 2, abs=1e-13)


# One small run of each command; the sweep sets one flag at a time to an edge value.
SWEEP_BASES = {
    "fixed-point": ["--t", "0.5", "--h", "0.3"],
    "at-line": ["--h", "0", "--t-min", "0.5", "--t-max", "1.5", "--grid", "3"],
    "verify-identities": ["--n", "4", "--trials", "1"],
    "tap-residuals": ["--n", "4"],
    "overlap": ["--n", "4,5", "--t", "0.5", "--h", "0.3", "--samples", "2"],
    "mij-variance": ["--n", "4,5", "--t", "0.5", "--h", "0.3", "--samples", "2"],
    "dynamics": ["--n", "4", "--steps", "4"],
    "spectral": ["--n", "4", "--samples", "2"],
    **{f"scaling {name}": ["--experiment", name, "--n", "4,5,6", "--t", "0.5", "--h", "0.3",
                           "--samples", "2"]
       for name in sorted(name.replace("_", "-") for name in EXPERIMENTS)},
}
SWEEP_VALUES = {
    float: ["0", "-0.0", "-1", "-1e-3", "inf", "-inf", "nan", "1e308", "1e-300", "40"],
    int: ["0", "-1", "1", "2", "30"],
    # lists of sizes and pairs: unsorted, repeated, out of range, malformed
    _parse_n_list: ["8,4,6", "4,4", "1,2,3", "0,4", "-1,4", "25", "4,x", "", "4,,5"],
    str: ["0", "0,1,2", "a,b", "0;1", "", "0,0", "-1,1", "0,30", "1,0"],
}


def _subcommand_parsers():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _sweep_cases(base_name):
    command = base_name.split()[0]
    base = SWEEP_BASES[base_name]
    for action in _subcommand_parsers()[command]._actions:
        if action.type not in SWEEP_VALUES or not action.option_strings:
            continue  # help, the output paths and the choices
        flag = action.option_strings[0]
        for value in SWEEP_VALUES[action.type]:
            if flag == "--threads" and int(value) > 2:
                continue  # one process per worker
            argv = list(base)
            if flag in argv:
                argv[argv.index(flag) + 1] = value
            else:
                argv += [flag, value]
            yield [command, *argv]


def _finite_numbers(node) -> bool:
    if isinstance(node, dict):
        return all(_finite_numbers(v) for v in node.values())
    if isinstance(node, list):
        return all(_finite_numbers(v) for v in node)
    return not isinstance(node, float) or math.isfinite(node)


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not strict JSON")

    return json.loads(text, parse_constant=refuse)


def test_every_command_has_a_sweep_base():
    commands = {name.split()[0] for name in SWEEP_BASES}
    assert commands == set(_subcommand_parsers())
    experiments = {name.split()[1] for name in SWEEP_BASES if name.startswith("scaling ")}
    assert experiments == {name.replace("_", "-") for name in EXPERIMENTS}


@pytest.mark.parametrize("base_name", sorted(SWEEP_BASES))
def test_edge_values_of_every_flag_keep_the_exit_contract(base_name, tmp_path, capsys):
    # exit 0, 1 or 2 and never a raise or a warning; an exit-0 payload is
    # strict JSON with every number finite
    out_file = tmp_path / "o.json"
    faults = []
    for argv in _sweep_cases(base_name):
        out_file.unlink(missing_ok=True)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main([*argv, "--out", str(out_file)])
        except BaseException as exc:
            faults.append((argv, f"raised {type(exc).__name__}: {exc}"))
            continue
        finally:
            capsys.readouterr()
        if code not in (0, 1, 2):
            faults.append((argv, f"exit {code}"))
        elif code == 0:
            try:
                payload = _strict_json(out_file.read_text())
            except ValueError as exc:
                faults.append((argv, f"payload: {exc}"))
                continue
            if not _finite_numbers(payload):
                faults.append((argv, "payload has a non-finite number"))
    assert not faults, "\n".join(f"{' '.join(argv)}: {fault}" for argv, fault in faults)


@pytest.mark.parametrize(
    "argv",
    [["tap-residuals", "--n", "4"],
     ["scaling", "--experiment", "htap1", "--n", "4,5", "--h", "0.3", "--samples", "2"],
     ["overlap", "--n", "4,5", "--h", "0.3", "--samples", "2"]],
    ids=["tap-residuals", "scaling", "overlap"],
)
def test_negative_zero_t_runs_as_zero(argv, tmp_path, capsys):
    # numpy's normal refuses the coupling scale sqrt(-0.0) = -0.0
    payloads = {}
    for t in ("0", "-0.0"):
        out_file = tmp_path / f"{t}.json"
        code, _, err = run_cli([*argv, "--t", t, "--out", str(out_file)], capsys)
        assert code == 0, err
        payloads[t] = json.loads(out_file.read_text())
    assert payloads["-0.0"]["rows"] == payloads["0"]["rows"]
    assert payloads["-0.0"]["summary"] == payloads["0"]["summary"]


@pytest.mark.parametrize(
    "bounds, flag",
    [(["--t-min", "0.5", "--t-max", "inf"], "--t-max"),
     (["--t-min", "nan", "--t-max", "1.5"], "--t-min"),
     (["--t-min=-inf", "--t-max", "1.5"], "--t-min"),
     # a negative value in its own word, which argparse took for a flag
     (["--t-min", "-inf", "--t-max", "1.5"], "--t-min")],
    ids=["t-max-inf", "t-min-nan", "t-min-minus-inf",
         "t-min-minus-inf-spaced"],
)
def test_at_line_rejects_a_non_finite_t_bound_by_name(bounds, flag, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["at-line", "--h", "0", *bounds], capsys)
    assert code == 1
    assert f"invalid configuration: {flag} must be finite" in err
    assert "t=nan" not in err and out == ""


@pytest.mark.parametrize(
    "t, h", [("0", "0.3"), ("-0.0", "0.3"), ("0.5", "200")], ids=["t-0", "t-minus-0", "h-200"]
)
def test_mij_variance_refuses_a_prediction_that_is_not_positive(t, h, monkeypatch, capsys):
    # the ratio divides by the prediction, which is 0 at t = 0 and underflows at h = 200
    ensembles = []
    monkeypatch.setattr(sktap.cli, "run_ensemble", ensembles.append)
    code, out, err = run_cli(
        ["mij-variance", "--n", "4", "--t", t, "--h", h, "--samples", "2"], capsys
    )
    assert code == 1
    assert "invalid configuration: the predicted n E m01^2 is not > 0" in err
    assert f"t={float(t)}, h={float(h)}" in err
    assert ensembles == [] and out == ""


@pytest.mark.parametrize(
    "argv",
    [["tap-residuals", "--n", "12", "--h", "1e308"],
     ["tap-residuals", "--n", "12", "--h", "3.8e306"],
     ["dynamics", "--n", "4", "--steps", "4", "--h", "1e308"],
     ["overlap", "--n", "4,5", "--t", "0.5", "--h", "1e308", "--samples", "2"],
     ["spectral", "--n", "4", "--h", "1e308", "--samples", "2"],
     [*SCALING, "--experiment", "spectral", "--n", "4,5", "--h", "1e308"],
     # the largest size carries the largest field energy: 4e307 passes, 1.2e308 does not
     [*SCALING, "--experiment", "htap1", "--n", "4,12", "--h", "1e307"]],
    ids=["tap-residuals-1e308", "tap-residuals-3.8e306", "dynamics", "overlap", "spectral",
         "scaling-spectral", "scaling-largest-n"],
)
def test_a_field_energy_past_the_float_range_is_a_usage_error(argv, monkeypatch, capsys):
    ensembles = []
    monkeypatch.setattr(sktap.cli, "run_ensemble", ensembles.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert "invalid configuration: field energy sum |h_i| = " in err
    assert "exceeds 4.494e+307, past which the log-weights overflow" in err
    assert ensembles == [] and out == ""


class _Drawn(Exception):
    """What a spy raises in place of a disorder draw."""


def _spy_on_draws(monkeypatch) -> list:
    """The sizes of the draws of ``sktap.cli``, each stopped by ``_Drawn``."""
    draws = []

    def spy(params, *args):
        draws.append(params.n)
        raise _Drawn

    monkeypatch.setattr(sktap.cli, "sample_couplings", spy)
    monkeypatch.setattr(sktap.cli, "sample_path", spy)
    return draws


@pytest.mark.parametrize(
    "argv, active",
    [(["verify-identities", "--n", "25"], 25),
     (["tap-residuals", "--n", "1500"], 1500),
     (["spectral", "--n", "1500", "--samples", "2"], 1500),
     (["dynamics", "--n", "26", "--steps", "256"], 25),
     (["dynamics", "--n", "300", "--steps", "256"], 299)],
    ids=["verify-identities", "tap-residuals", "spectral", "dynamics-26", "dynamics-300"],
)
def test_a_system_too_large_to_enumerate_is_refused_before_any_draw(
    argv, active, monkeypatch, capsys
):
    draws = _spy_on_draws(monkeypatch)
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert f"invalid configuration: {active} active sites exceed enum_cap=24" in err
    assert draws == []


def test_dynamics_draws_a_path_whose_cavity_fits_the_cap(monkeypatch, capsys):
    # the Ito check enumerates n - 1 sites, so n = 25 is still in range
    draws = _spy_on_draws(monkeypatch)
    with pytest.raises(_Drawn):
        main(["dynamics", "--n", "25", "--steps", "4"])
    assert draws == [25]


def test_spectral_draws_each_sample_once(monkeypatch, capsys):
    seeds = []

    def counted(params, seed):
        seeds.append(seed)
        return sample_couplings(params, seed)

    monkeypatch.setattr(sktap.cli, "sample_couplings", counted)
    code, _, _ = run_cli(["spectral", "--n", "4", "--samples", "3"], capsys)
    assert code == 0
    assert seeds == [substream_seed(42, 4, k) for k in range(3)]


def test_spectral_enumerates_each_sample_once(monkeypatch, capsys):
    # S'(E0) reads sample 0's m from the tables its pair pass already made
    passes = []
    real = sktap.gibbs.BlockEnumerator.moments

    def counted(self, h, want_pair=True):
        passes.append(want_pair)
        return real(self, h, want_pair)

    monkeypatch.setattr(sktap.gibbs.BlockEnumerator, "moments", counted)
    code, _, _ = run_cli(["spectral", "--n", "10", "--samples", "3"], capsys)
    assert code == 0
    assert passes == [True, True, True]  # want_pair of each pass


@pytest.mark.parametrize(
    "command, calls, pair_passes",
    [("verify-identities", 181, 61), ("tap-residuals", 6, 0)],
)
def test_readme_commands_enumerate_each_measure_once(
    command, calls, pair_passes, monkeypatch, capsys, tmp_path
):
    # verify-identities: the full tables, then per trial 9 passes: the pair
    # passes of the clamped measure and of its two clampings of i, which both
    # conditional identities read, the clamped triple, two field and two
    # coupling bumps, and the clamped right-hand side of the coupling
    # derivative.  tap-residuals: the full magnetizations of htap1 and of
    # tap1, the cavity stack, the clamped column j of htap2 and of tap2, and
    # htap2's clamped cavity: two of these six repeat a pass.
    passes = []
    real = sktap.gibbs.BlockEnumerator.moments

    def counted(self, h, want_pair=True, out=None):
        passes.append(want_pair)
        return real(self, h, want_pair, out)

    monkeypatch.setattr(sktap.gibbs.BlockEnumerator, "moments", counted)
    (argv,) = [c.split()[1:] for c in readme_commands(README.read_text())
               if c.split()[1] == command]
    code, _, _ = run_cli([*argv, "--out", str(tmp_path / "out.json")], capsys)
    assert code == 0
    assert (len(passes), passes.count(True)) == (calls, pair_passes)


def test_only_the_cavity_stacks_ask_which_systems_share_a_grid(monkeypatch, capsys, tmp_path):
    # Runs form only between coupling blocks, so of every README command (at
    # the sizes of tests/test_engines.py) and every experiment at n = 8, 11
    # and 14, only the stacks of cavity systems look for them; no one-block
    # stack, such as the clamped systems of a pair column or an Ito check,
    # ever does.  The cavities of a group share a grid at n >= 8, where they
    # have 7 sites or more and take the block pass.
    from test_engines import COMMANDS, smaller

    calls, stacks = [], []
    real_joins, real_cavities = BlockEnumerator._joins, sktap.gibbs.cavity_magnetizations

    def joins(self, H, b, at):
        found = real_joins(self, H, b, at)
        calls.append((len(self.G), found))
        return found

    def cavities(cm, params):
        start = len(calls)
        cav = real_cavities(cm, params)
        stacks.append((params.n, calls[start:]))
        return cav

    monkeypatch.setattr(BlockEnumerator, "_joins", joins)
    monkeypatch.setattr(sktap.gibbs, "cavity_magnetizations", cavities)
    argvs = [smaller(command) for command in COMMANDS] + [
        ["scaling", "--experiment", name.replace("_", "-"), "--n", "8,11,14", "--t", "0.5",
         "--h", "0.3", "--samples", "2", *ITO_STEPS[name.replace("_", "-")]]
        for name in sorted(EXPERIMENTS)
    ]
    for argv in argvs:
        assert main(with_out(argv, tmp_path / "out")) == 0, argv
    capsys.readouterr()
    assert calls and all(blocks > 1 for blocks, _ in calls)
    assert sum(len(inside) for _, inside in stacks) == len(calls)
    assert {n for n, _ in stacks} >= {8, 10, 11, 14}
    for n, inside in stacks:
        if n >= 8:
            assert any(True in found for _, found in inside), n


def test_a_field_energy_inside_the_bound_runs_clean(tmp_path, capsys):
    # n |h| = 4.44e307, below the bound 4.49e307 that 3.8e306 passes
    out_file = tmp_path / "o.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(
            ["tap-residuals", "--n", "12", "--h", "3.7e306", "--out", str(out_file)], capsys
        )
    assert code == 0, err
    assert _finite_numbers(_strict_json(out_file.read_text()))


@pytest.mark.parametrize(
    "experiment, flag, value, reader",
    [("htap1", "--moment-p", "nan", "mij-moment"),
     ("ito", "--moment-p", "3", "mij-moment"),
     ("htap1", "--steps", "0", "ito"),
     ("qn-conc", "--steps", "8", "ito"),
     ("htap1", "--quad-nodes", "400", "qn-conc"),
     ("mij-moment", "--quad-nodes", "3", "qn-conc")],
    ids=["htap1-moment-p-nan", "ito-moment-p", "htap1-steps-0", "qn-conc-steps",
         "htap1-quad-nodes-400", "mij-moment-quad-nodes"],
)
def test_scaling_rejects_a_flag_its_experiment_never_reads(
    experiment, flag, value, reader, monkeypatch, capsys
):
    ensembles = []
    monkeypatch.setattr(sktap.cli, "run_ensemble", ensembles.append)
    code, out, err = run_cli(
        [*SCALING, "--experiment", experiment, "--n", "4,5", flag, value], capsys
    )
    assert code == 1
    assert f"{flag} is read only by --experiment {reader}, not by {experiment}" in err
    assert ensembles == [] and out == ""


def _full_parser_run(argv):
    """Exit code, stdout and stderr of the full parser on argv, or its Namespace."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return build_parser().parse_args(argv)
        except SystemExit as exit_request:
            return exit_request.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("base_name", sorted(SWEEP_BASES))
def test_main_parses_like_the_full_parser(base_name, monkeypatch, capsys):
    # main declares the flags of the command it runs alone; help, usage
    # errors, prefixes of long flags and the Namespace stay those of the
    # parser that declares every command
    command, base = base_name.split()[0], SWEEP_BASES[base_name]
    for argv in ([command, "--help"], [command, *base, "--bogus"], [command, "--form", "xml"]):
        assert run_cli(argv, capsys) == _full_parser_run(argv)
    seen = []

    def record(args):
        seen.append(args)
        return {"columns": [], "rows": [], "summary": {}}

    help_text, declare, _ = sktap.cli._COMMANDS[command]
    monkeypatch.setitem(sktap.cli._COMMANDS, command, (help_text, declare, record))
    for argv in ([command, *base], [command, *base, "--form", "csv"]):
        assert run_cli(argv, capsys)[0] == 0
        assert seen.pop() == _full_parser_run(argv)


def test_top_level_help_and_usage_errors_are_unchanged(capsys):
    for argv in (["--help"], [], ["bogus"], ["--", "fixed-point", "--t", "0.5", "--h", "0.3"]):
        assert run_cli(argv, capsys) == _full_parser_run(argv)


def test_the_parser_of_one_command_registers_that_command_alone():
    # its usage line still names every command, as the full parser's does
    def subparsers(parser):
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return list(sub.choices)

    one, full = build_parser("scaling"), build_parser()
    assert subparsers(one) == ["scaling"]
    assert subparsers(full) == list(sktap.cli._COMMANDS)
    assert one.format_usage() == full.format_usage()


@pytest.mark.parametrize(
    "text, value",
    [("-1e-3", -1e-3), ("-1E+3", -1e3), ("-.5e-2", -0.005), ("-5.", -5.0), ("-inf", -math.inf),
     ("-Infinity", -math.inf), ("-nan", math.nan)],
)
def test_a_negative_float_is_a_value_in_any_form(text, value):
    args = build_parser("fixed-point").parse_args(["fixed-point", "--t", "0.5", "--h", text])
    assert args.h == value or (math.isnan(value) and math.isnan(args.h))


def test_a_negative_float_in_exponent_form_runs_as_its_decimal_form(tmp_path, capsys):
    # argparse's own pattern read -1e-3 as a flag: "--h: expected one argument"
    payloads = []
    for h in ("-1e-3", "-0.001"):
        out_file = tmp_path / f"{h}.json"
        code, _, err = run_cli(["fixed-point", "--t", "0.5", "--h", h, "--out", str(out_file)],
                               capsys)
        assert code == 0, err
        payloads.append(out_file.read_bytes())
    assert payloads[0] == payloads[1]


def _bug(*args, **kwargs):
    raise RuntimeError("bug")


@pytest.mark.parametrize(
    "argv, code",
    [(["fixed-point", "--t", "0.5", "--h", "0.3"], 0),
     (["fixed-point", "--t", "0.5", "--h", "0.3", "--bogus"], 1),
     (["fixed-point", "--t", "0.5", "--h", "0.3", "--help"], 0),
     (["at-line", "--h", "0", "--t-min", "1.0", "--t-max", "0.5"], 1),
     (["mij-variance", "--n", "8", "--t", "1.2", "--h", "0", "--samples", "5"], 2),
     (["tap-residuals", "--n", "4"], "bug")],
    ids=["exit-0", "usage-error", "help", "invalid-configuration", "numerical-failure", "bug"],
)
@pytest.mark.parametrize("caller", ["plain", "frozen-and-disabled"])
def test_main_leaves_the_collector_as_it_found_it(argv, code, caller, monkeypatch, capsys):
    # main freezes what the imports left for the call, and thaws it on every
    # way out; a caller's own freeze, and a disabled collector, stay as they are
    frozen_in_call = []

    def spy(real):
        def run(*args, **kwargs):
            frozen_in_call.append(gc.get_freeze_count())
            return real(*args, **kwargs)
        return run

    monkeypatch.setattr(sktap.cli, "solve_q", spy(sktap.cli.solve_q))
    monkeypatch.setattr(sktap.cli, "htap1_residuals", spy(_bug))
    if caller != "plain":
        gc.freeze()
        gc.disable()
    try:
        before = gc.isenabled(), gc.get_freeze_count()
        if code == "bug":
            with pytest.raises(RuntimeError, match="bug"):
                main(argv)
        else:
            assert main(argv) == code
        assert gc.isenabled() == before[0]
        if caller == "plain":
            assert gc.get_freeze_count() == before[1] == 0
        else:  # frozen objects the call frees leave the count; none is thawed
            assert 0 < gc.get_freeze_count() <= before[1]
    finally:
        gc.enable()
        gc.unfreeze()
        capsys.readouterr()
    if caller == "plain" and frozen_in_call:
        assert min(frozen_in_call) > 0
