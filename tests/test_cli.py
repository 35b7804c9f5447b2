import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sktap
from sktap import substream_seed
from sktap.cli import main


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


def test_mij_variance_reports_ratio(capsys):
    code, out, _ = run_cli(
        ["mij-variance", "--n", "8", "--t", "0.5", "--h", "0.3", "--samples", "50",
         "--seed", "5"],
        capsys,
    )
    assert code == 0
    assert "ratio = " in out


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


def test_numerical_failure_exits_two(capsys):
    code, _, err = run_cli(
        ["mij-variance", "--n", "8", "--t", "1.2", "--h", "0", "--samples", "5"], capsys
    )
    assert code == 2
    assert "numerical failure" in err


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


def test_payload_bytes_do_not_depend_on_blas_threads(tmp_path):
    src = str(Path(sktap.__file__).resolve().parents[1])
    commands = {
        "ito": ["scaling", "--experiment", "ito", "--n", "6", "--steps", "256",
                "--t", "0.5", "--h", "0.3", "--samples", "4"],
        "dynamics": ["dynamics", "--n", "8", "--steps", "256"],
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
