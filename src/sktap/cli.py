"""Command-line surface for every experiment, with reproducible outputs.

Every subcommand echoes its full configuration, so a run can be reproduced
bit-exactly from its output file.  Floating-point values are printed with 17
significant digits (full float64 round-trip precision).  Exit codes: 0 on
success, 1 on usage/validation errors, 2 on numerical failure (the failing
seed is printed when one is known, and for a failed disorder sample the
argv that replays it).
"""

from __future__ import annotations

import argparse
import gc
import json
import locale  # unused here: argparse's gettext imports it at the first parser, so pay it at import
import re
import sys
from pathlib import Path

import numpy as np

from .dynamics import ItoCheckConfig, ito_decomposition_trace
from .ensemble import EXPERIMENTS, EnsembleConfig, map_samples, reference_overlap, run_ensemble
from .errors import EnsembleSampleError, NumericalError
from .gibbs import (
    ENUM_CAP,
    coupling_derivative_residual,
    gibbs_tables,
    key_identity_residual,
    susceptibility_fd,
)
from .model import ModelParams, sample_couplings, sample_path, substream_seed
from .spectral import resolvent_error, s_prime_at_e0, spectral_margin
from .tap import (
    QUAD_NODES,
    at_value,
    f_map,
    htap1_residuals,
    htap2_residual,
    predicted_mij_sq,
    solve_q,
    tap1_residuals,
    tap2_residual,
)

def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


# A leading minus on anything float() reads (-1e-3, -inf, -nan), which
# argparse's own pattern, ^-\d+$|^-\d*\.\d+$, takes for an option.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|^-(inf|infinity|nan)$",
                              re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """argparse that exits with code 1 on usage errors, as documented, and
    reads every negative number as a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_n_list(text: str) -> tuple:
    try:
        values = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of integers: {text!r}")
    return values


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, each registered with its help and flags.
    Given ``command``, only that one is registered; its usage line still
    names all nine, as the "unrecognized arguments" error prints it."""
    parser = _Parser(prog="sktap", description=__doc__)
    names = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser,
                                metavar=names)
    for name, (help_text, declare, _) in _COMMANDS.items():
        if command in (None, name):
            declare(sub.add_parser(name, help=help_text))
    return parser


def _declare_common(p) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", type=Path, default=None, help="write the payload here")


def _declare_quad(p) -> None:
    _declare_common(p)
    p.add_argument("--quad-nodes", type=int, default=QUAD_NODES)


def _declare_ensemble(p) -> None:
    """What ``_ensemble_config`` reads, but ``--samples``, whose default differs per command."""
    _declare_quad(p)
    p.add_argument("--n", type=_parse_n_list, required=True, help="comma list of sizes")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--threads", type=int, default=1)


def _declare_fixed_point(p) -> None:
    _declare_quad(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-12)


def _declare_at_line(p) -> None:
    _declare_quad(p)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--t-min", type=float, required=True)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--grid", type=int, default=11)


def _declare_system(p, n: int, t: float) -> None:
    """The flags of the one system a command draws, ``--n`` and ``--t`` with these defaults."""
    _declare_common(p)
    p.add_argument("--n", type=int, default=n)
    p.add_argument("--t", type=float, default=t)
    p.add_argument("--h", type=float, default=0.3)


def _system(args, removed: int = 0) -> ModelParams:
    """The parameters that ``_declare_system``'s flags set.  An n whose
    enumeration would exceed ``ENUM_CAP`` with ``removed`` sites taken out
    is refused here, before any draw."""
    if args.n - removed > ENUM_CAP:
        raise ValueError(f"{args.n - removed} active sites exceed enum_cap={ENUM_CAP}")
    return ModelParams.uniform(args.n, args.t, args.h)


def _declare_verify_identities(p) -> None:
    _declare_system(p, 8, 0.5)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--step", type=float, default=1e-5)


def _declare_tap_residuals(p) -> None:
    _declare_system(p, 12, 0.5)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--pair", type=str, default="0,1", help="pair i,j for the two-point residuals")


def _declare_scaling(p) -> None:
    _declare_ensemble(p)
    p.add_argument(
        "--experiment", choices=sorted(name.replace("_", "-") for name in EXPERIMENTS),
        required=True,
    )
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--moment-p", type=float, default=EnsembleConfig.moment_p)
    p.add_argument("--steps", type=int, default=EnsembleConfig.ito_steps, help="ito grid steps")
    p.add_argument("--loglog-out", type=Path, default=None,
                   help="also write the plot-ready (log n, log mean) table here")


def _declare_overlap(p) -> None:
    _declare_ensemble(p)
    p.add_argument("--samples", type=int, default=500)


def _declare_mij_variance(p) -> None:
    _declare_ensemble(p)
    p.add_argument("--samples", type=int, default=2000)


def _declare_dynamics(p) -> None:
    _declare_system(p, 8, 0.5)
    p.add_argument("--steps", type=int, default=256)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--site-i", type=int, default=0)
    p.add_argument("--site-j", type=int, default=1)


def _declare_spectral(p) -> None:
    _declare_system(p, 16, 0.4)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=42)


def _cmd_fixed_point(args) -> dict:
    nodes = args.quad_nodes
    q = solve_q(args.t, args.h, nodes, tol=args.tol)
    q2 = solve_q(args.t, args.h, 2 * nodes, tol=args.tol)
    at = at_value(args.t, args.h, q, nodes)
    print(f"q = {_fmt(q)}")
    print(f"at_value = {_fmt(at)}")
    return {
        "columns": ["t", "h", "q", "at_value"],
        "rows": [[args.t, args.h, q, at]],
        "summary": {
            "q": q,
            "at_value": at,
            "fixed_point_residual": abs(q - f_map(q, args.t, args.h, nodes)),
            "node_doubling_delta": abs(q - q2),
        },
    }


def _cmd_at_line(args) -> dict:
    for flag, value in (("--t-min", args.t_min), ("--t-max", args.t_max)):
        if not np.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    if args.grid < 2 or args.t_max <= args.t_min:
        raise ValueError("need grid >= 2 and t_max > t_min")
    rows = []
    for t in np.linspace(args.t_min, args.t_max, args.grid):
        q = solve_q(float(t), args.h, args.quad_nodes)
        rows.append([float(t), q, at_value(float(t), args.h, q, args.quad_nodes)])
    for t, q, at in rows:
        print(f"t = {_fmt(t)}  q = {_fmt(q)}  at_value = {_fmt(at)}")
    return {"columns": ["t", "q", "at_value"], "rows": rows, "summary": {}}


def _cmd_verify_identities(args) -> dict:
    if args.n < 3:
        raise ValueError(f"--n must be >= 3, the triple identities need three sites, got {args.n}")
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    params = _system(args)
    cm = sample_couplings(params, args.seed)
    full = gibbs_tables(cm, params)
    rng = np.random.default_rng(substream_seed(args.seed, 1))
    rows = []
    for trial in range(args.trials):
        sites = rng.permutation(args.n)
        i, j, k = (int(v) for v in sites[:3])
        n_clamp = int(rng.integers(0, max(1, args.n - 4)))
        clamped = {int(s): int(rng.choice((-1, 1))) for s in sites[3 : 3 + n_clamp]}
        r1, r2 = key_identity_residual(cm, params, clamped, i, j, k)
        r3 = susceptibility_fd(cm, params, i, j, args.step) - full.pair[i, j]
        r4 = coupling_derivative_residual(cm, params, i, j, k, args.step)
        rows.append([trial, r1, r2, r3, r4])
    tolerances = {
        "pair_identity": 1e-12,
        "triple_identity": 1e-12,
        "susceptibility": 1e-8,
        "coupling_derivative": 1e-7,
    }
    # np.max keeps a NaN, which then fails its tolerance below
    largest = np.max(np.abs(np.array(rows)[:, 1:]), axis=0)
    maxima = {name: float(v) for name, v in zip(tolerances, largest)}
    for name, value in maxima.items():
        print(f"max |{name}| = {_fmt(value)}")
    for name, tol in tolerances.items():
        if not maxima[name] <= tol:
            raise NumericalError(
                f"{name} residual {maxima[name]:.3e} exceeds {tol:g} (seed={args.seed})"
            )
    return {
        "columns": ["trial", *tolerances],
        "rows": rows,
        "summary": {f"max_{k}": v for k, v in maxima.items()},
    }


def _cmd_tap_residuals(args) -> dict:
    params = _system(args)
    cm = sample_couplings(params, args.seed)
    try:
        i, j = (int(v) for v in args.pair.split(","))
    except ValueError:
        raise ValueError(f"--pair must be two site indices i,j, got {args.pair!r}") from None
    h1 = htap1_residuals(cm, params)
    t1 = tap1_residuals(cm, params)
    rows = [[site, h1.residuals[site], t1.residuals[site]] for site in range(args.n)]
    summary = {
        "htap1_mean_square": h1.mean_square,
        "tap1_mean_square": t1.mean_square,
        "htap2_residual": htap2_residual(cm, params, i, j),
        "tap2_residual": tap2_residual(cm, params, i, j),
        "pair_i": i,
        "pair_j": j,
    }
    for key in ("htap1_mean_square", "tap1_mean_square", "htap2_residual", "tap2_residual"):
        print(f"{key} = {_fmt(summary[key])}")
    return {"columns": ["site", "htap1_residual", "tap1_residual"], "rows": rows, "summary": summary}


def _ensemble_config(args, experiment: str, **extra) -> EnsembleConfig:
    """The ensemble that the flags shared by ``scaling``, ``overlap`` and ``mij-variance`` set."""
    return EnsembleConfig(
        n_values=tuple(sorted(set(args.n))),  # --n may come in any order, with repeats
        samples=args.samples,
        t=args.t,
        h=args.h,
        master_seed=args.seed,
        experiment=experiment,
        quad_nodes=args.quad_nodes,
        workers=args.threads,
        **extra,
    )


def _ensemble_payload(stats) -> dict:
    rows = [[n, *values] for n, values in stats.per_n.items()]
    summary = {"degenerate": stats.fit is None}
    if stats.fit is not None:
        summary.update(
            {"slope": stats.fit[0], "intercept": stats.fit[1], "slope_stderr": stats.fit[2]}
        )
    return {"columns": ["n", "mean", "variance", "stderr"], "rows": rows, "summary": summary}


def _cmd_scaling(args) -> dict:
    experiment = args.experiment.replace("-", "_")
    cfg = _ensemble_config(args, experiment, moment_p=args.moment_p, ito_steps=args.steps)
    # a flag that one experiment alone reads keeps its default elsewhere (NaN does not)
    for flag, name, reader in (("--moment-p", "moment_p", "mij-moment"),
                               ("--steps", "ito_steps", "ito"),
                               ("--quad-nodes", "quad_nodes", "qn-conc")):
        if args.experiment != reader and getattr(cfg, name) != getattr(EnsembleConfig, name):
            raise ValueError(f"{flag} is read only by --experiment {reader}, not by "
                             f"{args.experiment}; got {getattr(cfg, name)}")
    stats = run_ensemble(cfg)
    payload = _ensemble_payload(stats)
    if stats.fit is not None:
        print(f"slope = {_fmt(stats.fit[0])}  stderr = {_fmt(stats.fit[2])}")
    else:
        print("fit degenerate (fewer than 3 sizes, or a mean at the rounding floor)")
    if args.loglog_out is not None:
        args.loglog_out.write_text(stats.loglog_text())
    return payload


def _cmd_overlap(args) -> dict:
    cfg = _ensemble_config(args, "qn_conc")
    stats = run_ensemble(cfg)
    payload = _ensemble_payload(stats)
    q_ref = reference_overlap(args.t, args.h, args.quad_nodes)
    first, last = cfg.n_values[0], cfg.n_values[-1]
    payload["summary"]["q_ref"] = q_ref
    payload["summary"]["decreasing"] = bool(stats.per_n[last][0] < stats.per_n[first][0])
    print(f"q = {_fmt(q_ref)}")
    print(f"mean (q_n - q)^2: n={first}: {_fmt(stats.per_n[first][0])}  n={last}: {_fmt(stats.per_n[last][0])}")
    return payload


def _cmd_mij_variance(args) -> dict:
    """Measured n E m01^2 against its leading-order prediction, one row per ``--n`` entry.

    One ensemble serves the distinct sizes, after every prediction: past the AT line no sample runs.
    """
    cfg = _ensemble_config(args, "mij_sq")
    predictions = {n: n * predicted_mij_sq(args.t, args.h, n, args.quad_nodes)
                   for n in cfg.n_values}
    if not all(p > 0 for p in predictions.values()):  # each ratio divides by it
        raise ValueError(f"the predicted n E m01^2 is not > 0 at t={args.t}, h={args.h}")
    stats = run_ensemble(cfg)
    rows = []
    for n in args.n:
        (measured, _, stderr), predicted = stats.per_n[n], predictions[n]
        rows.append([n, measured, stderr, predicted, measured / predicted])
        print(
            f"n = {n}  measured n E m01^2 = {_fmt(measured)}  predicted = {_fmt(predicted)}"
            f"  ratio = {_fmt(measured / predicted)}"
        )
    return {
        "columns": ["n", "measured", "stderr", "predicted", "ratio"],
        "rows": rows,
        "summary": {},
    }


def _cmd_dynamics(args) -> dict:
    params = _system(args, removed=1)  # the Ito check enumerates the cavity of one site
    path = sample_path(params, args.steps, args.seed)
    cfg = ItoCheckConfig(clamped_site=args.site_i, target_site=args.site_j)
    trace = ito_decomposition_trace(path, cfg, params)
    diff = trace["cavity_difference"]
    rows = [
        [float(s), float(l), float(m), float(d)]
        for s, l, m, d in zip(trace["s"], trace["lhs"], trace["martingale"], trace["drift"])
    ]
    print(f"residual = {_fmt(trace['residual'])}")
    print(f"terminal cavity difference = {_fmt(float(diff[-1]))}")
    return {
        "columns": ["s", "lhs", "martingale_partial", "drift_partial"],
        "rows": rows,
        "summary": {
            "residual": trace["residual"],
            "terminal_cavity_difference": float(diff[-1]),
        },
    }


def _cmd_spectral(args) -> dict:
    if args.samples < 1:
        raise ValueError(f"samples must be >= 1, got {args.samples}")
    params = _system(args)

    def sample(n, k, seed):
        cm = sample_couplings(params, seed)
        tabs = gibbs_tables(cm, params)
        err = resolvent_error(cm, params, tables=tabs)
        eigmin, e0 = spectral_margin(cm, params, tables=tabs)
        # s'(e0) reads sample 0 too, so its failure is sample 0's
        s_prime = s_prime_at_e0(cm, params, tables=tabs) if k == 0 else None
        return [n, seed, err, eigmin - e0], s_prime

    results = map_samples(sample, args.seed, (args.n,), args.samples)
    rows = [row for row, _ in results]
    fd, closed = results[0][1]
    summary = {
        "median_resolvent_error": float(np.median([row[2] for row in rows])),
        "margin_fraction": sum(row[3] > 0 for row in rows) / args.samples,
        "s_prime_fd": fd,
        "s_prime_closed": closed,
    }
    for key, value in summary.items():
        print(f"{key} = {_fmt(value)}")
    return {"columns": ["n", "seed", "resolvent_error", "margin"], "rows": rows, "summary": summary}


# name: (help, the function that declares its flags, the handler), in the order of --help
_COMMANDS = {
    "fixed-point": ("solve q = E tanh^2(h + sqrt(tq) Z)", _declare_fixed_point, _cmd_fixed_point),
    "at-line": ("AT criterion values on a grid of t", _declare_at_line, _cmd_at_line),
    "verify-identities": ("conditional/derivative identity residuals",
                          _declare_verify_identities, _cmd_verify_identities),
    "tap-residuals": ("all four TAP residual kinds for one sample",
                      _declare_tap_residuals, _cmd_tap_residuals),
    "scaling": ("disorder ensemble + log-log decay fit", _declare_scaling, _cmd_scaling),
    "overlap": ("overlap concentration (q_n - q)^2", _declare_overlap, _cmd_overlap),
    "mij-variance": ("measured n E m01^2 vs leading-order prediction",
                     _declare_mij_variance, _cmd_mij_variance),
    "dynamics": ("Ito decomposition residual along one coupling path",
                 _declare_dynamics, _cmd_dynamics),
    "spectral": ("resolvent errors and spectral margins over disorder",
                 _declare_spectral, _cmd_spectral),
}


def _config_echo(args) -> dict:
    skip = {"out", "format"}
    echo = {}
    for key, value in sorted(vars(args).items()):
        if key in skip:
            continue
        if isinstance(value, Path):
            value = str(value)
        if isinstance(value, tuple):
            value = list(value)
        echo[key] = value
    return echo


def _replay(args, failed: EnsembleSampleError) -> str:
    """The argv that runs the failed sample again: the command with every
    echoed flag but ``--loglog-out``, at the failing n, with samples up to
    the failing one.  Seeds depend on (seed, n, index) alone, so it fails
    on the same sample."""
    import shlex  # here: only a failed run needs it, every call would pay 0.5 ms at import

    config = _config_echo(args)
    config.update(n=failed.n, samples=max(2, failed.index + 1))
    argv = ["sktap", config.pop("command")]
    for key, value in config.items():
        if key != "loglog_out":
            argv += ["--" + key.replace("_", "-"), str(value)]
    return shlex.join(argv)


def _render_csv(payload: dict) -> str:
    lines = [f"# {k}={_fmt(v)}" for k, v in sorted(payload["config"].items())]
    lines += [f"# summary {k}={_fmt(v)}" for k, v in sorted(payload["summary"].items())]
    lines.append(",".join(payload["columns"]))
    for row in payload["rows"]:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _render_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def main(argv=None) -> int:
    # What the imports left, about 1e5 objects, stays out of every collection
    # during the call; a caller's own freeze is left as it is.
    thaw = not gc.get_freeze_count()
    if thaw:
        gc.freeze()
    try:
        return _run(sys.argv[1:] if argv is None else argv)
    finally:
        if thaw:
            gc.unfreeze()


def _run(argv) -> int:
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        args = build_parser(command).parse_args(argv)
    except SystemExit as exit_request:
        code = exit_request.code
        return code if isinstance(code, int) else 0
    try:
        # a missing output directory fails here, not after the run
        for path in (args.out, getattr(args, "loglog_out", None)):
            if path is not None and not path.parent.is_dir():
                raise ValueError(f"cannot write {path}: no directory {path.parent}")
        payload = _COMMANDS[args.command][2](args)
        payload["config"] = _config_echo(args)
        text = _render_csv(payload) if args.format == "csv" else _render_json(payload)
        if args.out is not None:
            args.out.write_text(text)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        if isinstance(exc, EnsembleSampleError):
            print(f"replay: {_replay(args, exc)}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 1
    if args.out is None:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
