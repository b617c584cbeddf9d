"""Command-line interface.

Subcommands:
  run     execute one optimizer/problem pair and write trajectory + summary
  sweep   run a cartesian grid of overrides across seeds, aggregate to CSV
  verify  run the independent property suite, write a JSON report
  report  print a readable digest of a trajectory, summary, or sweep file

Exit codes: 0 success, 1 configuration error (or a file ``report`` cannot
read), 2 numeric failure during a run (one ``numeric failure:`` line on
stderr names its iteration and phase), 3 verification failure. Every file
and JSON flag loaded is read and checked field by field by ``harness``, so a
bad one is a config error. The default output directory is taken from
``$HESSOPT_OUT`` when set, else ``./runs``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .autodiff import NumericError
from .harness import (
    ConfigError,
    RunConfig,
    json_object,
    load_trajectory,
    make_out_dir,
    read_text,
    run,
    summarize_trajectory,
    sweep,
    write_atomic,
)
from .optim import optimizer_names
from .problems import problem_names

# (flag, config field, type, help)
_RUN_FLAGS = [
    ("--problem", "problem", str, "problem registry name"),
    ("--optimizer", "optimizer", str, "optimizer registry name"),
    ("--lr", "lr", float, "base learning rate"),
    ("--beta1", "beta1", float, "first-moment decay"),
    ("--beta2", "beta2", float, "second-moment / curvature decay"),
    ("--k", "k", float, "Hessian power in [0, 1]"),
    ("--eps", "eps", float, "denominator guard"),
    ("--weight-decay", "weight_decay", float, "weight decay coefficient"),
    ("--momentum", "momentum", float, "gradient-descent momentum"),
    ("--block-size", "block_size", int, "spatial-averaging block size"),
    ("--samples", "samples", int, "Hutchinson probes per estimate"),
    ("--hessian-freq", "hessian_freq", int, "iterations between diagonal estimates"),
    ("--warmup", "warmup", int, "iterations of every-step estimation at the start"),
    ("--schedule", "schedule", str, "learning-rate schedule kind"),
    ("--iters", "iters", int, "iterations to run"),
    ("--seed", "seed", int, "run seed"),
    ("--out", "out", str, "output directory"),
    ("--run-name", "run_name", str, "basename for output files"),
    ("--loss-threshold", "loss_threshold", float,
     "loss level for the iterations-to-threshold statistic"),
    ("--divergence-loss", "divergence_loss", float,
     "final loss above this counts as diverged in sweeps"),
]


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=str, default=None,
                        help="JSON config file; explicit flags override its values")
    for flag, _, typ, help_text in _RUN_FLAGS:
        parser.add_argument(flag, type=typ, default=None, help=help_text)
    parser.add_argument("--problem-params", type=str, default=None,
                        help="JSON object of problem builder arguments")
    parser.add_argument("--schedule-params", type=str, default=None,
                        help="JSON object of schedule parameters")
    parser.add_argument("--no-hessian-ema", action="store_true",
                        help="precondition with |current estimate| instead of its moving average")
    parser.add_argument("--no-cost-ratio", action="store_true",
                        help="skip the gradient-descent timing companion")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig.from_file(args.config) if args.config else RunConfig()
    overrides = {}
    for _, name, _, _ in _RUN_FLAGS:
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    for name in ("problem_params", "schedule_params"):
        raw = getattr(args, name)
        if raw is not None:
            overrides[name] = json_object(raw, f"--{name.replace('_', '-')}")
    if args.no_hessian_ema:
        overrides["hessian_ema"] = False
    if args.no_cost_ratio:
        overrides["cost_ratio"] = False
    return config.with_overrides(overrides).validate()


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    result = run(config)
    for key in ("status", "final_loss", "best_recorded_loss",
                "iterations_run", "iterations_to_threshold",
                "hessian_estimates_computed", "median_iter_seconds",
                "cost_ratio_vs_sgd"):
        if key in result.summary and result.summary[key] is not None:
            print(f"{key}: {result.summary[key]}")
    if result.trajectory_path:
        print(f"trajectory: {result.trajectory_path}")
        print(f"summary: {result.summary_path}")
    if result.status != "ok":
        print(f"numeric failure: {result.summary['failure']}", file=sys.stderr)
        return 2
    return 0


def _parse_grid_value(text: str):
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _cmd_sweep(args: argparse.Namespace) -> int:
    base = _config_from_args(args)
    axes = {}
    for item in args.grid or []:
        if "=" not in item:
            raise ConfigError(f"--grid expects axis=v1,v2,... (got {item!r})")
        axis, _, values = item.partition("=")
        axis = axis.strip()
        if axis in axes:
            raise ConfigError(f"sweep axis {axis!r} is given more than once; "
                              f"list all its values in one --grid")
        axes[axis] = [_parse_grid_value(v) for v in values.split(",") if v]
    if not axes:
        raise ConfigError("sweep needs at least one --grid axis")
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s]
    except ValueError:
        raise ConfigError(f"--seeds must be comma-separated integers (got {args.seeds!r})")
    cells, csv_path = sweep(base, axes, seeds, out=args.out, csv_name=args.csv_name)
    header = sorted(axes) + ["final_loss_mean", "final_loss_std", "diverged"]
    print("  ".join(f"{h:>16}" for h in header))
    for cell in cells:
        row = cell.row()
        values = [row[a] for a in sorted(axes)] + [
            f"{row['final_loss_mean']:.6g}", f"{row['final_loss_std']:.3g}",
            f"{row['diverged']}/{row['n_seeds']}",
        ]
        print("  ".join(f"{str(v):>16}" for v in values))
    print(f"csv: {csv_path}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .oracle import run_verification_suite  # only verify needs the oracle

    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    names = None
    if args.properties is not None:
        names = [n for n in args.properties.split(",") if n]
        if not names:
            raise ConfigError(f"--properties {args.properties!r} selects no property")
    out_dir = make_out_dir(args.out)
    try:
        report = run_verification_suite(names=names, seed=args.seed)
    except KeyError as exc:
        raise ConfigError(exc.args[0]) from None
    for prop in report.properties:
        mark = "PASS" if prop.passed else "FAIL"
        print(f"{mark}  {prop.name:28s} {prop.elapsed_s:7.2f}s  {prop.detail}")
    report_path = out_dir / "verify_report.json"
    write_atomic(report_path, json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")
    print(f"report: {report_path}")
    if not report.all_passed:
        failed = [p.name for p in report.properties if not p.passed]
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
        return 3
    print("all properties passed")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    path = Path(args.path)
    try:
        if path.is_dir():
            raise ConfigError("it is a directory")
        if path.suffix == ".jsonl":
            header, records = load_trajectory(path)
            config = header.get("config", {})
            lines = [f"trajectory: {path}",
                     f"problem: {config.get('problem')}  optimizer: {config.get('optimizer')}"
                     f"  seed: {config.get('seed')}"]
            lines += [f"{key}: {value}" for key, value in summarize_trajectory(records).items()]
            lines += [f"  t={r['t']:<5d} loss={r['loss']:.6e} |g|={r['grad_norm']:.3e}"
                      f" lr={r['lr']:.4g} hess={'Y' if r['hessian_computed'] else 'n'}"
                      for r in records[:3] + ([] if len(records) <= 6 else records[-3:])]
        elif path.suffix == ".csv":
            lines = [read_text(path, "file").rstrip()]
        elif path.suffix == ".json":
            data = json_object(read_text(path, "file"), "file")
            lines = [f"{key}: {value}" for key, value in data.items()]
        else:
            raise ConfigError("expected .jsonl, .json, or .csv")
    except ConfigError as exc:
        raise ConfigError(f"cannot report on {path.name!r}: {exc}") from None
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hessopt",
        description="Second-order optimization toolkit: runs, sweeps, and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured run")
    _add_run_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a config grid across seeds")
    _add_run_flags(p_sweep)
    p_sweep.add_argument("--grid", action="append", metavar="AXIS=V1,V2,...",
                         help="sweep axis over config field values (repeatable)")
    p_sweep.add_argument("--seeds", type=str, default="0",
                         help="comma-separated seeds per cell")
    p_sweep.add_argument("--csv-name", type=str, default="sweep.csv",
                         help="name of the aggregated CSV file")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the independent property suite")
    p_verify.add_argument("--properties", type=str, default=None,
                          help="comma-separated subset of property names")
    p_verify.add_argument("--seed", type=int, default=0, help="suite seed")
    p_verify.add_argument("--out", type=str, default=None,
                          help="directory for the JSON report")
    p_verify.set_defaults(func=_cmd_verify)

    p_report = sub.add_parser("report", help="summarize an output file")
    p_report.add_argument("path", type=str,
                          help="a .trajectory.jsonl, .summary.json, or sweep .csv file")
    p_report.set_defaults(func=_cmd_report)

    parser.epilog = (
        f"problems: {', '.join(problem_names())};  "
        f"optimizers: {', '.join(optimizer_names())}"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    # as on stderr, a lone surrogate from a loaded file prints as an escape
    sys.stdout.reconfigure(errors="backslashreplace")
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
