"""Command-line interface.

Subcommands:
  run     execute one optimizer/problem pair and write trajectory + summary
  sweep   run a cartesian grid of overrides across seeds, aggregate to CSV
  verify  run the independent property suite, write a JSON report
  report  print a readable digest of a trajectory, summary, or sweep file

Exit codes: 0 success (also for ``--help``), 1 configuration error (an
argument argparse refuses, or a file ``report`` cannot read), 2 numeric
failure during a run (one ``numeric failure:`` line on stderr names its
iteration and phase), 3 verification failure. Every file
and JSON flag loaded is read and checked field by field by ``harness``, so a
bad one is a config error. The default output directory is taken from
``$HESSOPT_OUT`` when set, else ``./runs``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields
from pathlib import Path

from .autodiff import NumericError
from .harness import (
    ConfigError,
    RunConfig,
    field_types,
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


class _JSONObject(argparse.Action):
    """Stores the JSON object a flag's value holds. A value that is not one is
    a ConfigError naming the flag, which argparse passes on as it is."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, json_object(values, option_string))


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """``--config``, then one flag per RunConfig field: ``--<name>`` (dashes for
    underscores) read as the field's type, a JSON object for a dict, and
    ``--no-<name>`` for a bool, which defaults to true. Each flag defaults to
    None, so only the flags given override the config."""
    parser.add_argument("--config", type=str, default=None,
                        help="JSON config file; explicit flags override its values")
    for f in fields(RunConfig):
        tp = field_types(RunConfig)[f.name][0][0]  # X for X | None
        flag = f.name.replace("_", "-")
        if tp is bool:
            flag, kind = f"no-{flag}", {"action": "store_false"}
        elif tp is dict:
            kind = {"action": _JSONObject}
        else:
            kind = {"type": tp}
        parser.add_argument(f"--{flag}", dest=f.name, default=None, help=f.metadata["help"],
                            **kind)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig.from_file(args.config) if args.config else RunConfig()
    return config.with_overrides({f.name: getattr(args, f.name) for f in fields(RunConfig)
                                  if getattr(args, f.name) is not None}).validate()


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


def _grid_value(axis: str, text: str):
    """``text`` read as the flag of the RunConfig field ``axis`` reads it; a
    bool is ``true`` or ``false`` in any case. An unknown axis keeps its text,
    for ``sweep`` to refuse."""
    if axis not in field_types(RunConfig):
        return text
    tp = field_types(RunConfig)[axis][0][0]
    try:
        if tp is bool:
            return {"true": True, "false": False}[text.lower()]
        return json_object(text, axis) if tp is dict else tp(text)
    except (KeyError, ValueError):
        raise ConfigError(f"{axis} must be {tp.__name__}, got {text!r}") from None


def _split_values(text: str) -> list[str]:
    """``text`` split on its commas outside brackets, braces and double-quoted
    strings, so that a JSON value of a ``dict`` axis stays whole."""
    parts, start, depth, quoted, escaped = [], 0, 0, False, False
    for i, ch in enumerate(text):
        if escaped:
            escaped = False
        elif quoted:
            escaped, quoted = ch == "\\", ch != '"'
        elif ch == '"':
            quoted = True
        elif ch in "[{":
            depth += 1
        elif ch in "]}":
            depth = max(depth - 1, 0)
        elif ch == "," and not depth:
            parts.append(text[start:i])
            start = i + 1
    return [*parts, text[start:]]


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
        axes[axis] = [_grid_value(axis, v) for v in _split_values(values) if v]
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
                      for r in (records if len(records) <= 6 else records[:3] + records[-3:])]
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


class _FloatToken:
    """Matches a token ``float`` reads, such as ``-1e-3`` or ``-inf``.

    argparse takes a token starting with ``-`` for an option unless it matches
    its negative-number pattern, ``-\\d+`` or ``-\\d*\\.\\d+``, so
    ``--lr -1e-3`` would read as a flag missing its value.
    """

    @staticmethod
    def match(token: str) -> bool:
        try:
            float(token)
        except ValueError:
            return False
        return True


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are config errors: exit 1 with one line,
    not a usage block and exit 2. Its subcommand parsers are of this class too.
    A token ``float`` reads is a value, however negative (:class:`_FloatToken`).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _FloatToken

    def error(self, message):
        # argparse quotes most values with repr, but not unrecognized arguments
        raise ConfigError(f"{self.prog}: {' '.join(message.splitlines())}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``hessopt`` parser, built once per process: parsing leaves it as it
    was, and each ``parse_args`` returns a new Namespace."""
    parser = _Parser(
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
    try:
        args = build_parser().parse_args(argv)
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
