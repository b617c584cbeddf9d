"""Experiment runner: configs, trajectories, sweeps, and reports.

A run executes one (problem, optimizer) pair for a fixed number of
iterations and emits two files:

  - ``<name>.trajectory.jsonl``: one JSON object per line. The first line is
    a schema header carrying the config; each following line is a
    per-iteration record with keys t, loss, grad_norm, lr, hessian_computed
    and (for d <= 16) theta. Records contain no timing information, so a
    repeated run with the same config and seed is byte-identical.
  - ``<name>.summary.json``: final full-batch loss, iterations-to-threshold,
    per-iteration wall-time statistics (median over iterations after the
    first 10), and the measured per-iteration cost ratio against a
    gradient-descent companion: SGD from the same start, on its own parameters,
    timed one iteration before each of the run's on the same batch, so a drift
    of the machine's speed reaches both sides. It keeps no records.

Sweeps run a cartesian grid of config overrides across seeds and aggregate
mean and standard deviation of the final loss per cell into a CSV. Every
cell's config is validated, and each distinct problem is built once, before
the first run starts; every run of the sweep reuses it. ``seed`` is not a
grid axis, since the sweep's own seeds set it. A cell failure (numeric
blow-up or a final loss beyond the divergence threshold) is recorded and the
sweep continues.

A sweep does its per-seed work once per ``sweep()`` call. It loops seeds
outside and cells inside; each seed's pass draws the minibatch index stream
once per (problem, problem_params) and keeps one companion time per
(problem, problem_params, iters). The companion runs interleaved with the
first cell of that key that has the cost ratio on and finishes without a
numeric failure; the later cells of the key divide by its time. Nothing
outlives the call, so a later sweep times its own companions.

The summary, the sweep CSV and the verify report are written atomically:
to a temporary file in the target directory, then renamed over the target.

The default output directory is ``$HESSOPT_OUT`` if set, else ``./runs``.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import inspect
import io
import itertools
import json
import math
import os
import statistics
import time
import typing
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .autodiff import NumericError
from .hutchinson import HutchinsonConfig, estimate_diag, probe_rng, should_compute
from .optim import OPTIMIZERS, _is_finite, make_optimizer, make_schedule, optimizer_names
from .problems import PROBLEM_BUILDERS, get_problem, problem_names

__all__ = [
    "ConfigError",
    "RunConfig",
    "TrajectoryRecord",
    "RunResult",
    "SweepCell",
    "default_out_dir",
    "make_out_dir",
    "run",
    "sweep",
    "load_trajectory",
    "summarize_trajectory",
    "write_atomic",
]

TRAJECTORY_SCHEMA = "hessopt-trajectory-1"
CONFIG_SCHEMA = "hessopt-run-1"
SNAPSHOT_MAX_DIM = 16
NAME_MAX = 255  # bytes in one file name on common file systems
# Keys of every trajectory record; ``theta`` is there only for small problems.
RECORD_KEYS = frozenset({"t", "loss", "grad_norm", "lr", "hessian_computed"})


class ConfigError(ValueError):
    """Invalid run configuration; reported before any computation starts."""


@dataclass
class RunConfig:
    """Flat description of a single run; fields mirror the CLI flags.

    ``problem_params`` and ``schedule_params`` pass through to the problem
    builder and schedule factory. ``loss_threshold`` feeds the
    iterations-to-threshold summary statistic; ``divergence_loss`` marks a
    finished run as diverged in sweeps when the final loss exceeds it.
    """

    problem: str = "fig1-quadratic"
    problem_params: dict = field(default_factory=dict)
    optimizer: str = "adahessian"
    lr: float = 0.1
    beta1: float = 0.9
    beta2: float = 0.999
    k: float = 1.0
    eps: float = 1e-8
    weight_decay: float = 0.0
    momentum: float = 0.9
    block_size: int = 1
    hessian_ema: bool = True
    samples: int = 1
    hessian_freq: int = 1
    warmup: int = 0
    schedule: str = "constant"
    schedule_params: dict = field(default_factory=dict)
    iters: int = 100
    seed: int = 0
    out: str | None = None
    run_name: str | None = None
    loss_threshold: float | None = None
    divergence_loss: float | None = None
    cost_ratio: bool = True

    def validate(self) -> "RunConfig":
        for name, allowed in _field_types().items():
            value = getattr(self, name)
            if not any(_has_type(value, tp) for tp in allowed):
                expected = " or ".join("null" if tp is type(None) else tp.__name__
                                       for tp in allowed)
                raise ConfigError(f"{name} must be {expected}, got {value!r}")
            if float in allowed and value is not None and not _is_finite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.problem not in problem_names():
            raise ConfigError(
                f"unknown problem {self.problem!r}; available: {', '.join(problem_names())}"
            )
        signature = inspect.signature(PROBLEM_BUILDERS[self.problem])
        try:
            signature.bind(**self.problem_params)
        except TypeError as exc:
            accepted = ", ".join(signature.parameters) or "none"
            raise ConfigError(
                f"invalid problem-params for {self.problem!r}: {exc}; accepted: {accepted}"
            ) from None
        if self.optimizer not in optimizer_names():
            raise ConfigError(
                f"unknown optimizer {self.optimizer!r}; available: {', '.join(optimizer_names())}"
            )
        if self.iters < 1:
            raise ConfigError("iters must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.hessian_freq < 1:
            raise ConfigError("hessian-freq must be >= 1")
        if self.warmup < 0:
            raise ConfigError("warmup must be >= 0")
        if self.samples < 1:
            raise ConfigError("samples must be >= 1")
        if self.block_size < 1:
            raise ConfigError("block-size must be >= 1")
        # the summary's temporary name is the longest one a run derives
        _check_file_name("run-name", self.default_run_name(), ".summary.json")
        try:
            make_optimizer(self.optimizer, 1, **_optimizer_args(self))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        try:
            make_schedule(self.schedule, **self.schedule_params)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid schedule: {exc}") from None
        return self

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        """Load a JSON config file (schema ``hessopt-run-1``)."""
        try:
            data = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        data.pop("schema", None)
        return cls().with_overrides(data)

    def with_overrides(self, overrides: dict) -> "RunConfig":
        known = {f.name for f in fields(self)}
        unknown = sorted(set(overrides) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        return replace(self, **overrides)

    def to_dict(self, include_out: bool = True) -> dict:
        data = {"schema": CONFIG_SCHEMA}
        for f in fields(self):
            if not include_out and f.name in ("out", "run_name"):
                continue
            data[f.name] = getattr(self, f.name)
        return data

    def default_run_name(self) -> str:
        return self.run_name or f"{self.problem}_{self.optimizer}_s{self.seed}"


@functools.cache
def _field_types() -> dict[str, tuple]:
    """Field name -> the types its annotation allows (``X | None`` allows both).

    Resolved on first use rather than at import: evaluating the string
    annotations costs about as much as the rest of the module's import.
    """
    return {name: typing.get_args(tp) or (tp,)
            for name, tp in typing.get_type_hints(RunConfig).items()}


@functools.cache
def _optimizer_fields(name: str) -> tuple[str, ...]:
    """The config fields that the optimizer's constructor takes, by name.

    ``block_size`` joins them where the constructor takes a block layout;
    ``make_optimizer`` turns it into one. Cached: the signature lookup costs
    more than the rest of a config check.
    """
    params = inspect.signature(OPTIMIZERS[name]).parameters
    names = [f.name for f in fields(RunConfig) if f.name in params]
    if "block_spec" in params:
        names.append("block_size")
    return tuple(names)


def _optimizer_args(config: RunConfig) -> dict:
    return {name: getattr(config, name) for name in _optimizer_fields(config.optimizer)}


def _has_type(value, tp) -> bool:
    """isinstance for config fields: an int passes as float, a bool never as a number."""
    if tp is type(None):
        return value is None
    if tp in (int, float) and isinstance(value, bool):
        return False
    if tp is float:
        return isinstance(value, (int, float))
    return isinstance(value, tp)


@dataclass
class TrajectoryRecord:
    """Per-iteration measurements at the pre-step parameter point."""

    t: int
    loss: float
    grad_norm: float
    lr: float
    hessian_computed: bool
    theta: list | None = None
    elapsed_s: float = 0.0  # kept in memory; never serialized to the trajectory

    def to_line_dict(self) -> dict:
        data = {"t": self.t, "loss": self.loss, "grad_norm": self.grad_norm,
                "lr": self.lr, "hessian_computed": self.hessian_computed}
        if self.theta is not None:
            data["theta"] = self.theta
        return data


@dataclass
class RunResult:
    config: RunConfig
    records: list[TrajectoryRecord]
    theta_final: np.ndarray
    summary: dict
    status: str  # "ok" or "numeric_failure"
    trajectory_path: Path | None = None
    summary_path: Path | None = None

    @property
    def final_loss(self) -> float:
        return self.summary["final_loss"]


@dataclass
class SweepCell:
    overrides: dict
    seeds: list[int]
    final_losses: list[float]
    diverged: int
    cost_ratios: list[float]

    def row(self) -> dict:
        finite = [x for x in self.final_losses if np.isfinite(x)]
        row = dict(self.overrides)
        row["n_seeds"] = len(self.seeds)
        row["diverged"] = self.diverged
        row["final_loss_mean"] = statistics.fmean(finite) if finite else float("nan")
        row["final_loss_std"] = (
            statistics.stdev(finite) if len(finite) > 1 else 0.0 if finite else float("nan")
        )
        if self.cost_ratios:
            row["cost_ratio_mean"] = statistics.fmean(self.cost_ratios)
        return row


def default_out_dir() -> Path:
    return Path(os.environ.get("HESSOPT_OUT", "runs"))


def make_out_dir(out: str | Path | None) -> Path:
    """The output directory (``out``, else the default), created before any
    compute, so that one that cannot be created is a ConfigError."""
    path = Path(out) if out else default_out_dir()
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {str(path)!r}: "
                          f"{exc.strerror or exc}") from None
    return path


def _check_file_name(flag: str, name: str, suffix: str = "") -> None:
    """Output files are named inside the output directory, never beside it, and
    ``write_atomic``'s temporary name for ``name + suffix`` fits in NAME_MAX bytes."""
    if name in ("", ".", "..") or "/" in name or os.sep in name or "\0" in name:
        raise ConfigError(f"{flag} must be a plain file name, got {name!r}")
    excess = len(os.fsencode(_temp_path(Path(name + suffix)).name)) - NAME_MAX
    if excess > 0:
        size = len(os.fsencode(name))
        raise ConfigError(f"{flag} must be a plain file name of at most "
                          f"{size - excess} bytes, got {size}")


def _temp_path(path: Path) -> Path:
    return path.with_name(f".{path.name}.{os.getpid()}.tmp")


def write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then rename it over ``path``.

    Readers see the old file or the whole new one, never a partial write.
    """
    tmp = _temp_path(path)
    try:
        with tmp.open("w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _dump_json_line(data: dict) -> str:
    # Fixed separators and sorted keys keep serialization byte-stable.
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _iter_seconds(records: list[TrajectoryRecord]) -> dict:
    """The summary's median, mean and amortized per-iteration seconds.

    All three skip the first 10 iterations, which pay for cold caches. The
    amortized time is robust to the mix of iterations: those that computed a
    curvature estimate cost more than ones that reused the last estimate, so
    a plain mean is dominated by scheduler noise while a plain median forgets
    the expensive class entirely once it is in the minority. Instead it takes
    the median within each class and weights it by how often the class occurs.
    """
    warm = records[10:] or records
    if not warm:
        return {"median_iter_seconds": 0.0, "mean_iter_seconds": 0.0,
                "amortized_iter_seconds": 0.0}
    times = [r.elapsed_s for r in warm]
    amortized = 0.0
    for computed in (True, False):
        group = [r.elapsed_s for r in warm if r.hessian_computed == computed]
        if group:
            amortized += statistics.median(group) * (len(group) / len(warm))
    return {"median_iter_seconds": statistics.median(times),
            "mean_iter_seconds": statistics.fmean(times),
            "amortized_iter_seconds": amortized}


class _SeedPass:
    """Per-seed work shared by every cell of one sweep pass over one seed.

    ``problems`` maps each (problem, problem_params) key to its problem, and
    so its recorded tapes, built before the sweep's first run and shared with
    the other passes. The pass draws each key's minibatch index stream once,
    read-only. ``companions`` maps (key, iters) to the gradient-descent
    companion time of the first run of that key that timed one and finished
    ok; ``run`` reads and fills it. One instance lives for one seed of one
    ``sweep()`` call.
    """

    def __init__(self, seed: int, problems: dict):
        self.seed = seed
        self._problems = problems
        self._streams: dict[str, list] = {}
        self.companions: dict[tuple[str, int], float] = {}

    @staticmethod
    def _key(config: RunConfig) -> str:
        return _dump_json_line({"problem": config.problem,
                                "params": config.problem_params})

    def problem(self, config: RunConfig):
        return self._problems[self._key(config)]

    def batches(self, config: RunConfig, problem) -> list:
        """The stream's batches for t = 1..config.iters, at index t - 1."""
        stream = self._streams.setdefault(self._key(config), [])
        for t in range(len(stream) + 1, config.iters + 1):
            batch = problem.sample_batch(t, self.seed)
            if batch is not None:
                batch.flags.writeable = False
            stream.append(batch)
        return stream


def _build_problem(config: RunConfig):
    """The config's problem; a builder's TypeError or ValueError is a ConfigError."""
    try:
        return get_problem(config.problem, **config.problem_params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid problem-params for {config.problem!r}: {exc}") from None


def _iterate(problem, opt, schedule, hcfg, theta, batch, t: int) -> tuple:
    """One timed iteration: the tape, with a Hutchinson estimate if ``hcfg`` is
    due at ``t``, then the step. Returns the new theta, the loss and gradient at
    the old one, the schedule's factor, whether it estimated, and its seconds."""
    start = time.perf_counter()
    lr_factor = schedule(t)
    # Only an iteration with a fresh estimate probes the Hessian; the rest
    # take the gradient alone, and AdaHessian reuses its last estimate.
    computed = hcfg is not None and should_compute(t, hcfg)
    if computed:
        loss, g, hvp_fn = problem.full_tape(theta, batch)
        est = estimate_diag(problem, theta, batch, hcfg, probe_rng(hcfg.seed, t),
                            iteration=t, hvp=hvp_fn)
        theta = opt.step(theta, g, Ds=opt.average_diagonal(est.values), lr_factor=lr_factor)
    else:
        loss, g = problem.value_and_gradient(theta, batch)
        theta = opt.step(theta, g, lr_factor=lr_factor)
    return theta, loss, g, lr_factor, computed, time.perf_counter() - start


def run(config: RunConfig, write_files: bool = True, *,
        _shared: _SeedPass | None = None) -> RunResult:
    """Execute one configured run; optionally write trajectory and summary.

    Raises ConfigError for invalid configs, and for problem parameters the
    problem builder rejects, before any compute. A numeric failure mid-run
    preserves all records up to the failing iteration, writes them out, and
    returns with ``status="numeric_failure"`` and the summary's ``failure``
    reading ``iteration <t>, <phase>: <message>``. With ``cost_ratio`` on,
    the gradient-descent companion (SGD with lr 1e-9, momentum 0.9, constant
    schedule, no weight decay) runs one ``_iterate`` before each of the run's.
    ``_shared`` is internal to ``sweep``: the run reads its problem and batches
    from the seed pass, and its companion time once a run has stored one.
    """
    config.validate()
    if _shared is not None:
        problem = _shared.problem(config)
        batches = _shared.batches(config, problem)[:config.iters]
    else:
        problem = _build_problem(config)
        batches = (problem.sample_batch(t, config.seed) for t in range(1, config.iters + 1))
    opt = make_optimizer(config.optimizer, problem.dim, group_sizes=problem.group_sizes,
                         **_optimizer_args(config))
    schedule = make_schedule(config.schedule, **config.schedule_params)
    hcfg = (HutchinsonConfig(samples_per_estimate=config.samples,
                             frequency=config.hessian_freq,
                             warmup_steps=config.warmup, seed=config.seed)
            if config.optimizer == "adahessian" else None)
    companion_key = (_SeedPass._key(config), config.iters)
    sgd_time = _shared.companions.get(companion_key) if _shared is not None else None
    sgd = None
    if config.cost_ratio and sgd_time is None:
        # Its tiny learning rate keeps its iterates ordinary; only its time is used.
        sgd = make_optimizer("sgd", problem.dim, group_sizes=problem.group_sizes,
                             lr=1e-9, momentum=0.9)
        sgd_schedule, sgd_theta, sgd_seconds = make_schedule("constant"), problem.theta0, []

    theta = problem.theta0.copy()
    snapshot = problem.dim <= SNAPSHOT_MAX_DIM
    records: list[TrajectoryRecord] = []
    status = "ok"
    failure_detail = None
    traj_path = summary_path = traj_file = None
    if write_files:
        out_dir = make_out_dir(config.out)
        name = config.default_run_name()
        traj_path = out_dir / f"{name}.trajectory.jsonl"
        summary_path = out_dir / f"{name}.summary.json"
        traj_file = traj_path.open("w")
        header = {"schema": TRAJECTORY_SCHEMA,
                  "config": config.to_dict(include_out=False)}
        traj_file.write(_dump_json_line(header) + "\n")

    try:
        for t, batch in enumerate(batches, start=1):
            try:
                if sgd is not None:
                    sgd_theta, *_, seconds = _iterate(problem, sgd, sgd_schedule, None,
                                                      sgd_theta, batch, t)
                    sgd_seconds.append(seconds)
                theta, loss, g, lr_factor, computed, elapsed = _iterate(
                    problem, opt, schedule, hcfg, theta, batch, t)
            except NumericError as exc:
                status = "numeric_failure"
                failure_detail = f"iteration {t}, {exc.phase}: {exc}"
                break
            record = TrajectoryRecord(
                t=t,
                loss=float(loss),
                grad_norm=math.sqrt(g.dot(g)),
                lr=float(config.lr * lr_factor),
                hessian_computed=bool(computed),
                theta=theta.tolist() if snapshot else None,
                elapsed_s=elapsed,
            )
            records.append(record)
            if traj_file is not None:
                traj_file.write(_dump_json_line(record.to_line_dict()) + "\n")
    finally:
        if traj_file is not None:
            traj_file.close()

    final_loss = float("inf")
    if status == "ok":
        with contextlib.suppress(NumericError):
            final_loss = problem.value(theta)
    threshold = config.loss_threshold
    iters_to_threshold = next((r.t for r in records
                               if threshold is not None and r.loss <= threshold), None)

    summary = {
        "schema": "hessopt-summary-1",
        "status": status,
        "problem": config.problem,
        "optimizer": config.optimizer,
        "seed": config.seed,
        "iterations_run": len(records),
        "final_loss": float(final_loss),
        "final_grad_norm": records[-1].grad_norm if records else None,
        "best_recorded_loss": min((r.loss for r in records), default=None),
        "iterations_to_threshold": iters_to_threshold,
        "hessian_estimates_computed": sum(r.hessian_computed for r in records),
        **_iter_seconds(records),
    }
    if failure_detail:
        summary["failure"] = failure_detail
    if config.cost_ratio and status == "ok":
        if sgd_time is None:
            sgd_time = statistics.median(sgd_seconds[10:] or sgd_seconds)
            if _shared is not None:
                _shared.companions[companion_key] = sgd_time
        if sgd_time > 0:
            summary["sgd_median_iter_seconds"] = sgd_time
            summary["cost_ratio_vs_sgd"] = summary["amortized_iter_seconds"] / sgd_time

    if summary_path is not None:
        write_atomic(summary_path, json.dumps(summary, sort_keys=True, indent=2) + "\n")

    return RunResult(config=config, records=records, theta_final=theta,
                     summary=summary, status=status,
                     trajectory_path=traj_path, summary_path=summary_path)


def _is_diverged(config: RunConfig, result: RunResult) -> bool:
    if result.status != "ok" or not np.isfinite(result.final_loss):
        return True
    limit = config.divergence_loss
    return limit is not None and result.final_loss > limit


def sweep(base: RunConfig, axes: dict[str, list], seeds: list[int],
          out: str | Path | None = None,
          csv_name: str = "sweep.csv") -> tuple[list[SweepCell], Path]:
    """Cartesian grid of config overrides, each cell repeated across seeds.

    Returns the per-cell aggregates and the CSV path (``out``, else the base
    config's output directory, else the default). Every cell's config and
    ``csv_name`` are checked, each distinct problem built and the output
    directory made before any run starts; a ``seed`` axis is refused.
    Individual cell failures are counted as diverged; the sweep always
    completes. Seeds loop outside and cells inside, sharing one ``_SeedPass``
    per seed; every run of the sweep reuses the problems built for
    validation, and so their tapes.
    """
    base.validate()
    _check_file_name("csv-name", csv_name)
    if not seeds:
        raise ConfigError("sweep needs at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"sweep seeds must be distinct, got {seeds}")
    if "seed" in axes:
        raise ConfigError("seed cannot be a sweep axis: every cell runs each of the "
                          "sweep's seeds (--seeds)")
    for axis in axes:
        if axis not in {f.name for f in fields(base)}:
            raise ConfigError(f"unknown sweep axis {axis!r}")
        if not axes[axis]:
            raise ConfigError(f"sweep axis {axis!r} has no values")
    axis_names = sorted(axes)
    grid = [dict(zip(axis_names, combo))
            for combo in itertools.product(*(axes[a] for a in axis_names))]
    configs = [[base.with_overrides({**overrides, "seed": seed}).validate()
                for seed in seeds] for overrides in grid]
    problems = {key: _build_problem(cfg)
                for key, cfg in {_SeedPass._key(c[0]): c[0] for c in configs}.items()}
    cells = [SweepCell(overrides=overrides, seeds=list(seeds), final_losses=[],
                       diverged=0, cost_ratios=[]) for overrides in grid]
    csv_path = make_out_dir(base.out if out is None else out) / csv_name
    for i, seed in enumerate(seeds):
        shared = _SeedPass(seed, problems)
        for cell, cell_configs in zip(cells, configs):
            cfg = cell_configs[i]
            result = run(cfg, write_files=False, _shared=shared)
            if _is_diverged(cfg, result):
                cell.diverged += 1
            cell.final_losses.append(result.final_loss)
            ratio = result.summary.get("cost_ratio_vs_sgd")
            if ratio is not None:
                cell.cost_ratios.append(ratio)

    rows = [cell.row() for cell in cells]
    # a row lacks cost_ratio_mean when none of its runs has a ratio
    fieldnames = list(dict.fromkeys(key for row in rows for key in row))
    text = io.StringIO(newline="")
    writer = csv.DictWriter(text, fieldnames=fieldnames)
    writer.writeheader()
    writer.writerows(rows)
    write_atomic(csv_path, text.getvalue())
    return cells, csv_path


def load_trajectory(path: str | Path) -> tuple[dict, list[dict]]:
    """Read a trajectory file back into (header, records)."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"empty trajectory file: {path}")
    header = json.loads(lines[0])
    if not isinstance(header, dict) or header.get("schema") != TRAJECTORY_SCHEMA:
        raise ValueError(f"unrecognized trajectory schema in {path}")
    records = [json.loads(line) for line in lines[1:]]
    for number, record in enumerate(records, start=2):
        if not isinstance(record, dict) or not RECORD_KEYS <= record.keys():
            raise ValueError(f"line {number} of {path} is not a record with the keys "
                             f"{', '.join(sorted(RECORD_KEYS))}")
    return header, records


def summarize_trajectory(path: str | Path) -> dict:
    """Recompute summary statistics from a trajectory file alone."""
    header, records = load_trajectory(path)
    if not records:
        return {"iterations_run": 0, "config": header.get("config", {})}
    losses = [r["loss"] for r in records]
    return {
        "config": header.get("config", {}),
        "iterations_run": len(records),
        "first_loss": losses[0],
        "last_recorded_loss": losses[-1],
        "best_recorded_loss": min(losses),
        "final_grad_norm": records[-1]["grad_norm"],
        "hessian_estimates_computed": sum(r["hessian_computed"] for r in records),
    }
