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
outside and cells inside; each seed's pass draws, before its first run, one
minibatch stream per (problem, problem_params) and one probe-key stream, both
indexed by t and as long as the sweep's longest run, and keeps one companion
time per (problem, problem_params, iters). The companion runs interleaved with
the first cell of that key that has the cost ratio on and finishes without a
numeric failure; the later cells of the key divide by its time. Nothing
outlives the call, so a later sweep times its own companions.

An AdaHessian run decides before its loop which iterations estimate
(``should_compute``) and makes one probe pass over those iterations' keys
(``hutchinson.probe_pass``). An estimate of at most 65,536 entries takes its
iteration's rows of a chunk of estimates drawn at once into one buffer, each
chunk as the loop reaches it; a larger one reads its iteration's Generator
in blocks of at most that many entries. So no run holds more than one chunk
or one block of probes.

Every output (the trajectory, the summary, the sweep CSV and the verify
report) is written once, atomically: to a temporary file in the target
directory, then renamed over the target. A run that is interrupted leaves
no file of its own behind.

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
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .autodiff import NumericError
from .hutchinson import HutchinsonConfig, estimate_diag, probe_keys, probe_pass, should_compute
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
    "read_text",
    "json_object",
    "field_types",
    "write_atomic",
]

TRAJECTORY_SCHEMA = "hessopt-trajectory-1"
CONFIG_SCHEMA = "hessopt-run-1"
SNAPSHOT_MAX_DIM = 16
NAME_MAX = 255  # bytes in one file name on common file systems
MAX_COUNT = 1_000_000  # the most iterations a run takes, and probes an estimate averages


class ConfigError(ValueError):
    """Invalid run configuration; reported before any computation starts."""


@dataclass
class RunConfig:
    """Flat description of a single run. Its fields are the run settings: the
    CLI builds one ``run``/``sweep`` flag per field, read as the field's type,
    with its ``metadata["help"]`` as the flag's help.

    ``problem_params`` and ``schedule_params`` pass through to the problem
    builder and schedule factory. ``loss_threshold`` feeds the
    iterations-to-threshold summary statistic; ``divergence_loss`` marks a
    finished run as diverged in sweeps when the final loss exceeds it.
    """

    problem: str = field(default="fig1-quadratic", metadata={"help": "problem registry name"})
    problem_params: dict = field(default_factory=dict, metadata={
        "help": "JSON object of problem builder arguments"})
    optimizer: str = field(default="adahessian", metadata={"help": "optimizer registry name"})
    lr: float = field(default=0.1, metadata={"help": "base learning rate"})
    beta1: float = field(default=0.9, metadata={"help": "first-moment decay"})
    beta2: float = field(default=0.999, metadata={"help": "second-moment / curvature decay"})
    k: float = field(default=1.0, metadata={"help": "Hessian power in [0, 1]"})
    eps: float = field(default=1e-8, metadata={"help": "denominator guard"})
    weight_decay: float = field(default=0.0, metadata={"help": "weight decay coefficient"})
    momentum: float = field(default=0.9, metadata={"help": "gradient-descent momentum"})
    block_size: int = field(default=1, metadata={"help": "spatial-averaging block size"})
    hessian_ema: bool = field(default=True, metadata={
        "help": "precondition with |current estimate| instead of its moving average"})
    samples: int = field(default=1, metadata={"help": "Hutchinson probes per estimate"})
    hessian_freq: int = field(default=1, metadata={"help": "iterations between diagonal estimates"})
    warmup: int = field(default=0, metadata={
        "help": "iterations of every-step estimation at the start"})
    schedule: str = field(default="constant", metadata={"help": "learning-rate schedule kind"})
    schedule_params: dict = field(default_factory=dict, metadata={
        "help": "JSON object of schedule parameters"})
    iters: int = field(default=100, metadata={"help": "iterations to run"})
    seed: int = field(default=0, metadata={"help": "run seed"})
    out: str | None = field(default=None, metadata={"help": "output directory"})
    run_name: str | None = field(default=None, metadata={"help": "basename for output files"})
    loss_threshold: float | None = field(default=None, metadata={
        "help": "loss level for the iterations-to-threshold statistic"})
    divergence_loss: float | None = field(default=None, metadata={
        "help": "final loss above this counts as diverged in sweeps"})
    cost_ratio: bool = field(default=True, metadata={
        "help": "skip the gradient-descent timing companion"})

    def validate(self) -> "RunConfig":
        _check_fields(RunConfig, vars(self))
        for name in ("problem_params", "schedule_params"):  # the trajectory header holds both
            try:
                _dump_json_line(getattr(self, name))
            except (TypeError, ValueError) as exc:  # a value JSON cannot hold, or a cycle
                raise ConfigError(f"{name} must hold JSON values only: {exc}") from None
        for name, (allowed, _) in field_types(RunConfig).items():
            value = getattr(self, name)
            if float in allowed and value is not None and not _is_finite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.problem not in problem_names():
            raise ConfigError(
                f"unknown problem {self.problem!r}; available: {', '.join(problem_names())}"
            )
        signature = _problem_signature(self.problem)
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
        # A run holds every iteration's batch and probe key before its loop.
        for name, least, most in (("iters", 1, MAX_COUNT), ("seed", 0, None),
                                  ("hessian_freq", 1, None), ("warmup", 0, None),
                                  ("samples", 1, MAX_COUNT), ("block_size", 1, None)):
            value = getattr(self, name)
            if value < least:
                raise ConfigError(f"{name.replace('_', '-')} must be >= {least}, got {value}")
            if most is not None and value > most:
                raise ConfigError(f"{name.replace('_', '-')} must be <= {most}, got {value}")
        # the trajectory's temporary name is the longest one a run derives
        _check_file_name("run-name", self.default_run_name(), ".trajectory.jsonl")
        try:
            make_optimizer(self.optimizer, 1, **_optimizer_args(self))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        try:
            make_schedule(self.schedule, **self.schedule_params)
        except KeyError as exc:  # its str() is the repr of its message
            raise ConfigError(f"invalid schedule: {exc.args[0]}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid schedule: {exc}") from None
        return self

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        """Load a JSON config file (schema ``hessopt-run-1``): a JSON object, or
        a ConfigError. ``validate`` then checks it field by field."""
        data = json_object(read_text(path, "config file"), "config file")
        data.pop("schema", None)
        return cls().with_overrides(data)

    def with_overrides(self, overrides: dict) -> "RunConfig":
        known = {f.name for f in fields(self)}
        unknown = sorted(set(overrides) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(map(repr, unknown))}")
        return replace(self, **overrides)

    def to_dict(self) -> dict:
        """The config as a trajectory header keeps it: without where it writes."""
        data = {"schema": CONFIG_SCHEMA}
        for f in fields(self):
            if f.name not in ("out", "run_name"):
                data[f.name] = getattr(self, f.name)
        return data

    def default_run_name(self) -> str:
        return self.run_name or f"{self.problem}_{self.optimizer}_s{self.seed}"


def read_text(path: str | Path, what: str) -> str:
    """The text of the file ``path``, which the messages call ``what``. A file
    that is missing, cannot be read or is not UTF-8 is a ConfigError."""
    try:
        return Path(path).read_text()
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}") from None
    except OSError as exc:  # a directory, or a file that cannot be read
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} {path} is not text: {exc}") from None


def json_object(text: str, what: str) -> dict:
    """``text`` decoded as one JSON object. Text that is not JSON, nests too
    deep to decode, or holds another value is a ConfigError naming ``what``."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an int of too many digits
        raise ConfigError(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{what}: expected a JSON object")
    return data


@functools.cache
def field_types(cls) -> dict[str, tuple[tuple, bool]]:
    """Field name -> the types its annotation allows (``X | None`` allows both),
    and whether the dataclass ``cls`` requires it (it has no default).

    Resolved on first use rather than at import: evaluating the string
    annotations costs about as much as the rest of the module's import.
    """
    hints = typing.get_type_hints(cls)
    return {f.name: (typing.get_args(hints[f.name]) or (hints[f.name],),
                     f.default is MISSING and f.default_factory is MISSING)
            for f in fields(cls)}


def _check_fields(cls, data: dict, where: str = "") -> None:
    """Check ``data``'s fields against the dataclass ``cls``: each one without a
    default is there, and each has a type its annotation allows, or a
    ConfigError prefixed by ``where`` names it. Other keys are left alone."""
    for name, (allowed, required) in field_types(cls).items():
        if name not in data:
            if required:
                raise ConfigError(f"{where}{name} is missing")
        elif not any(_has_type(data[name], tp) for tp in allowed):
            expected = " or ".join("null" if tp is type(None) else tp.__name__
                                   for tp in allowed)
            raise ConfigError(f"{where}{name} must be {expected}, got {data[name]!r}")


@functools.cache
def _problem_signature(name: str) -> inspect.Signature:
    """The problem builder's signature, which ``validate`` binds
    ``problem_params`` to. Cached, as ``_optimizer_fields`` is."""
    return inspect.signature(PROBLEM_BUILDERS[name])


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
    """isinstance for dataclass fields: an int that a float can hold passes as
    float, a bool never as a number."""
    if isinstance(value, bool):
        return tp is bool
    if tp is float:
        return isinstance(value, float) or isinstance(value, int) and _is_finite(value)
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
    except (OSError, UnicodeEncodeError) as exc:  # also a surrogate no path can hold
        raise ConfigError(f"cannot create output directory {str(path)!r}: "
                          f"{getattr(exc, 'strerror', None) or exc}") from None
    return path


def _check_file_name(flag: str, name: str, suffix: str = "") -> None:
    """Output files are named inside the output directory, never beside it, and
    ``write_atomic``'s temporary name for ``name + suffix`` fits in NAME_MAX bytes."""
    try:
        size = len(os.fsencode(name))
    except UnicodeEncodeError:  # a surrogate that no file name can hold
        size = None
    if size is None or name in ("", ".", "..") or "/" in name or os.sep in name or "\0" in name:
        raise ConfigError(f"{flag} must be a plain file name, got {name!r}")
    excess = len(os.fsencode(_temp_path(Path(name + suffix)).name)) - NAME_MAX
    if excess > 0:
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


# Fixed separators and sorted keys keep serialization byte-stable.
_dump_json_line = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


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
    """Per-seed work shared by every run of one sweep pass over one seed.

    ``problems`` maps each (problem, problem_params) key to its problem, and
    so its recorded tapes, built before the sweep's first run and shared with
    the other passes. The constructor draws, read-only and at row t - 1 for
    t = 1 to the longest of ``configs``' iters, each key's ``batches`` (None
    rows if full-batch) and, if a config uses AdaHessian, the seed's ``keys``.
    ``companions`` maps (key, iters) to the gradient-descent companion time of
    the first run of that key that timed one and finished ok; ``run`` reads
    and fills it. One instance lives for one seed of one ``sweep()`` call, or
    for one standalone ``run()``.
    """

    def __init__(self, seed: int, problems: dict, configs: list[RunConfig]):
        self.problems = problems
        ts = np.arange(1, max(config.iters for config in configs) + 1)
        self.batches = {}
        for key, problem in problems.items():
            drawn = problem.sample_batches(ts, seed)
            if drawn is not None:
                drawn.flags.writeable = False
            self.batches[key] = [None] * len(ts) if drawn is None else drawn
        self.keys = None
        if any(config.optimizer == "adahessian" for config in configs):
            self.keys = probe_keys(seed, ts)
            self.keys.flags.writeable = False
        self.companions: dict[tuple[str, int], float] = {}

    @staticmethod
    def _key(config: RunConfig) -> str:
        return _dump_json_line({"problem": config.problem,
                                "params": config.problem_params})


def _build_problem(config: RunConfig):
    """The config's problem; a builder's TypeError or ValueError is a ConfigError."""
    try:
        return get_problem(config.problem, **config.problem_params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid problem-params for {config.problem!r}: {exc}") from None


def _iterate(problem, opt, schedule, probes, theta, batch, t: int) -> tuple:
    """One timed iteration: the tape, with a Hutchinson estimate if ``probes``
    is due at ``t``, then the step. ``probes`` is None, or a Hutchinson config,
    whether each iteration estimates (at index t - 1), and the run's
    ``probe_pass`` over the iterations that do. Returns the new theta, the
    loss and gradient at the old one, the schedule's factor, whether it
    estimated, and its seconds."""
    start = time.perf_counter()
    lr_factor = schedule(t)
    # Only an iteration with a fresh estimate probes the Hessian; the rest
    # take the gradient alone, and AdaHessian reuses its last estimate.
    computed = probes is not None and probes[1][t - 1]
    if computed:
        hcfg, _, drawn = probes
        loss, g, hvp_fn = problem.full_tape(theta, batch)
        est = estimate_diag(problem, theta, batch, hcfg, next(drawn), hvp=hvp_fn)
        theta = opt.step(theta, g, Ds=opt.average_diagonal(est.values), lr_factor=lr_factor)
    else:
        loss, g = problem.value_and_gradient(theta, batch)
        theta = opt.step(theta, g, lr_factor=lr_factor)
    return theta, loss, g, lr_factor, computed, time.perf_counter() - start


def run(config: RunConfig, write_files: bool = True, *,
        _shared: _SeedPass | None = None) -> RunResult:
    """Execute one configured run; optionally write trajectory and summary.

    Raises ConfigError for invalid configs, for problem parameters the problem
    builder rejects, and for an output directory that cannot be made, before
    any compute. Both files are written atomically after the loop, so an
    interrupted run writes neither. A numeric failure mid-run preserves all
    records up to the failing iteration, writes them out, and returns with
    ``status="numeric_failure"`` and the summary's ``failure`` reading
    ``iteration <t>, <phase>: <message>``. With ``cost_ratio`` on,
    the gradient-descent companion (SGD with lr 1e-9, momentum 0.9, constant
    schedule, no weight decay) runs one ``_iterate`` before each of the run's.
    It reads its problem, batches, probe keys and companion time (once stored)
    from a seed pass: ``_shared``, internal to ``sweep``, which has validated
    the config, or one of its own, built after ``validate``; the probes of the
    iterations that estimate come from one ``probe_pass`` over their keys.
    """
    if _shared is None:
        problems = {_SeedPass._key(config.validate()): _build_problem(config)}
        _shared = _SeedPass(config.seed, problems, [config])
    key = _SeedPass._key(config)
    problem = _shared.problems[key]
    batches = _shared.batches[key][:config.iters]
    opt = make_optimizer(config.optimizer, problem.dim, group_sizes=problem.group_sizes,
                         **_optimizer_args(config))
    schedule = make_schedule(config.schedule, **config.schedule_params)
    probes = None
    if config.optimizer == "adahessian":
        hcfg = HutchinsonConfig(samples_per_estimate=config.samples,
                                frequency=config.hessian_freq, warmup_steps=config.warmup)
        due = [should_compute(t, hcfg) for t in range(1, config.iters + 1)]
        probes = (hcfg, due, probe_pass(_shared.keys[:config.iters][np.array(due)],
                                        config.samples, problem.dim))
    companion_key = (key, config.iters)
    sgd_time = _shared.companions.get(companion_key)
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
    traj_path = summary_path = None
    if write_files:
        out_dir = make_out_dir(config.out)
        name = config.default_run_name()
        traj_path = out_dir / f"{name}.trajectory.jsonl"
        summary_path = out_dir / f"{name}.summary.json"

    for t, batch in enumerate(batches, start=1):
        try:
            if sgd is not None:
                sgd_theta, *_, seconds = _iterate(problem, sgd, sgd_schedule, None,
                                                  sgd_theta, batch, t)
                sgd_seconds.append(seconds)
            theta, loss, g, lr_factor, computed, elapsed = _iterate(
                problem, opt, schedule, probes, theta, batch, t)
        except NumericError as exc:
            status = "numeric_failure"
            failure_detail = f"iteration {t}, {exc.phase}: {exc}"
            break
        records.append(TrajectoryRecord(
            t=t,
            loss=float(loss),
            grad_norm=math.sqrt(g.dot(g)),
            lr=float(config.lr * lr_factor),
            hessian_computed=bool(computed),
            theta=theta.tolist() if snapshot else None,
            elapsed_s=elapsed,
        ))

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
            _shared.companions[companion_key] = sgd_time
        if sgd_time > 0:
            summary["sgd_median_iter_seconds"] = sgd_time
            summary["cost_ratio_vs_sgd"] = summary["amortized_iter_seconds"] / sgd_time

    if write_files:
        header = {"schema": TRAJECTORY_SCHEMA, "config": config.to_dict()}
        write_atomic(traj_path, "".join(_dump_json_line(line) + "\n" for line in
                                        [header, *(r.to_line_dict() for r in records)]))
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
    per seed, drawn before the seed's first run; every run reuses the problems
    built for validation, and so their tapes, and validates nothing again.
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
                for overrides in grid] for seed in seeds]
    problems = {key: _build_problem(cfg)
                for key, cfg in {_SeedPass._key(c): c for c in configs[0]}.items()}
    cells = [SweepCell(overrides=overrides, seeds=list(seeds), final_losses=[],
                       diverged=0, cost_ratios=[]) for overrides in grid]
    csv_path = make_out_dir(base.out if out is None else out) / csv_name
    for seed, seed_configs in zip(seeds, configs):
        shared = _SeedPass(seed, problems, seed_configs)
        for cell, cfg in zip(cells, seed_configs):
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
    """Read a trajectory file back into (header, records), checked field by
    field: the header's schema, its config a JSON object, and each record's
    fields against ``TrajectoryRecord``'s annotations. A file that fails is a
    ConfigError naming the line and the field."""
    lines = read_text(path, "trajectory file").splitlines()
    if not lines:
        raise ConfigError(f"empty trajectory file: {path}")
    header = json_object(lines[0], f"line 1 of {path}")
    if header.get("schema") != TRAJECTORY_SCHEMA:
        raise ConfigError(f"unrecognized trajectory schema in {path}")
    if not isinstance(header.get("config", {}), dict):
        raise ConfigError(f"line 1 of {path}: config: expected a JSON object")
    records = []
    for number, line in enumerate(lines[1:], start=2):
        records.append(json_object(line, f"line {number} of {path}"))
        _check_fields(TrajectoryRecord, records[-1], f"line {number} of {path}: ")
    return header, records


def summarize_trajectory(records: list[dict]) -> dict:
    """Recompute summary statistics from the records ``load_trajectory`` reads."""
    if not records:
        return {"iterations_run": 0}
    losses = [r["loss"] for r in records]
    return {
        "iterations_run": len(records),
        "first_loss": losses[0],
        "last_recorded_loss": losses[-1],
        "best_recorded_loss": min(losses),
        "final_grad_norm": records[-1]["grad_norm"],
        "hessian_estimates_computed": sum(r["hessian_computed"] for r in records),
    }
