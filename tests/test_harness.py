"""Tests for the run/sweep harness: configs, trajectories, failure paths."""

import csv
import inspect
import itertools
import json
import math
import typing
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hessopt import harness, hutchinson
from hessopt.harness import (
    ConfigError,
    RunConfig,
    default_out_dir,
    load_trajectory,
    run,
    summarize_trajectory,
    sweep,
)
from hessopt.hutchinson import HutchinsonConfig, probe_keys, rademacher, should_compute
from hessopt.optim import OPTIMIZERS, SGD, AdaHessian, Schedule
from hessopt.problems import LogisticRegression, get_problem


def quick_config(tmp_path, **overrides):
    base = dict(problem="fig1-quadratic", optimizer="adahessian", lr=0.1,
                iters=5, seed=0, out=str(tmp_path), cost_ratio=False)
    base.update(overrides)
    return RunConfig(**base)


# Config values as JSON or a Python caller could give them: nested None, bool,
# int, float (NaN and +-inf included), str, list and dict.
_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=4,
)
_SCHEDULE_PARAMS = {"constant": (), "step_decay": ("milestones", "factor"),
                    "linear_warmup_then_decay": ("warmup_steps", "total_steps")}


@st.composite
def _overrides(draw):
    """A dict of RunConfig fields, with schedule parameters named for some schedule."""
    overrides = draw(st.dictionaries(st.sampled_from([f.name for f in fields(RunConfig)]),
                                     _VALUES, max_size=5))
    if draw(st.booleans()):
        kind = draw(st.sampled_from(sorted(_SCHEDULE_PARAMS)))
        value = _VALUES | st.lists(st.integers() | st.floats(), max_size=3)
        overrides["schedule"] = kind
        overrides["schedule_params"] = draw(st.fixed_dictionaries(
            {}, optional={name: value for name in _SCHEDULE_PARAMS[kind]}))
    return overrides


class TestRunConfig:
    def test_defaults_validate(self):
        RunConfig().validate()

    @settings(max_examples=100, deadline=None)
    @given(_overrides())
    @example({"weight_decay": float("nan")})
    @example({"lr": float("inf")})
    @example({"lr": 10**400})
    @example({"divergence_loss": float("nan")})  # no constructor checks this one
    @example({"schedule": "step_decay", "schedule_params": {"milestones": [float("inf")]}})
    def test_random_overrides_validate_or_raise_config_error(self, overrides):
        try:
            config = RunConfig().with_overrides(overrides).validate()
        except ConfigError:
            return
        for name, tp in typing.get_type_hints(RunConfig).items():
            value = getattr(config, name)
            if float in (typing.get_args(tp) or (tp,)) and value is not None:
                assert math.isfinite(value), (name, value)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"problem": "rosenbrock"},
            {"optimizer": "newton"},
            {"lr": 0.0},
            {"lr": -1.0},
            {"iters": 0},
            {"hessian_freq": 0},
            {"warmup": -1},
            {"samples": 0},
            {"block_size": 0},
            {"k": 2.0},
            {"schedule": "cosine"},
            {"schedule": "step_decay", "schedule_params": {"milestones": [0]}},
            {"lr": "0.1"},
            {"lr": True},
            {"iters": 1.5},
            {"seed": None},
            {"hessian_ema": 1},
            {"problem_params": None},
            {"out": 3},
            {"problem": "logreg", "problem_params": {"bogus": 1}},
            {"problem": "fig1-quadratic", "problem_params": {"d": 2}},
        ],
    )
    def test_invalid_fields_raise_config_error(self, overrides):
        with pytest.raises(ConfigError):
            RunConfig(**overrides).validate()

    def test_counts_are_bounded_above(self):
        # A run holds every iteration's batch and probe key before its loop.
        RunConfig(iters=harness.MAX_COUNT, samples=harness.MAX_COUNT).validate()
        for name in ("iters", "samples"):
            with pytest.raises(ConfigError, match=f"^{name} must be <= 1000000, got 1000001$"):
                RunConfig(**{name: 10**6 + 1}).validate()

    def test_type_check_follows_annotations(self):
        RunConfig(lr=1, loss_threshold=2, divergence_loss=None, out=None).validate()
        with pytest.raises(ConfigError, match="lr must be float, got '0.1'"):
            RunConfig(lr="0.1").validate()
        with pytest.raises(ConfigError, match="loss_threshold must be float or null"):
            RunConfig(loss_threshold="low").validate()

    def test_problem_params_error_names_bad_and_accepted_keys(self):
        RunConfig(problem="logreg", problem_params={"batch_size": 32, "n": 50}).validate()
        with pytest.raises(ConfigError, match="'bogus'.*accepted: n, p, seed, batch_size"):
            RunConfig(problem="logreg", problem_params={"bogus": 1}).validate()

    @pytest.mark.parametrize("overrides,name", [
        ({"problem": "logreg", "problem_params": {"n": np.int64(300)}}, "problem_params"),
        ({"problem": "tiny-mlp", "problem_params": {"layers": [np.int64(5), 8, 1]}},
         "problem_params"),
        ({"schedule": "step_decay", "schedule_params": {"milestones": [np.int64(3)]}},
         "schedule_params"),
    ], ids=["problem-param", "nested-problem-param", "schedule-param"])
    def test_params_json_cannot_hold_are_a_config_error(self, tmp_path, overrides, name):
        # Both dicts are written to the trajectory header, so a run checks them first.
        with pytest.raises(ConfigError, match=f"^{name} must hold JSON values only: "):
            run(quick_config(tmp_path, **overrides))
        assert list(tmp_path.iterdir()) == []

    def test_every_optimizer_parameter_is_a_config_field(self):
        # run() passes an optimizer the config fields its constructor names, so a
        # constructor parameter without a field would silently keep its default.
        config_fields = {f.name for f in fields(RunConfig)}
        for name, cls in OPTIMIZERS.items():
            params = set(inspect.signature(cls).parameters) - {"dim", "block_spec"}
            assert params <= config_fields, (name, params - config_fields)

    def test_optimizer_receives_its_config_fields(self, tmp_path, monkeypatch):
        built = []
        original = harness.make_optimizer

        def recording(kind, dim, group_sizes=None, **hyper):
            built.append((kind, dim, hyper))
            return original(kind, dim, group_sizes=group_sizes, **hyper)

        monkeypatch.setattr(harness, "make_optimizer", recording)
        run(quick_config(tmp_path, optimizer="sgd", momentum=0.5, weight_decay=0.25,
                         iters=1), write_files=False)
        run(quick_config(tmp_path, k=0.5, block_size=2, hessian_ema=False, iters=1),
            write_files=False)
        # validate() builds each optimizer at dim 1 before run() builds it for real
        assert [(kind, hyper) for kind, dim, hyper in built if dim > 1] == [
            ("sgd", {"lr": 0.1, "momentum": 0.5, "weight_decay": 0.25}),
            ("adahessian", {"lr": 0.1, "beta1": 0.9, "beta2": 0.999, "k": 0.5, "eps": 1e-8,
                            "weight_decay": 0.0, "hessian_ema": False, "block_size": 2}),
        ]

    def test_unknown_override_keys_raise(self):
        with pytest.raises(ConfigError, match="learning_rate"):
            RunConfig().with_overrides({"learning_rate": 0.1})

    def test_from_file_and_override_precedence(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schema": "hessopt-run-1", "lr": 0.5, "iters": 7}))
        cfg = RunConfig.from_file(path)
        assert cfg.lr == 0.5 and cfg.iters == 7
        cfg2 = cfg.with_overrides({"lr": 0.25})
        assert cfg2.lr == 0.25 and cfg2.iters == 7

    def test_from_file_missing_or_malformed(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            RunConfig.from_file(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="valid JSON"):
            RunConfig.from_file(bad)
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            RunConfig.from_file(arr)

    def test_header_dict_excludes_output_fields(self):
        cfg = RunConfig(out="/tmp/x", run_name="n")
        header = cfg.to_dict()
        assert "out" not in header and "run_name" not in header
        assert header["schema"] == "hessopt-run-1"

    def test_default_run_name(self):
        assert RunConfig(seed=3).default_run_name() == "fig1-quadratic_adahessian_s3"
        assert RunConfig(run_name="custom").default_run_name() == "custom"


class TestRun:
    def test_one_step_quadratic_reaches_optimum(self, tmp_path):
        cfg = quick_config(tmp_path, lr=1.0, k=1.0, eps=0.0, iters=1)
        result = run(cfg)
        assert result.status == "ok"
        assert result.final_loss == 0.0
        np.testing.assert_allclose(result.theta_final, [0.0, 0.0], atol=1e-15)

    def test_record_fields_and_snapshot_for_small_problems(self, tmp_path):
        result = run(quick_config(tmp_path, iters=3))
        assert len(result.records) == 3
        first = result.records[0]
        assert first.t == 1
        assert first.loss == pytest.approx(11.0)
        assert first.grad_norm == pytest.approx(np.hypot(20.0, 2.0))
        assert first.lr == pytest.approx(0.1)
        assert first.hessian_computed is True
        assert first.theta is not None and len(first.theta) == 2

    def test_large_problems_omit_parameter_snapshots(self, tmp_path):
        cfg = quick_config(tmp_path, problem="tiny-mlp", optimizer="sgd",
                           lr=0.01, iters=2)
        result = run(cfg)
        assert all(r.theta is None for r in result.records)

    def test_sgd_cannot_match_one_step_convergence(self, tmp_path):
        # first-order descent on the (20, 2) quadratic stays away from the
        # optimum for many iterations at any stable fixed step size
        for lr in (0.09, 0.05):
            cfg = quick_config(tmp_path, optimizer="sgd", momentum=0.0,
                               lr=lr, iters=10)
            result = run(cfg, write_files=False)
            assert result.status == "ok"
            assert result.final_loss > 1e-6

    def test_sgd_loss_decreases_at_stable_step(self, tmp_path):
        cfg = quick_config(tmp_path, optimizer="sgd", momentum=0.0, lr=0.05,
                           iters=20)
        result = run(cfg, write_files=False)
        losses = [r.loss for r in result.records]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_hessian_frequency_marks_computed_iterations(self, tmp_path):
        cfg = quick_config(tmp_path, hessian_freq=5, warmup=3, iters=15)
        result = run(cfg, write_files=False)
        computed = [r.t for r in result.records if r.hessian_computed]
        assert computed == [1, 2, 3, 4, 9, 14]
        assert result.summary["hessian_estimates_computed"] == 6

    def test_schedule_multiplies_recorded_lr(self, tmp_path):
        cfg = quick_config(
            tmp_path, optimizer="sgd", lr=0.04, iters=4,
            schedule="step_decay",
            schedule_params={"milestones": [3], "factor": 0.5},
        )
        result = run(cfg, write_files=False)
        np.testing.assert_allclose(
            [r.lr for r in result.records], [0.04, 0.04, 0.02, 0.02]
        )

    def test_iterations_to_threshold(self, tmp_path):
        cfg = quick_config(tmp_path, lr=0.5, iters=30, loss_threshold=0.5)
        result = run(cfg, write_files=False)
        t = result.summary["iterations_to_threshold"]
        assert t is not None
        assert result.records[t - 1].loss <= 0.5
        assert all(r.loss > 0.5 for r in result.records[: t - 1])
        unset = run(quick_config(tmp_path, iters=3), write_files=False)
        assert unset.summary["iterations_to_threshold"] is None

    def test_companion_is_an_sgd_run_of_the_same_problem(self, tmp_path, monkeypatch):
        # Each run iteration follows one companion iteration on the same batch:
        # SGD with lr 1e-9, momentum 0.9, a constant schedule and no weight
        # decay, from theta0, whatever schedule and weight decay the run has.
        calls = []
        original = harness._iterate

        def recording(problem, opt, schedule, hcfg, theta, batch, t):
            calls.append((problem, opt, schedule, hcfg, theta.copy(), batch, t))
            return original(problem, opt, schedule, hcfg, theta, batch, t)

        monkeypatch.setattr(harness, "_iterate", recording)
        cfg = quick_config(tmp_path, problem="logreg", problem_params={"batch_size": 32},
                           iters=12, seed=3, cost_ratio=True, schedule="step_decay",
                           schedule_params={"milestones": [5]}, weight_decay=0.1)
        result = run(cfg, write_files=False)
        companion, timed = calls[0::2], calls[1::2]
        assert len(companion) == len(timed) == 12
        problem, sgd, schedule, hcfg, theta, _, _ = companion[0]
        assert type(sgd) is SGD and type(schedule) is Schedule and hcfg is None
        assert (sgd.lr, sgd.momentum, sgd.weight_decay) == (1e-9, 0.9, 0.0)
        np.testing.assert_array_equal(theta, problem.theta0)
        for t, (ours, theirs) in enumerate(zip(companion, timed), start=1):
            assert ours[:4] == (problem, sgd, schedule, None)
            assert theirs[0] is problem and type(theirs[1]) is AdaHessian
            assert ours[5] is theirs[5] and ours[6] == theirs[6] == t
        assert not np.array_equal(companion[-1][4], timed[-1][4])
        assert result.summary["sgd_median_iter_seconds"] > 0

    def test_companion_leaves_the_run_unchanged(self, tmp_path):
        # The companion replays the run's recorded tapes on its own theta, on the
        # batches the run uses, between the run's iterations.
        results = {}
        for on in (True, False):
            cfg = quick_config(tmp_path, problem="logreg", problem_params={"batch_size": 32},
                               iters=30, hessian_freq=3, cost_ratio=on, run_name=f"c{on}")
            results[on] = run(cfg)
        assert "cost_ratio_vs_sgd" in results[True].summary
        np.testing.assert_array_equal(results[True].theta_final, results[False].theta_final)
        with_companion, without = (results[on].trajectory_path.read_bytes().split(b"\n", 1)
                                   for on in (True, False))
        assert with_companion[1] == without[1]
        assert with_companion[0] == without[0].replace(b'"cost_ratio":false',
                                                       b'"cost_ratio":true')

    def test_cost_ratio_toggle(self, tmp_path):
        with_ratio = run(quick_config(tmp_path, iters=12, cost_ratio=True),
                         write_files=False)
        assert "cost_ratio_vs_sgd" in with_ratio.summary
        assert with_ratio.summary["cost_ratio_vs_sgd"] > 0
        without = run(quick_config(tmp_path, iters=12, cost_ratio=False),
                      write_files=False)
        assert "cost_ratio_vs_sgd" not in without.summary

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_failure_preserves_partial_trajectory(self, tmp_path):
        cfg = quick_config(tmp_path, optimizer="sgd", lr=1e18, iters=50)
        result = run(cfg)
        assert result.status == "numeric_failure"
        assert result.final_loss == float("inf")
        assert 1 <= len(result.records) < 50
        assert "failure" in result.summary
        header, lines = load_trajectory(result.trajectory_path)
        assert len(lines) == len(result.records)

    def test_interrupted_run_leaves_earlier_files_whole(self, tmp_path, monkeypatch):
        # Both files are written after the loop, so a run cut short at t = 3
        # writes neither, and an earlier run's pair still agrees.
        run(quick_config(tmp_path))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        original = harness._iterate

        def interrupted(problem, opt, schedule, probes, theta, batch, t):
            if t == 3:
                raise KeyboardInterrupt
            return original(problem, opt, schedule, probes, theta, batch, t)

        monkeypatch.setattr(harness, "_iterate", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run(quick_config(tmp_path, lr=0.5))
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        with pytest.raises(KeyboardInterrupt):
            run(quick_config(tmp_path / "fresh"))
        assert list((tmp_path / "fresh").iterdir()) == []

    def test_invalid_config_raises_before_compute(self, tmp_path):
        with pytest.raises(ConfigError):
            run(quick_config(tmp_path, lr=-1.0))


class TestTrajectoryFiles:
    def test_header_then_one_line_per_iteration(self, tmp_path):
        cfg = quick_config(tmp_path, iters=4, run_name="t")
        result = run(cfg)
        header, records = load_trajectory(result.trajectory_path)
        assert header["schema"] == "hessopt-trajectory-1"
        assert header["config"]["problem"] == "fig1-quadratic"
        assert "out" not in header["config"]
        assert len(records) == 4
        assert [r["t"] for r in records] == [1, 2, 3, 4]
        for r in records:
            assert set(r) == {"t", "loss", "grad_norm", "lr", "hessian_computed", "theta"}

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        a = run(quick_config(tmp_path / "a", iters=20, seed=5,
                             problem="logreg", lr=0.05))
        b = run(quick_config(tmp_path / "b", iters=20, seed=5,
                             problem="logreg", lr=0.05))
        assert a.trajectory_path.read_bytes() == b.trajectory_path.read_bytes()

    def test_different_seeds_differ_on_stochastic_problem(self, tmp_path):
        a = run(quick_config(tmp_path / "a", iters=10, seed=0, problem="tiny-mlp",
                             lr=0.05))
        b = run(quick_config(tmp_path / "b", iters=10, seed=1, problem="tiny-mlp",
                             lr=0.05))
        assert a.trajectory_path.read_bytes() != b.trajectory_path.read_bytes()

    def test_summary_file_matches_result(self, tmp_path):
        result = run(quick_config(tmp_path, iters=6))
        on_disk = json.loads(result.summary_path.read_text())
        assert on_disk["final_loss"] == result.summary["final_loss"]
        assert on_disk["status"] == "ok"
        assert on_disk["iterations_run"] == 6

    def test_summarize_trajectory_agrees_with_summary(self, tmp_path):
        result = run(quick_config(tmp_path, iters=8))
        digest = summarize_trajectory(load_trajectory(result.trajectory_path)[1])
        assert digest["iterations_run"] == 8
        assert digest["best_recorded_loss"] == result.summary["best_recorded_loss"]
        assert digest["final_grad_norm"] == result.summary["final_grad_norm"]
        assert digest["hessian_estimates_computed"] == result.summary[
            "hessian_estimates_computed"
        ]

    def test_load_trajectory_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"schema":"other"}\n')
        with pytest.raises(ValueError):
            load_trajectory(path)

    def test_default_out_dir_honors_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HESSOPT_OUT", str(tmp_path / "env_runs"))
        assert default_out_dir() == tmp_path / "env_runs"
        result = run(RunConfig(problem="fig1-quadratic", optimizer="sgd",
                               lr=0.01, iters=1, cost_ratio=False))
        assert result.trajectory_path.parent == tmp_path / "env_runs"


class TestSweep:
    def test_grid_cells_and_csv(self, tmp_path):
        base = quick_config(tmp_path, optimizer="sgd", iters=5)
        cells, csv_path = sweep(base, {"lr": [0.01, 0.02], "momentum": [0.0, 0.5]},
                                seeds=[0, 1], out=tmp_path)
        assert len(cells) == 4
        assert all(len(c.final_losses) == 2 for c in cells)
        with csv_path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert {"lr", "momentum", "n_seeds", "diverged", "final_loss_mean",
                "final_loss_std"} <= set(rows[0])
        assert all(row["n_seeds"] == "2" for row in rows)

    def test_divergence_threshold_counts_cells(self, tmp_path):
        base = quick_config(tmp_path, optimizer="sgd", momentum=0.0, iters=10,
                            divergence_loss=1.0)
        cells, _ = sweep(base, {"lr": [0.05, 0.11]}, seeds=[0], out=tmp_path)
        by_lr = {c.overrides["lr"]: c for c in cells}
        assert by_lr[0.05].diverged == 0
        # lr > 2/beta on the (20, 2) quadratic oscillates outward
        assert by_lr[0.11].diverged == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_blowup_counts_as_diverged(self, tmp_path):
        base = quick_config(tmp_path, optimizer="sgd", iters=60)
        cells, _ = sweep(base, {"lr": [1e18]}, seeds=[0], out=tmp_path)
        assert cells[0].diverged == 1
        assert cells[0].final_losses == [float("inf")]

    def test_unknown_axis_raises(self, tmp_path):
        base = quick_config(tmp_path)
        with pytest.raises(ConfigError, match="axis"):
            sweep(base, {"stepsize": [0.1]}, seeds=[0], out=tmp_path)

    def test_empty_seeds_or_axis_values_raise(self, tmp_path):
        base = quick_config(tmp_path)
        with pytest.raises(ConfigError):
            sweep(base, {"lr": [0.1]}, seeds=[], out=tmp_path)
        with pytest.raises(ConfigError):
            sweep(base, {"lr": []}, seeds=[0], out=tmp_path)

    def test_grid_is_validated_before_any_run(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "run", lambda *a, **k: calls.append(a))
        base = quick_config(tmp_path)
        with pytest.raises(ConfigError, match="lr must be positive"):
            sweep(base, {"lr": [0.1, -1.0]}, seeds=[0, 1], out=tmp_path)
        with pytest.raises(ConfigError, match="iters must be int"):
            sweep(base, {"iters": [2, 1.5]}, seeds=[0], out=tmp_path)
        assert calls == []
        assert not (tmp_path / "sweep.csv").exists()


def sharing_base(tmp_path, **overrides):
    """Minibatched logistic regression: every run draws a batch per iteration."""
    return quick_config(tmp_path, problem="logreg", problem_params={"batch_size": 32},
                        iters=30, cost_ratio=True, **overrides)


SHARING_AXES = {"lr": [0.05, 0.2], "hessian_freq": [1, 10]}
SHARING_SEEDS = [0, 1, 2]


@pytest.fixture
def companion_calls(monkeypatch):
    """Record (iters, seed) of the run that builds each SGD companion optimizer;
    the runs' own optimizers are AdaHessian."""
    calls, runs = [], []
    original_run, original_make = harness.run, harness.make_optimizer

    def tracking(config, *args, **kwargs):
        runs.append(config)
        return original_run(config, *args, **kwargs)

    def counting(kind, dim, **kwargs):
        if kind == "sgd":
            calls.append((runs[-1].iters, runs[-1].seed))
        return original_make(kind, dim, **kwargs)

    monkeypatch.setattr(harness, "run", tracking)
    monkeypatch.setattr(harness, "make_optimizer", counting)
    return calls


class TestSweepSharing:
    def test_csv_equals_standalone_runs_except_cost_ratio(self, tmp_path):
        base = sharing_base(tmp_path)
        _, csv_path = sweep(base, SHARING_AXES, seeds=SHARING_SEEDS, out=tmp_path)
        with csv_path.open() as fh:
            swept = list(csv.DictReader(fh))
        expected = []
        # rows follow the grid: axes in sorted order, the last one fastest
        for freq, lr in [(1, 0.05), (1, 0.2), (10, 0.05), (10, 0.2)]:
            overrides = {"hessian_freq": freq, "lr": lr}
            results = [run(base.with_overrides({**overrides, "seed": s}), write_files=False)
                       for s in SHARING_SEEDS]
            cell = harness.SweepCell(
                overrides=overrides, seeds=SHARING_SEEDS,
                final_losses=[r.final_loss for r in results],
                diverged=sum(harness._is_diverged(r.config, r) for r in results),
                cost_ratios=[r.summary["cost_ratio_vs_sgd"] for r in results])
            expected.append({k: str(v) for k, v in cell.row().items()})
        assert len(swept) == 4
        for row, want in zip(swept, expected):
            assert row.keys() == want.keys()
            row.pop("cost_ratio_mean")
            want.pop("cost_ratio_mean")
            assert row == want

    def test_companion_timed_once_per_seed_not_per_cell(self, tmp_path, companion_calls):
        cells, _ = sweep(sharing_base(tmp_path), SHARING_AXES, seeds=SHARING_SEEDS,
                         out=tmp_path)
        assert companion_calls == [(30, 0), (30, 1), (30, 2)]
        assert all(len(c.cost_ratios) == 3 for c in cells)

    def test_iters_axis_gets_one_companion_per_value(self, tmp_path, companion_calls):
        sweep(sharing_base(tmp_path), {"iters": [12, 20], "lr": [0.05, 0.2]},
              seeds=[0], out=tmp_path)
        assert companion_calls == [(12, 0), (20, 0)]

    def test_consecutive_sweeps_time_their_own_companions(self, tmp_path,
                                                          companion_calls):
        for _ in range(2):
            sweep(sharing_base(tmp_path), {"lr": [0.05, 0.2]}, seeds=[0], out=tmp_path)
        assert companion_calls == [(30, 0), (30, 0)]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_run_stores_no_companion_time(self, tmp_path, companion_calls):
        # The first cell of the key fails, so the second times its own companion.
        cells, csv_path = sweep(quick_config(tmp_path, iters=50, cost_ratio=True),
                                {"lr": [1e18, 0.1]}, seeds=[0], out=tmp_path)
        assert companion_calls == [(50, 0), (50, 0)]
        assert cells[0].diverged == 1 and cells[0].cost_ratios == []
        assert len(cells[1].cost_ratios) == 1 and cells[1].cost_ratios[0] > 0
        with csv_path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["cost_ratio_mean"] == "" and float(rows[1]["cost_ratio_mean"]) > 0

    def test_runs_and_companions_build_each_problem_once(self, tmp_path, monkeypatch):
        # A problem keeps its recorded tapes, so every rebuild records them again.
        built = []

        def counting(name, **params):
            built.append(name)
            return get_problem(name, **params)

        monkeypatch.setattr(harness, "get_problem", counting)
        sweep(sharing_base(tmp_path), SHARING_AXES, seeds=SHARING_SEEDS, out=tmp_path)
        assert built == ["logreg"]  # 12 runs, 3 of them with a companion
        run(sharing_base(tmp_path), write_files=False)
        assert built == ["logreg", "logreg"]  # the run, with its companion

    def test_sweep_draws_each_seed_stream_once(self, tmp_path, monkeypatch):
        # One batch pass per seed, over t = 1..30; no run draws a batch of its own.
        passes = []
        original = LogisticRegression.sample_batches

        def counting(self, ts, seed):
            passes.append((seed, list(ts)))
            return original(self, ts, seed)

        def unused(*args):
            raise AssertionError("runs read their batches from the seed's pass")

        monkeypatch.setattr(LogisticRegression, "sample_batches", counting)
        monkeypatch.setattr(LogisticRegression, "sample_batch", unused)
        sweep(sharing_base(tmp_path), SHARING_AXES, seeds=SHARING_SEEDS, out=tmp_path)
        assert passes == [(s, list(range(1, 31))) for s in SHARING_SEEDS]

    def test_sweep_derives_each_seed_keys_once(self, tmp_path, monkeypatch):
        # One key pass per seed over t = 1..30, whatever its cells' schedules; no
        # run derives keys of its own or builds a probe generator.
        passes = []
        original = harness.probe_keys

        def counting(seed, streams):
            passes.append((seed, list(streams)))
            return original(seed, streams)

        def unused(*args):
            raise AssertionError("runs draw their probes from keys")

        monkeypatch.setattr(harness, "probe_keys", counting)
        monkeypatch.setattr(hutchinson, "probe_rng", unused)
        monkeypatch.setattr(hutchinson, "rademacher", unused)
        axes = {"hessian_freq": [10, 4], "warmup": [0, 3]}
        sweep(sharing_base(tmp_path), axes, seeds=SHARING_SEEDS, out=tmp_path)
        assert passes == [(s, list(range(1, 31))) for s in SHARING_SEEDS]
        # the keys are drawn once, before the first run, at the longest run
        passes.clear()
        sweep(sharing_base(tmp_path), {"iters": [12, 20]}, seeds=[0], out=tmp_path)
        assert passes == [(0, list(range(1, 21)))]

    def test_sweep_settles_each_seed_before_its_first_run(self, tmp_path, monkeypatch):
        # iters [12, 20] x two problem keys: one batch pass per (seed, key) and
        # one key pass per seed, each over t = 1..20, and every config checked
        # once, by the sweep.
        batch_passes, key_passes, checked = [], [], []
        original_batches, original_keys = LogisticRegression.sample_batches, harness.probe_keys
        original_validate = RunConfig.validate

        def counting_batches(self, ts, seed):
            batch_passes.append((self.n_samples, seed, list(ts)))
            return original_batches(self, ts, seed)

        def counting_keys(seed, streams):
            key_passes.append((seed, list(streams)))
            return original_keys(seed, streams)

        def counting_validate(config):
            checked.append((config.iters, config.problem_params, config.seed))
            return original_validate(config)

        monkeypatch.setattr(LogisticRegression, "sample_batches", counting_batches)
        monkeypatch.setattr(harness, "probe_keys", counting_keys)
        monkeypatch.setattr(RunConfig, "validate", counting_validate)
        base = sharing_base(tmp_path).with_overrides({"cost_ratio": False})
        params = [{"batch_size": 32}, {"batch_size": 16, "n": 300}]
        axes = {"iters": [12, 20], "problem_params": params}
        _, csv_path = sweep(base, axes, seeds=[0, 1], out=tmp_path)
        ts = list(range(1, 21))
        assert batch_passes == [(n, s, ts) for s in (0, 1) for n in (200, 300)]
        assert key_passes == [(s, ts) for s in (0, 1)]
        configs = [(i, p, s) for s in (0, 1) for i in (12, 20) for p in params]
        assert checked == [(30, {"batch_size": 32}, 0)] + configs
        with csv_path.open() as fh:
            swept = list(csv.DictReader(fh))
        expected = []
        for iters, problem_params in itertools.product(*axes.values()):
            overrides = {"iters": iters, "problem_params": problem_params}
            results = [run(base.with_overrides({**overrides, "seed": s}), write_files=False)
                       for s in (0, 1)]
            cell = harness.SweepCell(
                overrides=overrides, seeds=[0, 1],
                final_losses=[r.final_loss for r in results],
                diverged=sum(harness._is_diverged(r.config, r) for r in results),
                cost_ratios=[])
            expected.append({k: str(v) for k, v in cell.row().items()})
        assert swept == expected

    def test_shared_keys_equal_probe_keys(self, tmp_path, monkeypatch):
        configs = [sharing_base(tmp_path).with_overrides({"iters": n}) for n in (21, 30)]
        keys = harness._SeedPass(4, {}, configs).keys
        np.testing.assert_array_equal(keys, probe_keys(4, range(1, 31)))
        assert not keys.flags.writeable
        with pytest.raises(ValueError):
            keys[0, 0] = 0

        def unused(*args):
            raise AssertionError("a pass without AdaHessian derives no keys")

        monkeypatch.setattr(harness, "probe_keys", unused)
        sgd = sharing_base(tmp_path, optimizer="sgd")
        assert harness._SeedPass(4, {}, [sgd]).keys is None
        result = run(sgd, write_files=False)
        assert result.status == "ok"

    @staticmethod
    def lines(result) -> list[dict]:
        return [r.to_line_dict() for r in result.records]

    @staticmethod
    def count_draws(monkeypatch, block_entries: int) -> list:
        """Sets ``_BLOCK_ENTRIES`` and records each keyed draw's keys, entries
        and the buffer it writes into."""
        draws = []
        original = hutchinson._keyed_probes

        def counting(keys, n, d, out):
            draws.append((keys.copy(), len(keys) * n * d, out.base))
            return original(keys, n, d, out)

        monkeypatch.setattr(hutchinson, "_BLOCK_ENTRIES", block_entries)
        monkeypatch.setattr(hutchinson, "_keyed_probes", counting)
        return draws

    def test_run_draws_its_scheduled_probes_chunk_by_chunk(self, tmp_path, monkeypatch):
        # Three estimates to a chunk: only the iterations the schedule selects
        # are drawn, chunk by chunk into one buffer, and the run is unchanged.
        cfg = quick_config(tmp_path, problem="logreg", problem_params={"batch_size": 32},
                           iters=30, samples=3, hessian_freq=4, warmup=3)
        expected = run(cfg, write_files=False)
        hcfg = HutchinsonConfig(samples_per_estimate=3, frequency=4, warmup_steps=3)
        ts = [t for t in range(1, cfg.iters + 1) if should_compute(t, hcfg)]
        assert ts == [1, 2, 3, 4, 8, 12, 16, 20, 24, 28]
        chunk = 3 * 3 * expected.theta_final.size
        draws = self.count_draws(monkeypatch, chunk + 1)
        result = run(cfg, write_files=False)
        assert self.lines(result) == self.lines(expected)
        np.testing.assert_array_equal(result.theta_final, expected.theta_final)
        assert [len(keys) for keys, _, _ in draws] == [3, 3, 3, 1]
        np.testing.assert_array_equal(np.concatenate([keys for keys, _, _ in draws]),
                                      probe_keys(cfg.seed, ts))
        (buffer,) = {id(base): base for _, _, base in draws}.values()
        assert buffer is not None and buffer.size == chunk
        assert max(entries for _, entries, _ in draws) <= chunk

    def test_run_draws_an_estimate_past_one_chunk_block_by_block(self, tmp_path, monkeypatch):
        # 40 probes against blocks of 16: each estimate reads its Generator in
        # 16, 16 and 8 rows, and no keyed draw is made.
        cfg = quick_config(tmp_path, problem="logreg", problem_params={"batch_size": 32},
                           iters=30, samples=40, hessian_freq=10)
        expected = run(cfg, write_files=False)
        d = expected.theta_final.size
        draws = self.count_draws(monkeypatch, 16 * d)
        shapes = []

        def recording(shape, rng):
            shapes.append(shape)
            return rademacher(shape, rng)

        monkeypatch.setattr(hutchinson, "rademacher", recording)
        result = run(cfg, write_files=False)
        assert self.lines(result) == self.lines(expected)
        np.testing.assert_array_equal(result.theta_final, expected.theta_final)
        assert draws == []
        assert shapes == [(rows, d) for _ in (1, 11, 21) for rows in (16, 16, 8)]

    def test_shared_batches_equal_sample_batch_and_are_read_only(self, tmp_path):
        cfg = sharing_base(tmp_path, seed=4)
        problem = get_problem(cfg.problem, **cfg.problem_params)
        full = get_problem(cfg.problem)
        configs = [cfg, cfg.with_overrides({"iters": 40})]
        shared = harness._SeedPass(4, {"minibatch": problem, "full": full}, configs)
        stream = shared.batches["minibatch"]
        assert len(stream) == 40
        for t, batch in enumerate(stream, start=1):
            np.testing.assert_array_equal(batch, problem.sample_batch(t, 4))
            assert not batch.flags.writeable
        with pytest.raises(ValueError):
            stream[0][0] = 0
        assert list(shared.batches["full"]) == [None] * 40


class TestAtomicWrite:
    def test_replaces_target_and_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("old")
        harness.write_atomic(target, "new\r\n")
        assert target.read_bytes() == b"new\r\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_failed_replace_keeps_old_file(self, tmp_path, monkeypatch):
        target = tmp_path / "summary.json"
        target.write_text("old")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(harness.os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            harness.write_atomic(target, "new")
        assert target.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["summary.json"]
