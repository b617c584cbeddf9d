"""Tests for the command-line interface: subcommands, exit codes, output."""

import argparse
import contextlib
import csv
import importlib.util
import inspect
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hessopt
from hessopt import cli, harness, optim, oracle
from hessopt.cli import main
from hessopt.problems import PROBLEM_BUILDERS


def write_input(path: Path, content) -> Path:
    """Make ``path``: a text file, a file of raw bytes, or a directory if
    ``content`` is None."""
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    return path


def sweep_axes(monkeypatch, argv: list[str]) -> dict:
    """The axes ``sweep`` with ``argv`` hands to ``harness.sweep``, which is
    not run."""
    axes = {}

    def fake_sweep(base, given, seeds, out=None, csv_name="sweep.csv"):
        axes.update(given)
        return [], Path(csv_name)

    monkeypatch.setattr(cli, "sweep", fake_sweep)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["sweep", *argv]) == 0
    return axes


def subparser(command: str) -> argparse.ArgumentParser:
    (subparsers,) = [a.choices for a in cli.build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    return subparsers[command]


class TestRunCommand:
    def test_successful_run_exits_zero_and_writes_files(self, tmp_path, capsys):
        code = main([
            "run", "--problem", "fig1-quadratic", "--optimizer", "adahessian",
            "--lr", "1.0", "--eps", "0", "--iters", "1",
            "--out", str(tmp_path), "--run-name", "one", "--no-cost-ratio",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "final_loss: 0.0" in out
        assert (tmp_path / "one.trajectory.jsonl").exists()
        assert (tmp_path / "one.summary.json").exists()

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "problem": "fig1-quadratic", "optimizer": "sgd", "lr": 0.01,
            "iters": 3, "out": str(tmp_path), "cost_ratio": False,
        }))
        code = main(["run", "--config", str(cfg), "--iters", "5",
                     "--run-name", "override"])
        assert code == 0
        assert "iterations_run: 5" in capsys.readouterr().out

    def test_unknown_problem_exits_one(self, tmp_path, capsys):
        code = main(["run", "--problem", "rosenbrock", "--out", str(tmp_path)])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("content,needle", [
        ("{oops", "config file is not valid JSON"),
        (b'{"lr": 0.1\xff}', "is not text: 'utf-8' codec can't decode byte 0xff"),
        (None, "cannot read config file"),
        ('{"a\\u001cb": 1}', r"unknown config keys: 'a\x1cb'"),
    ], ids=["invalid-json", "not-utf8", "directory", "control-character-key"])
    def test_bad_config_file_exits_one(self, tmp_path, capsys, command, content, needle):
        cfg = write_input(tmp_path / "broken.json", content)
        grid = ["--grid", "lr=0.1"] if command == "sweep" else []
        code = main([command, "--config", str(cfg), *grid])
        err = capsys.readouterr().err
        assert (code, len(err.strip().splitlines())) == (1, 1)
        assert err.startswith("config error:") and needle in err

    @pytest.mark.parametrize("command,grid,checks", [
        ("run", [], 1),
        ("sweep", ["--grid", "lr=0.1,0.2", "--seeds", "0"], 3),  # the base, then each cell
    ])
    def test_each_config_is_validated_once(self, tmp_path, monkeypatch, command, grid, checks):
        checked = []
        original = harness.RunConfig.validate

        def counting(config):
            checked.append(config)
            return original(config)

        monkeypatch.setattr(harness.RunConfig, "validate", counting)
        code = main([command, "--problem", "fig1-quadratic", "--iters", "2", "--no-cost-ratio",
                     "--out", str(tmp_path), *grid])
        assert (code, len(checked)) == (0, checks)

    def test_bad_problem_params_json_exits_one(self, tmp_path):
        code = main(["run", "--problem-params", "[1,2]", "--out", str(tmp_path)])
        assert code == 1

    @pytest.mark.parametrize("flag,needle", [
        ("--config", "config file is not valid JSON"),
        ("--problem-params", "--problem-params is not valid JSON"),
    ])
    def test_deeply_nested_json_exits_one(self, tmp_path, capsys, flag, needle):
        text = "[" * 100_000
        value = str(write_input(tmp_path / "deep.json", text)) if flag == "--config" else text
        code = main(["run", flag, value, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert (code, len(err.strip().splitlines())) == (1, 1)
        assert err.startswith("config error:") and needle in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_failure_exits_two(self, tmp_path, capsys):
        code = main([
            "run", "--problem", "fig1-quadratic", "--optimizer", "sgd",
            "--lr", "1e18", "--iters", "50", "--out", str(tmp_path),
            "--no-cost-ratio",
        ])
        assert code == 2
        assert "status: numeric_failure" in capsys.readouterr().out

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("flags,line", [
        # theta grows tenfold a step until the loss overflows on the tape
        (["--lr", "1e18", "--iters", "50"],
         "numeric failure: iteration 10, loss: non-finite value in fig1-quadratic loss "
         "(produced by op 'mul')"),
        # a finite gradient times lr=1e308 overflows in the update itself
        (["--lr", "1e308", "--momentum", "0", "--iters", "3"],
         "numeric failure: iteration 1, step: sgd produced a non-finite update at "
         "coordinate 0 (iteration 1)"),
        # every HVP is finite, but the sum of 64 probes overflows
        (["--problem", "spd-quadratic", "--optimizer", "adahessian", "--problem-params",
          '{"d": 2, "condition_number": 3e306}', "--samples", "64", "--iters", "3",
          "--lr", "1e-300"],
         "numeric failure: iteration 1, hvp: non-finite value in spd-quadratic-d2 "
         "Hutchinson sum of 64 probes"),
    ], ids=["tape-phase", "step-phase", "hutchinson-sum"])
    def test_numeric_failure_names_iteration_and_phase(self, tmp_path, capsys, flags, line):
        code = main(["run", "--problem", "fig1-quadratic", "--optimizer", "sgd", *flags,
                     "--out", str(tmp_path), "--run-name", "blowup", "--no-cost-ratio"])
        assert (code, capsys.readouterr().err) == (2, line + "\n")
        summary = json.loads((tmp_path / "blowup.summary.json").read_text())
        assert summary["failure"] == line.removeprefix("numeric failure: ")

    def test_no_hessian_ema_flag_reaches_optimizer(self, tmp_path, capsys):
        code = main([
            "run", "--problem", "noisy-parabola", "--optimizer", "adahessian",
            "--lr", "0.1", "--iters", "2", "--no-hessian-ema",
            "--out", str(tmp_path), "--run-name", "ablation", "--no-cost-ratio",
        ])
        assert code == 0
        header = json.loads(
            (tmp_path / "ablation.trajectory.jsonl").read_text().splitlines()[0]
        )
        assert header["config"]["hessian_ema"] is False

    def test_problem_params_forwarded_to_builder(self, tmp_path, capsys):
        code = main([
            "run", "--problem", "spd-quadratic",
            "--problem-params", '{"d": 4, "condition_number": 3.0}',
            "--optimizer", "sgd", "--lr", "0.01", "--iters", "2",
            "--out", str(tmp_path), "--no-cost-ratio",
        ])
        assert code == 0


class TestSweepCommand:
    def test_grid_sweep_prints_table_and_writes_csv(self, tmp_path, capsys):
        code = main([
            "sweep", "--problem", "fig1-quadratic", "--optimizer", "sgd",
            "--iters", "5", "--grid", "lr=0.01,0.05", "--seeds", "0,1",
            "--out", str(tmp_path), "--no-cost-ratio",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "final_loss_mean" in out
        assert (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("item,values", [
        ("lr=1,0.5", [1.0, 0.5]),
        ("hessian_ema=false,TRUE", [False, True]),
        ("bogus=1", ["1"]),  # an unknown axis keeps its text for sweep to refuse
    ])
    def test_grid_values_are_read_as_their_fields_flags_read_them(self, monkeypatch, item,
                                                                  values):
        axes = sweep_axes(monkeypatch, ["--grid", item])
        assert [(v, type(v)) for v in axes[item.partition("=")[0]]] == [
            (v, type(v)) for v in values]

    def test_string_axis_takes_a_numeric_value(self, tmp_path, capsys):
        code = main(["sweep", "--problem", "fig1-quadratic", "--iters", "2", "--no-cost-ratio",
                     "--grid", "out=2", "--grid", "run_name=3", "--out", str(tmp_path)])
        assert (code, capsys.readouterr().err) == (0, "")
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]

    def test_dict_axis_takes_objects_of_several_keys(self, tmp_path, capsys):
        # a value list is split on the commas outside braces, so each object stays whole
        code = main(["sweep", "--problem", "spd-quadratic", "--iters", "2", "--no-cost-ratio",
                     "--grid", 'problem_params={"d": 2, "condition_number": 3.0},'
                               '{"d": 3, "condition_number": 5.0, "seed": 1}',
                     "--out", str(tmp_path)])
        assert (code, capsys.readouterr().err) == (0, "")
        rows = list(csv.DictReader((tmp_path / "sweep.csv").open(newline="")))
        assert [json.loads(r["problem_params"].replace("'", '"')) for r in rows] == [
            {"d": 2, "condition_number": 3.0}, {"d": 3, "condition_number": 5.0, "seed": 1}]

    @pytest.mark.parametrize("values,split", [
        ("0.1,0.2,,0.3", ["0.1", "0.2", "", "0.3"]),
        ('{"a": [1, 2], "b": {"c": 3}},{}', ['{"a": [1, 2], "b": {"c": 3}}', "{}"]),
        ('{"a": "x,}\\",y"},2', ['{"a": "x,}\\",y"}', "2"]),
        ("a]b,c", ["a]b", "c"]),
    ])
    def test_grid_values_split_on_commas_outside_brackets_and_strings(self, values, split):
        assert cli._split_values(values) == split

    @pytest.mark.parametrize("item,needle", [
        ("iters=1.5", "iters must be int, got '1.5'"),
        ("lr=fast", "lr must be float, got 'fast'"),
        ("cost_ratio=1", "cost_ratio must be bool, got '1'"),
        ("problem_params=[1]", "problem_params must be dict, got '[1]'"),
    ])
    def test_grid_value_its_field_cannot_read_exits_one(self, tmp_path, capsys, item, needle):
        code = main(["sweep", "--grid", item, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert (code, err) == (1, f"config error: {needle}\n")
        assert list(tmp_path.iterdir()) == []

    def test_missing_grid_exits_one(self, tmp_path):
        assert main(["sweep", "--out", str(tmp_path)]) == 1

    def test_malformed_grid_exits_one(self, tmp_path):
        assert main(["sweep", "--grid", "lr:0.1", "--out", str(tmp_path)]) == 1

    def test_malformed_seeds_exit_one(self, tmp_path):
        code = main(["sweep", "--grid", "lr=0.1", "--seeds", "a,b",
                     "--out", str(tmp_path)])
        assert code == 1


class TestBadInput:
    """Each reproducer exits 1 with one ``config error:`` line and no traceback."""

    def assert_config_error(self, capsys, code, needle):
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("config error:") and needle in err

    def test_string_in_float_field_of_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "f.json"
        cfg.write_text('{"lr": "0.1"}')
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
        self.assert_config_error(capsys, code, "lr must be float")

    def test_float_in_int_grid_axis(self, tmp_path, capsys):
        code = main(["sweep", "--grid", "iters=2,1.5", "--out", str(tmp_path)])
        self.assert_config_error(capsys, code, "iters must be int")

    def test_unknown_problem_param(self, tmp_path, capsys):
        code = main(["run", "--problem", "logreg", "--problem-params", '{"bogus": 1}',
                     "--out", str(tmp_path)])
        self.assert_config_error(capsys, code, "'bogus'")

    def test_bad_grid_cell_stops_sweep_before_any_run(self, tmp_path, capsys,
                                                       monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "run", lambda *a, **k: calls.append(a))
        code = main(["sweep", "--grid", "lr=0.1,-1", "--out", str(tmp_path)])
        self.assert_config_error(capsys, code, "lr must be positive")
        assert calls == []
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("flags,needle", [
        (["--iters", "100000000000000000000"],
         "iters must be <= 1000000, got 100000000000000000000"),
        (["--iters", "1", "--samples", "100000000000000000000"],
         "samples must be <= 1000000, got 100000000000000000000"),
    ], ids=["iters", "samples"])
    def test_count_beyond_its_bound(self, tmp_path, capsys, flags, needle):
        code = main(["run", "--no-cost-ratio", *flags, "--out", str(tmp_path)])
        self.assert_config_error(capsys, code, needle)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("problem,params,needle", [
        ("logreg", '{"batch_size": "32"}', "batch_size must be an int or null"),
        ("logreg", '{"batch_size": 500}', "batch_size must lie in [1, 200]"),
        ("logreg", '{"batch_size": 0}', "batch_size must lie in [1, 200]"),
        ("spd-quadratic", '{"condition_number": -1}', "condition_number must be at least 1"),
        # refused before the draw: no RuntimeWarning, no failed eigensolve, no run
        ("spd-quadratic", '{"condition_number": Infinity}', "condition_number must be finite"),
        ("spd-quadratic", '{"condition_number": 1e400}', "condition_number must be finite"),
        ("spd-quadratic", '{"d": 2, "condition_number": Infinity}',
         "condition_number must be finite, got inf"),
        ("spd-quadratic", '{"d": 2, "condition_number": NaN}',
         "condition_number must be finite, got nan"),
        ("tiny-mlp", '{"layers": []}', "layers needs an input and an output width"),
        ("tiny-mlp", '{"layers": [5]}', "layers needs an input and an output width"),
        ("tiny-mlp", '{"layers": [5, 0, 1]}', "layer widths must be at least 1"),
        ("logreg", '{"n": 0}', "n must be at least 1"),
        ("logreg", '{"p": 0}', "p must be at least 1"),
        # refused before any draw: numpy could not hold these (>= 10**10 entries)
        ("logreg", '{"n": 10000000000}', "dataset exceeds the intended desk scale"),
        ("logreg", '{"p": 10000000000}', "dataset exceeds the intended desk scale"),
        ("tiny-mlp", '{"n": 10000000000}', "dataset exceeds the intended desk scale"),
        ("tiny-mlp-relu", '{"n": 10000000000}', "dataset exceeds the intended desk scale"),
        ("tiny-mlp", '{"layers": [10000000000, 1]}', "tiny MLP exceeds d = 64"),
        ("spd-quadratic", '{"d": 100000}', "quadratic problems are limited to d <= 64"),
        ("spd-quadratic", '{"d": 1}', "d must be at least 2"),
        # a value of the wrong type is named before it is compared or used
        ("spd-quadratic", '{"condition_number": "3"}',
         "condition_number must be a real number, got '3'"),
        ("spd-quadratic", '{"condition_number": true}',
         "condition_number must be a real number, got True"),
        ("spd-quadratic", '{"d": "3"}', "d must be an int, got '3'"),
        ("spd-quadratic", '{"d": true}', "d must be an int, got True"),
        ("spd-quadratic", '{"seed": 0.5}', "seed must be an int, got 0.5"),
        ("logreg", '{"p": 2.0}', "p must be an int, got 2.0"),
        ("logreg", '{"n": "200"}', "n must be an int, got '200'"),
        ("logreg", '{"seed": "x"}', "seed must be an int, got 'x'"),
        ("tiny-mlp", '{"layers": "58"}', "layers[0] must be an int, got '5'"),
        ("tiny-mlp", '{"layers": [5, "8", 1]}', "layers[1] must be an int, got '8'"),
        ("tiny-mlp-relu", '{"seed": null}', "seed must be an int, got None"),
        # refused before numpy's generators see it
        ("spd-quadratic", '{"seed": -1}', "seed must be >= 0, got -1"),
        ("logreg", '{"seed": -1}', "seed must be >= 0, got -1"),
        ("tiny-mlp", '{"seed": -1}', "seed must be >= 0, got -1"),
        ("tiny-mlp-relu", '{"seed": -1}', "seed must be >= 0, got -1"),
        # A overflows as it is built: the finite check's line, and no RuntimeWarning
        ("spd-quadratic", '{"d": 2, "condition_number": 1e308}', "A and c must be finite"),
    ], ids=["string-batch-size", "batch-size-above-n", "zero-batch-size",
            "negative-condition-number", "infinite-condition-number",
            "overflowing-condition-number", "infinite-condition-number-d2",
            "nan-condition-number-d2", "no-layers", "one-layer", "zero-width-layer",
            "zero-samples", "zero-features", "logreg-samples", "logreg-features",
            "mlp-samples", "mlp-relu-samples", "mlp-input-width", "spd-dimension",
            "spd-one-dimension", "string-condition-number", "bool-condition-number",
            "string-dimension", "bool-dimension", "float-spd-seed", "float-features",
            "string-samples", "string-logreg-seed", "string-layers", "string-layer-width", "null-mlp-seed",
            "negative-spd-seed", "negative-logreg-seed", "negative-mlp-seed",
            "negative-mlp-relu-seed", "overflowing-spd-matrix"])
    def test_problem_param_value_rejected_by_builder(self, tmp_path, capsys, problem,
                                                     params, needle):
        code = main(["run", "--problem", problem, "--problem-params", params,
                     "--out", str(tmp_path)])
        self.assert_config_error(capsys, code, needle)
        assert list(tmp_path.iterdir()) == []

    def test_bad_problem_param_value_stops_sweep_before_any_run(self, tmp_path, capsys,
                                                                monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "run", lambda *a, **k: calls.append(a))
        code = main(["sweep", "--problem", "logreg", "--problem-params", '{"batch_size": 0}',
                     "--grid", "lr=0.1,0.2", "--out", str(tmp_path)])
        self.assert_config_error(capsys, code, "batch_size must lie in [1, 200]")
        assert calls == []

    @pytest.mark.parametrize("flags,needle", [
        (["--optimizer", "sgd", "--momentum", "1.5"], "momentum must lie in [0, 1)"),
        (["--beta2", "1.5"], "beta2 must lie strictly between 0 and 1"),
        (["--optimizer", "adam", "--beta1", "0"], "beta1 must lie strictly between 0 and 1"),
        (["--weight-decay", "-1"], "weight_decay must be >= 0"),
        (["--eps", "-1"], "eps must be >= 0"),
        (["--k", "2"], "hessian power k must lie in [0, 1]"),
    ], ids=["sgd-momentum", "beta2", "adam-beta1", "weight-decay", "eps", "k"])
    def test_optimizer_hyperparameter_rejected_by_constructor(self, tmp_path, capsys,
                                                              flags, needle):
        code = main(["run", *flags, "--out", str(tmp_path)])
        self.assert_config_error(capsys, code, needle)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags", [["--k", "2"], ["--beta2", "1.5"]], ids=["k", "beta2"])
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_another_optimizers_hyperparameter_is_ignored(self, tmp_path, capsys, command,
                                                         flags):
        # Only the configured optimizer's constructor checks its arguments.
        grid = ["--grid", "lr=0.01"] if command == "sweep" else []
        code = main([command, "--problem", "fig1-quadratic", "--optimizer", "sgd", *flags,
                     *grid, "--iters", "2", "--no-cost-ratio", "--out", str(tmp_path)])
        assert (code, capsys.readouterr().err) == (0, "")

    def test_bad_optimizer_hyperparameter_stops_sweep_before_any_run(self, tmp_path, capsys,
                                                                     monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "run", lambda *a, **k: calls.append(a))
        code = main(["sweep", "--grid", "beta2=0.9,1.5", "--out", str(tmp_path)])
        self.assert_config_error(capsys, code, "beta2 must lie strictly between 0 and 1")
        assert calls == []
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("flags,needle", [
        (["--problem", "logreg", "--weight-decay", "nan"], "weight_decay must be finite, got nan"),
        (["--lr", "nan"], "lr must be finite, got nan"),
        (["--lr", "inf"], "lr must be finite, got inf"),
        (["--eps", "nan"], "eps must be finite, got nan"),
        (["--problem", "logreg", "--schedule", "step_decay",
          "--schedule-params", '{"milestones": [Infinity]}'],
         "milestone must be a whole number of iterations, got inf"),
    ], ids=["nan-weight-decay", "nan-lr", "inf-lr", "nan-eps", "infinite-milestone"])
    def test_non_finite_value_rejected(self, tmp_path, capsys, flags, needle):
        code = main(["run", *flags, "--out", str(tmp_path)])
        self.assert_config_error(capsys, code, needle)
        assert list(tmp_path.iterdir()) == []

    def test_bool_step_decay_factor_rejected(self, tmp_path, capsys):
        # True would pass 0 < factor <= 1 and run as a factor of 1.0.
        code = main(["run", "--problem", "logreg", "--schedule", "step_decay",
                     "--schedule-params", '{"milestones": [2], "factor": true}',
                     "--out", str(tmp_path)])
        self.assert_config_error(capsys, code, "decay factor must lie in (0, 1], got True")
        assert list(tmp_path.iterdir()) == []

    def test_nan_in_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "f.json"
        cfg.write_text('{"lr": NaN}')
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
        self.assert_config_error(capsys, code, "lr must be finite, got nan")

    def test_nan_grid_cell_stops_sweep_before_any_run(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "run", lambda *a, **k: calls.append(a))
        code = main(["sweep", "--grid", "lr=0.1,nan", "--out", str(tmp_path)])
        self.assert_config_error(capsys, code, "lr must be finite, got nan")
        assert calls == []
        assert not (tmp_path / "sweep.csv").exists()

    def test_repeated_grid_axis_stops_sweep_before_any_run(self, tmp_path, capsys,
                                                            monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "run", lambda *a, **k: calls.append(a))
        code = main(["sweep", "--grid", "lr=0.1", "--grid", "lr=0.2", "--out", str(tmp_path)])
        self.assert_config_error(capsys, code, "sweep axis 'lr' is given more than once")
        assert calls == []
        assert not (tmp_path / "sweep.csv").exists()

    def test_seed_grid_axis_points_to_seeds_flag(self, tmp_path, capsys):
        code = main(["sweep", "--grid", "seed=5", "--seeds", "0,1", "--out", str(tmp_path)])
        self.assert_config_error(capsys, code, "--seeds")
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("argv,needle", [
        (["run", "--problem", "fig1-quadratic", "--iters", "2", "--seed", "-1"],
         "seed must be >= 0, got -1"),
        (["sweep", "--problem", "fig1-quadratic", "--iters", "2", "--grid", "lr=0.1",
          "--seeds=-1"], "seed must be >= 0, got -1"),
        (["sweep", "--problem", "fig1-quadratic", "--iters", "2", "--grid", "lr=0.1",
          "--seeds", "0,0"], "sweep seeds must be distinct, got [0, 0]"),
        (["verify", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["verify", "--properties", ","], "--properties ',' selects no property"),
        (["verify", "--properties", ""], "--properties '' selects no property"),
        # the default run name carries the seed
        (["run", "--problem", "fig1-quadratic", "--iters", "2", "--seed", "9" * 250],
         "run-name must be a plain file name of at most"),
    ], ids=["run-negative-seed", "sweep-negative-seed", "sweep-duplicate-seeds",
            "verify-negative-seed", "verify-comma-only", "verify-empty",
            "run-seed-too-long-for-the-default-name"])
    def test_refused_before_any_work(self, tmp_path, capsys, monkeypatch, argv, needle):
        calls = []
        monkeypatch.setattr(harness, "run", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(oracle, "run_verification_suite",
                            lambda *a, **k: calls.append(a))
        code = main([*argv, "--out", str(tmp_path)])
        self.assert_config_error(capsys, code, needle)
        assert calls == []
        assert list(tmp_path.iterdir()) == []


    # An empty run name means the default one, so only the CSV name has that case.
    @pytest.mark.parametrize("command,name", [
        *[(command, name) for command in ("run", "sweep")
          for name in ("a/b", "../x", ".", "..", "nul\0byte", "lone\ud800surrogate")],
        ("sweep", ""),
        # too long for one directory entry, as is or with write_atomic's temporary name
        pytest.param("run", "a" * 300, id="run-300-letters"),
        pytest.param("run", "a" * 236, id="run-236-letters"),
        pytest.param("sweep", "a" * 250, id="sweep-250-letters"),
    ])
    def test_output_names_must_be_plain_file_names(self, tmp_path, capsys, monkeypatch,
                                                   command, name):
        calls = []
        monkeypatch.setattr(harness, "run", lambda *a, **k: calls.append(a))
        flag = "--run-name" if command == "run" else "--csv-name"
        argv = [command, "--problem", "fig1-quadratic", "--iters", "2", flag, name,
                "--out", str(tmp_path / "out")]
        if command == "sweep":
            argv += ["--grid", "lr=0.1,0.2", "--seeds", "0,1"]
        code = main(argv)
        self.assert_config_error(capsys, code, f"{flag[2:]} must be a plain file name")
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    def test_output_directory_no_path_can_hold(self, tmp_path, capsys):
        # A config file's JSON can hold a lone surrogate that argv cannot.
        cfg = write_input(tmp_path / "c.json", json.dumps({"out": str(tmp_path / "\ud800")}))
        code = main(["run", "--config", str(cfg), "--iters", "1", "--no-cost-ratio"])
        self.assert_config_error(capsys, code, "cannot create output directory")
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_longest_accepted_run_name_writes_both_files(self, tmp_path, capsys):
        # write_atomic's temporary trajectory name is the longest a run derives.
        longest = harness.NAME_MAX - len(f"..trajectory.jsonl.{os.getpid()}.tmp")
        argv = ["run", "--problem", "fig1-quadratic", "--iters", "2", "--no-cost-ratio",
                "--out", str(tmp_path), "--run-name"]
        assert main([*argv, "a" * longest]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "a" * longest + ".summary.json", "a" * longest + ".trajectory.jsonl"]
        capsys.readouterr()
        code = main([*argv, "b" * (longest + 1)])
        self.assert_config_error(
            capsys, code, f"at most {longest} bytes, got {longest + 1}")
        assert len(list(tmp_path.iterdir())) == 2

    @pytest.mark.parametrize("argv", [
        ["run", "--problem", "fig1-quadratic", "--iters", "2", "--no-cost-ratio"],
        ["sweep", "--problem", "fig1-quadratic", "--iters", "2", "--grid", "lr=0.1"],
        ["verify", "--properties", "rademacher_mean"],
    ], ids=["run", "sweep", "verify"])
    def test_output_directory_that_cannot_be_made(self, tmp_path, capsys, monkeypatch, argv):
        calls = []
        monkeypatch.setattr(harness, "run", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(oracle, "run_verification_suite",
                            lambda *a, **k: calls.append(a))
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main([*argv, "--out", str(blocker / "x")])
        self.assert_config_error(capsys, code, "cannot create output directory")
        assert calls == []
        assert list(tmp_path.iterdir()) == [blocker]

class TestVerifyCommand:
    def test_importing_the_cli_leaves_the_oracle_unloaded(self):
        # Only verify uses the oracle, so run and sweep should not pay its import.
        src = str(Path(hessopt.__file__).resolve().parent.parent)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        probe = ("import sys, hessopt.cli; "
                 "assert hessopt.cli.__file__.startswith(sys.argv[1]), hessopt.cli.__file__; "
                 "print(sorted(m for m in sys.modules if m.startswith('hessopt')))")
        out = subprocess.run([sys.executable, "-c", probe, src], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert "'hessopt.cli'" in out
        assert "hessopt.oracle" not in out

    def test_subset_passes_and_writes_report(self, tmp_path, capsys):
        code = main(["verify", "--properties", "rademacher_mean,hvp_linearity",
                     "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "all properties passed" in out
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["all_passed"] is True
        assert len(report["properties"]) == 2

    def test_unknown_property_exits_one(self, tmp_path, capsys):
        code = main(["verify", "--properties", "bogus", "--out", str(tmp_path)])
        assert code == 1

    def test_unknown_property_is_named_on_one_line(self, tmp_path, capsys):
        code = main(["verify", "--properties", "two\nlines", "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == "config error: unknown properties: 'two\\nlines'\n"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_injected_fault_exits_three(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            optim, "hessian_ema_square_update",
            lambda prev, val, b2: b2 * prev - (1.0 - b2) * val * val,
        )
        code = main(["verify", "--properties", "one_step_quadratic",
                     "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 3
        assert "FAILED" in captured.err
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["all_passed"] is False


class TestReportCommand:
    @pytest.fixture()
    def finished_run(self, tmp_path):
        main(["run", "--problem", "fig1-quadratic", "--optimizer", "adahessian",
              "--lr", "0.5", "--iters", "8", "--out", str(tmp_path),
              "--run-name", "demo", "--no-cost-ratio"])
        return tmp_path

    def test_trajectory_digest(self, finished_run, capsys):
        capsys.readouterr()
        code = main(["report", str(finished_run / "demo.trajectory.jsonl")])
        out = capsys.readouterr().out
        assert code == 0
        assert "iterations_run: 8" in out
        assert "t=1" in out

    @pytest.mark.parametrize("iters,shown", [(5, [1, 2, 3, 4, 5]), (6, [1, 2, 3, 4, 5, 6]),
                                             (8, [1, 2, 3, 6, 7, 8])])
    def test_trajectory_digest_shows_every_record_up_to_six(self, tmp_path, capsys, iters,
                                                            shown):
        main(["run", "--problem", "fig1-quadratic", "--iters", str(iters), "--out",
              str(tmp_path), "--run-name", "demo", "--no-cost-ratio"])
        capsys.readouterr()
        assert main(["report", str(tmp_path / "demo.trajectory.jsonl")]) == 0
        out = capsys.readouterr().out
        assert [int(t) for t in re.findall(r"^  t=(\d+) ", out, re.MULTILINE)] == shown

    def test_summary_report(self, finished_run, capsys):
        capsys.readouterr()
        code = main(["report", str(finished_run / "demo.summary.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "final_loss:" in out

    def test_csv_report(self, tmp_path, capsys):
        main(["sweep", "--problem", "fig1-quadratic", "--optimizer", "sgd",
              "--iters", "3", "--grid", "lr=0.01", "--seeds", "0",
              "--out", str(tmp_path), "--no-cost-ratio"])
        capsys.readouterr()
        code = main(["report", str(tmp_path / "sweep.csv")])
        assert code == 0
        assert "final_loss_mean" in capsys.readouterr().out

    def test_lone_surrogate_prints_as_an_escape(self, tmp_path):
        # A console's strict UTF-8 stdout cannot encode one; the entry point
        # prints it escaped, as stderr does, instead of raising.
        path = write_input(tmp_path / "run.summary.json", '{"\\ud800": 1}')
        src = str(Path(hessopt.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONIOENCODING": "utf-8",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "hessopt.cli", "report", str(path)],
                              env=env, capture_output=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"\\ud800: 1\n", b"")

    def test_a_trajectory_of_only_its_header(self, finished_run, capsys):
        # What a run that fails at iteration 1 writes.
        path = finished_run / "demo.trajectory.jsonl"
        path.write_text(path.read_text().splitlines()[0] + "\n")
        capsys.readouterr()
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "iterations_run: 0" in out and "t=" not in out

    def test_missing_file_exits_one(self, tmp_path):
        assert main(["report", str(tmp_path / "nope.jsonl")]) == 1

    def test_unsupported_extension_exits_one(self, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_text("hello")
        assert main(["report", str(path)]) == 1

    @pytest.mark.parametrize("name,text,needle", [
        ("run.summary.json", "{not json", "not valid JSON"),
        ("run.summary.json", b'{"a": "\xe9"}', "'utf-8' codec can't decode byte 0xe9"),
        ("sweep.csv", b"lr,loss\n0.1,\xff\n", "'utf-8' codec can't decode byte 0xff"),
        ("run.trajectory.jsonl", b'{"schema": "hessopt-trajectory-1"}\n\xff\n',
         "'utf-8' codec can't decode byte 0xff"),
        ("runs.json", None, "it is a directory"),
        ("sweep.csv", None, "it is a directory"),
        ("run.trajectory.jsonl", None, "it is a directory"),
        ("run.summary.json", "[1, 2]", "expected a JSON object"),
        ("run.trajectory.jsonl", "", "empty trajectory file"),
        ("run.trajectory.jsonl", '{"schema": "other-1"}\n',
         "unrecognized trajectory schema"),
        ("run.trajectory.jsonl", '{"schema": "hessopt-trajectory-1"}\n{}\n',
         "line 2 of"),
        ("run.trajectory.jsonl", '{"schema": "hessopt-trajectory-1"}\n[1, 2]\n',
         "line 2 of"),
        ("run.trajectory.jsonl", '{"schema": "hessopt-trajectory-1"}\n'
         '{"t": 1, "loss": "low", "grad_norm": 1.0, "lr": 0.1, "hessian_computed": false}\n',
         "loss must be float, got 'low'"),
        ("run.trajectory.jsonl", '{"schema": "hessopt-trajectory-1", "config": 5}\n',
         "config: expected a JSON object"),
        *[("run.trajectory.jsonl", '{"schema": "hessopt-trajectory-1"}\n'
           f'{{"t": {t}, "loss": 1.0, "grad_norm": 1.0, "lr": 0.1, "hessian_computed": false}}\n',
           f"t must be int, got {shown}")
          for t, shown in (('"a"', "'a'"), ("1.5", "1.5"), ("true", "True"))],
        ("run.trajectory.jsonl", '{"schema": "hessopt-trajectory-1"}\n'
         '{"t": 1, "loss": 1.0, "grad_norm": 1.0, "lr": 0.1, "hessian_computed": null}\n',
         "hessian_computed must be bool, got None"),
        ("run.trajectory.jsonl", '{"schema": "hessopt-trajectory-1"}\n'
         f'{{"t": 1, "loss": 1{"0" * 400}, "grad_norm": 1.0, "lr": 0.1, "hessian_computed": true}}\n',
         "loss must be float, got 1000"),
        ("run.summary.json", "[" * 100_000, "not valid JSON"),
        ("run.trajectory.jsonl", "[" * 100_000, "not valid JSON"),
    ], ids=["invalid-json", "json-not-utf8", "csv-not-utf8", "trajectory-not-utf8",
            "json-directory", "csv-directory", "trajectory-directory", "json-list",
            "empty-trajectory", "unknown-schema", "empty-record", "list-record",
            "string-loss", "config-not-object", "string-t", "float-t", "bool-t",
            "null-hessian-computed", "huge-int-loss", "deep-json", "deep-trajectory"])
    def test_malformed_file_is_a_config_error(self, tmp_path, capsys, name, text, needle):
        path = write_input(tmp_path / name, text)
        code = main(["report", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        assert err.startswith(f"config error: cannot report on {name!r}") and needle in err


class TestRunFlags:
    """RunConfig's fields are the one table of run settings: each is one flag of
    ``run`` and ``sweep`` and a ``--grid`` axis read as that flag reads it."""

    # a token each non-bool flag reads, and the value it gives
    TOKENS = {int: ("7", 7), float: ("1", 1.0), str: ("2", "2"),
              dict: ('{"a": 1}', {"a": 1})}

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("field", fields(harness.RunConfig), ids=lambda f: f.name)
    def test_each_field_has_one_flag_that_reaches_it(self, monkeypatch, command, field):
        (action,) = [a for a in subparser(command)._actions if a.dest == field.name]
        (flag,) = action.option_strings
        tp = harness.field_types(harness.RunConfig)[field.name][0][0]
        if tp is bool:
            expected = not field.default
            argv, token = [flag], str(expected)
        else:
            token, expected = self.TOKENS[tp]
            argv = [flag, token]
        config = cli._config_from_args(cli.build_parser().parse_args([command, *argv]))
        assert config == replace(harness.RunConfig(), **{field.name: expected})
        assert type(getattr(config, field.name)) is type(expected)
        if command == "sweep":
            (value,) = sweep_axes(monkeypatch, ["--grid", f"{field.name}={token}"])[field.name]
            assert (value, type(value)) == (expected, type(expected))

    def test_readme_lists_exactly_the_run_flags(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("### Run one experiment")[1].split("\n### ")[0]
        listed = re.search(r"one flag per field,(.*?)\.", section, re.DOTALL).group(1)
        flags = {command: {flag for action in subparser(command)._actions
                           for flag in action.option_strings} - {"-h", "--help", "--config"}
                 for command in ("run", "sweep")}
        assert set(re.findall(r"`(--[\w-]+)`", listed)) == flags["run"]
        assert flags["sweep"] == flags["run"] | {"--grid", "--seeds", "--csv-name"}


def test_readme_module_names_resolve():
    # Every backticked `module.name` (a call such as `autodiff.backward(output,
    # wrt)` names `backward`) must still exist in hessopt.<module>.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    named = re.findall(r"`(?:hessopt\.)?(autodiff|problems|hutchinson|optim|oracle|harness|cli)"
                       r"\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)", readme)
    assert ("hutchinson", "probe_pass") in named
    unresolved = []
    for module, path in named:
        obj = importlib.import_module(f"hessopt.{module}")
        for part in path.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            unresolved.append(f"{module}.{path}")
    assert unresolved == []


class TestParser:
    def test_subcommand_is_required(self, capsys):
        assert main([]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("config error: hessopt: ")

    @pytest.mark.parametrize("argv,line", [
        (["run", "--iters", "abc"],
         "config error: hessopt run: argument --iters: invalid int value: 'abc'"),
        (["run", "--bogus"], "config error: hessopt: unrecognized arguments: --bogus"),
        (["frobnicate"], "config error: hessopt: argument command: invalid choice: "),
        (["run", "--lr", "-5e-135"], "config error: lr must be positive"),
        (["run", "--lr", "-inf"], "config error: lr must be finite, got -inf"),
        (["run", "--lr", "-1e-3x"],
         "config error: hessopt run: argument --lr: expected one argument"),
        (["run", "--schedule", "step"], "config error: invalid schedule: unknown schedule "
                                        "'step'; available: constant, linear_warmup_then_decay, "
                                        "step_decay"),
    ], ids=["bad-int", "unknown-flag", "unknown-command", "negative-lr", "negative-infinite-lr",
            "not-a-number", "unknown-schedule"])
    def test_argv_error_is_one_config_error_line(self, capsys, argv, line):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith(line)

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("value", ["-1e-3", "-5e-135", "-inf", "-1E+2", "-.5", "-1_0"])
    def test_negative_value_in_any_float_form_is_a_value(self, command, value):
        # argparse alone takes only -\d+ and -\d*.\d+ for negative numbers
        args = cli.build_parser().parse_args([command, "--loss-threshold", value])
        assert args.loss_threshold == float(value)

    def test_negative_loss_threshold_in_exponent_form_runs(self, tmp_path, capsys):
        assert main(["run", "--problem", "fig1-quadratic", "--iters", "2", "--no-cost-ratio",
                     "--loss-threshold", "-1e-3", "--out", str(tmp_path), "--run-name", "r"]) == 0
        header, _ = harness.load_trajectory(tmp_path / "r.trajectory.jsonl")
        assert header["config"]["loss_threshold"] == -1e-3
        assert capsys.readouterr().err == ""

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        assert "--iters" in capsys.readouterr().out

    def test_epilog_lists_registries(self):
        parser = cli.build_parser()
        assert "adahessian" in parser.epilog
        assert "noisy-parabola" in parser.epilog

    def test_cached_parser_parses_as_a_fresh_one(self):
        # One parser per process; each argv, a failing one included, reads
        # the same through it as through a parser built for that argv alone.
        argvs = [
            ["run", "--problem", "logreg", "--problem-params", '{"batch_size": 32}',
             "--no-hessian-ema", "--lr", "0.05"],
            ["sweep", "--grid", "lr=0.1,0.2", "--schedule-params", '{"warmup_steps": 3}',
             "--no-cost-ratio", "--seeds", "0,1"],
            ["run", "--iters", "abc"],
            ["run", "--problem-params", "[1]"],
            ["verify", "--seed", "3", "--properties", "hvp_linearity"],
            ["report", "x.trajectory.jsonl"],
            ["run"],
            ["sweep", "--grid", "iters=2", "--csv-name", "a.csv"],
        ]

        def parse(parser, argv):
            try:
                return parser.parse_args(argv)
            except harness.ConfigError as exc:
                return f"ConfigError: {exc}"

        assert cli.build_parser() is cli.build_parser()
        results = [parse(cli.build_parser(), argv) for argv in argvs]
        assert results == [parse(cli.build_parser.__wrapped__(), argv) for argv in argvs]
        assert [type(r) for r in results].count(str) == 2


def _bench_module(name: str, monkeypatch):
    """``perfbench/<name>.py``, loaded from its file; nothing in it is changed."""
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(bench))  # run.py imports speed.py beside it
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", bench / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmarks_layer_calls_run_on_every_workload(monkeypatch):
    """perfbench reads the package through these calls (``build_loss``,
    ``DiagEstimate.values``, ``HutchinsonConfig(seed=)``, ``make_optimizer``'s
    ``block_size``, ...): a change that drops one fails here, not in every
    benchmark run. ``tape_nodes`` runs in every run's set-up, the layer
    timings in every traced run."""
    layers = _bench_module("layers", monkeypatch)
    for name, workload in _bench_module("run", monkeypatch).WORKLOADS.items():
        config = harness.RunConfig(**workload["layer_config"], seed=0)
        nodes = layers.tape_nodes(config, 0)
        forward, grad, hvp = (nodes[f"autodiff.nodes_{k}"] for k in ("forward", "grad", "hvp"))
        assert 0 < forward < grad < hvp, (name, nodes)  # each backward pass extends the tape
        timings = layers.autodiff_and_problem_layers(config, 0, 1)
        assert all(value > 0 for value in timings.values()), (name, timings)


class TestRepeatedCalls:
    """Calls in one process do the same work: no per-process cache may let a
    later call skip a function the benchmark's spans wrap (its traced runs
    compare every call's span counts with the first call's)."""

    # AdaHessian steps, and all optimizer steps with the SGD companion's, of
    # one call: iters_per_s divides by the first count.
    @pytest.mark.parametrize("workload,adahessian_steps,steps",
                             [pytest.param("train-dense", 300, 600, id="train-dense"),
                              pytest.param("sweep-sparse", 2_400, 2_600, id="sweep-sparse")])
    def test_every_call_counts_the_same_spans(self, tmp_path, monkeypatch, workload,
                                              adahessian_steps, steps):
        spans = _bench_module("spans", monkeypatch)
        argv = _bench_module("run", monkeypatch).WORKLOADS[workload]["argv"](0)
        monkeypatch.setenv("HESSOPT_OUT", str(tmp_path))
        cli.build_parser.cache_clear()  # the first call builds it, the later ones reuse it
        tracer = spans.Tracer()
        traced_main = tracer.root(cli.main)
        counts = []
        for call in range(3):
            tracer.call_id = call
            tracer.install()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert traced_main(argv) == 0
            finally:
                tracer.uninstall()
            counts.append(tracer.call_profile(call)["counts"])
        assert counts[1] == counts[0] and counts[2] == counts[0]
        assert counts[0]["cli.build_parser"] == 1
        assert counts[0]["problems.get_problem"] == 1
        assert counts[0]["autodiff.backward"] >= 1  # every call records its own tapes
        assert counts[0]["optim.AdaHessian.step"] == adahessian_steps
        assert sum(n for name, n in counts[0].items()
                   if name.startswith("optim.") and name.endswith(".step")) == steps


# Leaves of the values a fuzzed file's JSON value is swapped for: every JSON
# type, the non-finite floats, an int no float holds, and odd strings.
_JSON_LEAVES = (st.none() | st.booleans() | st.integers(-3, 3) | st.floats()
                | st.sampled_from([10**400, 2**64, "", "\n", "\ud800", "[[[", "a/b"])
                | st.text(max_size=4))
_JSON_VALUES = st.recursive(
    _JSON_LEAVES, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=6)


# Argv tokens that no flag expects; none of them asks for help.
_JUNK = (st.sampled_from(["--bogus", "-x", "abc", "--", "--iters=abc", "--lr=", "a\nb",
                          "-1", "1e400", "\ud800"])
         | st.text(max_size=4)).filter(
    lambda s: not (s.startswith("-h") or len(s) > 2 and "--help".startswith(s)))
# Properties that each verify in a few milliseconds.
_CHEAP_PROPERTIES = ["quadratic_hvp_exact", "hutchinson_diagonal_exact",
                     "ema_square_update", "one_step_quadratic"]
# Builder arguments: beyond a desk-scale cap but refused before any draw (numpy
# could not hold >= 10**10 entries), small, or any JSON value.
_BUILDER_VALUES = (st.sampled_from([10**10, [10**10, 1]]) | st.integers(-1, 3)
                   | st.sampled_from([[3, 4, 1], [4, 3]]) | st.deferred(lambda: _JSON_VALUES))
_REGISTRIES = {"--problem": PROBLEM_BUILDERS, "--optimizer": optim.OPTIMIZERS,
               "--schedule": optim._SCHEDULES}
# flag -> (valid values, boundary values); None stands for any flag of that type.
# No valid count runs for long, and every boundary one is refused.
_VALUES = {
    "--iters": (st.integers(1, 3), st.sampled_from([0, -1, 1_000_001])),
    "--samples": (st.integers(1, 3), st.sampled_from([0, -1, 1_000_001])),
    "--seeds": (st.lists(st.integers(0, 3).map(str), min_size=1, max_size=3,
                         unique=True).map(",".join), st.sampled_from(["", "0,0", "-1", "x"])),
    "--properties": (st.lists(st.sampled_from(_CHEAP_PROPERTIES), min_size=1,
                              max_size=2).map(",".join), st.sampled_from(["", ",", "a\nb"])),
    "--config": (st.just("config.json"), st.sampled_from(["missing.json", "."])),
    "--grid": (st.tuples(st.sampled_from([f.name for f in fields(harness.RunConfig)]),
                         st.lists(st.integers(0, 3).map(str) | st.sampled_from(["true", "x"]),
                                  min_size=1, max_size=3).map(",".join)).map("=".join),
               st.sampled_from(["lr=", "lr", "=1", "seed=1", "lr=nan,1e400"])),
    int: (st.integers(0, 5), st.sampled_from([-1, 1_000_001, 2**64, 10**30])),
    float: (st.floats(0.01, 0.99), st.sampled_from(["nan", "-inf", "1e400", "0", "-1"])),
    None: (st.text("ab.-_", min_size=1, max_size=6),  # a file name
           st.sampled_from(["", "a/b", "..", "a" * 300]) | st.text(max_size=4)),
}


def _params(builder) -> st.SearchStrategy:
    """JSON objects over ``builder``'s real argument names."""
    names = inspect.signature(builder).parameters
    return st.fixed_dictionaries({}, optional={n: _BUILDER_VALUES for n in names}).map(json.dumps)


def _mostly(value: st.SearchStrategy, rare: st.SearchStrategy, draw) -> st.SearchStrategy:
    """``value``, or one time in eight ``rare``."""
    return rare if draw(st.integers(0, 7)) == 3 else value


def _flag_tokens(flag: str, action: argparse.Action, draw) -> list[str]:
    """``flag`` and the value it takes: valid, at a boundary, or junk."""
    if action.nargs == 0:
        return [flag]
    if flag in ("--problem-params", "--schedule-params"):  # after what they parametrize
        kind = flag.replace("-params", "")
        name = draw(st.sampled_from(sorted(_REGISTRIES[kind])))
        return [kind, name, flag, draw(_mostly(_params(_REGISTRIES[kind][name]), _JUNK, draw))]
    if flag in _REGISTRIES:
        valid, boundary = st.sampled_from(sorted(_REGISTRIES[flag])), st.just("")
    else:
        valid, boundary = _VALUES.get(flag) or _VALUES[action.type if action.type in (int, float)
                                                        else None]
    return [flag, str(draw(_mostly(_mostly(valid, boundary, draw), _JUNK, draw)))]


class TestFuzz:
    """Mutated copies of real config, trajectory, summary and CSV files, through
    ``report`` and ``run --config``, and argv drawn from the subcommands' real
    flags: every one ends in a documented exit code with at most one line on
    stderr, and nothing escapes ``main``."""

    @pytest.fixture(scope="class")
    def seeds(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("fuzz-seeds")
        with contextlib.redirect_stdout(io.StringIO()):
            main(["run", "--problem", "fig1-quadratic", "--lr", "0.5", "--iters", "3",
                  "--out", str(out), "--run-name", "r"])
            main(["sweep", "--problem", "fig1-quadratic", "--optimizer", "sgd",
                  "--iters", "2", "--grid", "lr=0.01,0.1", "--out", str(out),
                  "--no-cost-ratio"])
        config = harness.RunConfig(iters=3, cost_ratio=False).to_dict()
        (out / "config.json").write_text(json.dumps(config, indent=1))
        return out

    @staticmethod
    def swap(data, draw):
        """``data`` (parsed JSON) with the value at a drawn path of keys and
        indices, most often a leaf, swapped for a drawn JSON value."""
        if isinstance(data, (dict, list)) and data and draw(st.integers(0, 4)):
            key = draw(st.sampled_from(sorted(data) if isinstance(data, dict) else range(len(data))))
            data[key] = TestFuzz.swap(data[key], draw)
            return data
        return draw(_JSON_VALUES)

    @staticmethod
    def mutate(text: bytes, suffix: str, kind: str, draw) -> bytes:
        if kind == "truncate":
            return text[:draw(st.integers(0, len(text)))]
        if kind == "nest":  # where a value or a line starts
            at = draw(st.sampled_from([0] + [i + 1 for i, c in enumerate(text) if c in b":[\n"]))
            return text[:at] + b"[" * draw(st.sampled_from([100_000, 500])) + text[at:]
        if kind == "flip":
            for _ in range(draw(st.integers(1, 3))):
                i = draw(st.integers(0, len(text) - 1))
                text = text[:i] + bytes([text[i] ^ draw(st.integers(1, 255))]) + text[i + 1:]
            return text
        if suffix == ".json":
            return json.dumps(TestFuzz.swap(json.loads(text), draw)).encode()
        lines = text.decode().splitlines()
        i = draw(st.integers(0, len(lines) - 1))
        if suffix == ".csv":
            cells = lines[i].split(",")
            cells[draw(st.integers(0, len(cells) - 1))] = json.dumps(draw(_JSON_VALUES))
            lines[i] = ",".join(cells)
        else:
            lines[i] = json.dumps(TestFuzz.swap(json.loads(lines[i]), draw))
        return ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("kind", ["truncate", "flip", "swap", "nest"])
    @pytest.mark.parametrize("name", ["config.json", "r.summary.json", "r.trajectory.jsonl",
                                      "sweep.csv"])
    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_mutated_files_end_in_a_documented_exit(self, seeds, tmp_path_factory, name, kind,
                                                    data):
        suffix = Path(name).suffix
        text = self.mutate((seeds / name).read_bytes(), suffix, kind, data.draw)
        work = tmp_path_factory.mktemp("fuzz")
        path = work / f"input{suffix}"
        path.write_bytes(text)
        for argv in (["report", str(path)],
                     ["run", "--config", str(path), "--iters", "1", "--samples", "1",
                      "--no-cost-ratio", "--out", str(work / "out")]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2, 3), (argv, text)
            assert len(err.getvalue().splitlines()) <= 1, (argv, text, err.getvalue())

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_drawn_argv_ends_in_a_documented_exit(self, tmp_path_factory, data):
        # Relative paths land in a fresh directory; every --out is a tmp path,
        # and the ones appended last win over any drawn before them.
        work = tmp_path_factory.mktemp("argv")
        (work / "config.json").write_text(json.dumps({"iters": 2, "cost_ratio": False}))
        (subparsers,) = [a.choices for a in cli.build_parser()._actions
                         if isinstance(a, argparse._SubParsersAction)]
        command = data.draw(_mostly(st.sampled_from(sorted(subparsers)), _JUNK, data.draw))
        argv = [command]
        if command in subparsers:
            flags = {flag: action for action in subparsers[command]._actions
                     for flag in action.option_strings if flag not in ("-h", "--help", "--out")}
            # the flags each command needs to do any work come last, so they win
            last = {"run": ["--problem-params", "--iters"],
                    "sweep": ["--problem-params", "--grid", "--iters"],
                    "verify": ["--properties"]}.get(command, [])
            drawn = st.lists(st.sampled_from(sorted(flags)), max_size=3) if flags else st.just([])
            for flag in data.draw(drawn) + last:
                argv += _flag_tokens(flag, flags[flag], data.draw)
            if command == "report":
                argv += [data.draw(_mostly(st.just("config.json"),
                                           st.sampled_from(["x.jsonl", "."]) | _JUNK, data.draw))]
            else:
                argv += ["--out", str(work / "out")]
        if data.draw(st.integers(0, 7)) == 3:
            argv += [data.draw(_JUNK)]
        err = io.StringIO()
        with (contextlib.chdir(work), contextlib.redirect_stdout(io.StringIO()),
              contextlib.redirect_stderr(err)):
            code = main(argv)
        assert code in (0, 1, 2, 3), argv
        assert len(err.getvalue().splitlines()) <= 1, (argv, err.getvalue())
