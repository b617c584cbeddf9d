"""Tests for the paired-benchmark summary in ``tools/bench_pairs.py``."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

SPEC = [{"name": "call_p50_s", "unit": "s", "better": "lower", "bound": 0.2},
        {"name": "iters_per_s", "unit": "1/s", "better": "higher", "bound": 0.2}]
# Ten parent runs with quartiles 1.0225 and 1.0675 (inclusive method): IQR 0.045.
PARENT = [1.00 + 0.01 * i for i in range(10)]


ENV = {"nproc": 2, "cpus_allowed": 2, "python": "3.12.3", "numpy": "2.4.6",
       "loadavg_start": [0.5, 0.4, 0.3], "loadavg_end": [0.6, 0.4, 0.3]}


def result(value: float, numpy: str = "2.4.6") -> dict:
    """One run's result as ``perfbench/run.py`` prints it, with the same
    value for both metrics, and the counters and machine state from its
    result file."""
    return {"correct": True, "failed": 0, "attempted": 12, "counters": {"optim.steps": 3},
            "env": dict(ENV, numpy=numpy),
            "metrics": {m["name"]: {"value": value} for m in SPEC}}


def summarize(change: list[float]) -> dict:
    runs = [{"parent": result(p), "change": result(c)} for p, c in zip(PARENT, change)]
    return bench_pairs.summarize(runs, SPEC)["metrics"]


@pytest.mark.parametrize("change,wins,gain_shown,all_better", [
    # 9 of 10 won and one tie: the tie counts for neither side
    ([PARENT[0]] + [p - 0.1 for p in PARENT[1:]], "9/10", True, False),
    # 8 of 10 won: too few pairs, however large the drop of the median
    (PARENT[:2] + [p - 0.1 for p in PARENT[2:]], "8/10", False, False),
    # every pair won, but the medians differ by less than the parent's IQR
    ([p - 0.001 for p in PARENT], "10/10", False, False),
    # the drop is larger than the parent's spread: no change run reaches a parent run
    ([p - 0.2 for p in PARENT], "10/10", True, True),
    # worse everywhere
    ([p + 0.1 for p in PARENT], "0/10", False, False),
], ids=["nine-wins-one-tie", "eight-wins", "drop-inside-iqr", "separated", "worse"])
def test_gain_needs_nine_pairs_in_ten_and_a_drop_beyond_the_parent_iqr(
        change, wins, gain_shown, all_better):
    p50 = summarize(change)["call_p50_s"]
    assert p50["parent"]["iqr"] == pytest.approx(0.045)
    assert (p50["change_wins"], p50["gain_shown"], p50["all_change_runs_better"]) == (
        wins, gain_shown, all_better)


def test_higher_is_better_metrics_gain_from_a_rise():
    rise = summarize([p + 0.2 for p in PARENT])
    assert rise["iters_per_s"]["change_wins"] == "10/10"
    assert rise["iters_per_s"]["gain_shown"] and rise["iters_per_s"]["all_change_runs_better"]
    assert rise["call_p50_s"]["change_wins"] == "0/10"
    assert not rise["call_p50_s"]["gain_shown"]
    assert not rise["call_p50_s"]["all_change_runs_better"]


@pytest.mark.parametrize("last_change_steps,equal", [(3, True), (4, False)],
                         ids=["same-work", "one-run-differs"])
def test_counters_equal_needs_the_same_work_in_every_run(last_change_steps, equal):
    runs = [{"parent": result(p), "change": result(p - 0.1)} for p in PARENT]
    runs[-1]["change"]["counters"] = {"optim.steps": last_change_steps}
    summary = bench_pairs.summarize(runs, SPEC)
    assert summary["counters_equal"] is equal
    assert summary["counters"]["change"][-1] == {"optim.steps": last_change_steps}
    assert ("counters_changed" in summary) is not equal


def test_counters_changed_names_each_moved_counter_with_both_sides():
    parent = {"optim.steps": 3, "trace.spans": 100, "harness.runs": 1}
    change = {"optim.steps": 3, "trace.spans": 64, "hutchinson.probes": 2}
    runs = [{"parent": result(1.0), "change": result(1.0)} for _ in range(2)]
    for pair in runs:
        pair["parent"]["counters"], pair["change"]["counters"] = dict(parent), dict(change)
    runs[1]["parent"]["counters"]["trace.spans"] = 101
    changed = bench_pairs.summarize(runs, SPEC)["counters_changed"]
    assert changed == {
        "trace.spans": {"parent": [100, 101], "change": [64, 64]},
        "harness.runs": {"parent": [1, 1], "change": [None, None]},
        "hutchinson.probes": {"parent": [None, None], "change": [2, 2]},
    }


@pytest.mark.parametrize("change_numpy,equal", [("2.4.6", True), ("2.3.0", False)],
                         ids=["one-numpy", "two-numpys"])
def test_each_runs_env_is_kept_and_a_numpy_version_split_is_flagged(change_numpy, equal):
    runs = [{"parent": result(p), "change": result(p - 0.1)} for p in PARENT]
    runs[3]["change"] = result(1.0, numpy=change_numpy)
    summary = bench_pairs.summarize(runs, SPEC)
    assert summary["numpy_versions_equal"] is equal
    assert summary["numpy_versions"] == {"parent": ["2.4.6"],
                                         "change": sorted({"2.4.6", change_numpy})}
    assert summary["env"]["parent"] == [ENV] * len(PARENT)
    assert summary["env"]["change"][3] == dict(ENV, numpy=change_numpy)
    assert summary["env"]["change"][3]["loadavg_start"] == [0.5, 0.4, 0.3]


def test_run_once_takes_counters_and_env_from_the_result_file(tmp_path, monkeypatch):
    out = tmp_path / "perfbench" / "out"
    out.mkdir(parents=True)
    (out / "result-a-s3-trace0.json").write_text(
        json.dumps({"counters": {"optim.steps": 3}, "env": ENV, "metrics": {}}))

    def fake_run(cmd, **kwargs):
        assert cmd[1:] == ["perfbench/run.py", "--workload", "a", "--seed", "3",
                           "--seconds", "1.0", "--trace", "0"]
        assert kwargs["cwd"] == tmp_path and kwargs["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
        line = json.dumps({"correct": True, "failed": 0, "attempted": 2, "metrics": {}})
        return bench_pairs.subprocess.CompletedProcess(cmd, 0, "env ...\n" + line + "\n", "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    run = bench_pairs.run_once(tmp_path, "a", 3, 1.0)
    assert run["counters"] == {"optim.steps": 3}
    assert run["env"] == ENV


@pytest.mark.parametrize("seeds,keys", [
    (["--seed", "0", "--seed", "11"], ["a seed 0", "a seed 11", "b seed 0", "b seed 11"]),
    ([], ["a seed 0", "b seed 0"]),
], ids=["two-seeds", "default-seed"])
def test_each_seed_gets_its_own_pairs(tmp_path, monkeypatch, seeds, keys):
    trees = {}
    for side in bench_pairs.SIDES:
        trees[side] = tmp_path / side
        (trees[side] / "perfbench").mkdir(parents=True)
        (trees[side] / "perfbench" / "run.py").touch()
    (trees["change"] / "BENCHMARK.json").write_text(json.dumps({"end_to_end": SPEC}))
    calls = []

    def run_once(tree, workload, seed, seconds):
        calls.append((tree.name, workload, seed))
        return result(1.0 + seed)

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    assert bench_pairs.main(["--parent", str(trees["parent"]), "--change", str(trees["change"]),
                             "--pr", "7", "--workload", "a", "--workload", "b",
                             "--pairs", "2", *seeds]) == 0
    bench = json.loads((tmp_path / "BENCH_7.json").read_text())
    assert list(bench["end_to_end"]) == keys
    for key in keys:
        seed = int(key.rsplit(" ", 1)[1])
        entry = bench["end_to_end"][key]
        assert entry["pairs"] == 2
        assert entry["metrics"]["call_p50_s"]["parent_runs"] == [1.0 + seed] * 2
    # pairs alternate which side runs first
    expected = [(side, key.split()[0], int(key.rsplit(" ", 1)[1]))
                for key in keys for sides in (bench_pairs.SIDES, bench_pairs.SIDES[::-1])
                for side in sides]
    assert calls == expected
