#!/usr/bin/env python3
"""Alternating benchmark pairs of two source trees, summarized into a BENCH file.

    python3 tools/bench_pairs.py --parent ../parent --change . --pr 10 \
        --workload train-dense --workload verify --pairs 10 --seed 0 --seed 11 --seconds 30

Each pair runs ``perfbench/run.py --trace 0`` once in each tree, one run
after the other, the parent first in even pairs and the change first in odd
ones, so that a drift of the machine's speed falls on both sides alike. Each
workload gets its pairs on each ``--seed`` in turn (seed 0 if none is given).
Each run uses the benchmark and the package of its own tree, with bytecode
writing off, as the benchmark is run on a fresh checkout.

``BENCH_<pr>.json`` (at the root of the tree holding this script) gets, per
workload and seed, every end-to-end metric of ``BENCHMARK.json`` with each
side's median and quartiles over its runs, the ratio of the medians, how many
pairs the change won (ties count for neither side), whether the change's
median is within the metric's bound, whether a gain is shown (``gain_shown``:
the change won at least 9 pairs in 10 and its median is better than the
parent's by more than the parent's IQR), whether every run of the change is
better than every run of the parent (``all_change_runs_better``), whether
the metric is unresolved (``unresolved``: the parent's IQR is more than the
bound's share of its median, and not every change run is better than every
parent run, so the runs cannot show the change within its bound or
unchanged), and every run's value; plus the failed
and attempted calls of each side, the work counters of each run, and whether
every run of both sides counted the same work (``counters_equal``: a change of
kernel must do the same work in less time). When they did not,
``counters_changed`` names each counter whose value differs between runs, with
each side's values, run by run (null where a run lacks it). ``env`` keeps
each run's machine state as its result file records it (CPU counts, python
and numpy versions, load averages at start and end), and
``numpy_versions_equal`` is false when the runs did not all use one numpy
version, since a speed ratio across two numpy builds measures numpy. The file
is rewritten after every pair, so an interrupted session keeps the pairs it
finished; entries of other workloads or seeds already in it are kept.
"""

from __future__ import annotations

import argparse
import itertools
import json
import operator
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``tree``: its final JSON line, plus the
    work counters and the machine state (``env``) from the result file the
    run leaves in ``perfbench/out``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: perfbench exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    saved = tree / "perfbench" / "out" / f"result-{workload}-s{seed}-trace0.json"
    saved = json.loads(saved.read_text())
    result["counters"], result["env"] = saved["counters"], saved["env"]
    return result


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "iqr": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs: list[dict], spec: list[dict]) -> dict:
    """Per metric, both sides over the pairs in ``runs`` ({"parent": result,
    "change": result} each)."""
    metrics = {}
    for m in spec:
        name, lower = m["name"], m["better"] == "lower"
        values = {side: [r[side]["metrics"][name]["value"] for r in runs] for side in SIDES}
        better = operator.lt if lower else operator.gt  # better(change, parent)
        wins = sum(map(better, values["change"], values["parent"]))
        parent, change = quartiles(values["parent"]), quartiles(values["change"])
        limit = parent["median"] * (1 + m["bound"] if lower else 1 - m["bound"])
        gain = parent["median"] - change["median"]
        gain = gain if lower else -gain
        all_better = all(better(c, p) for c in values["change"] for p in values["parent"])
        metrics[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent": parent, "change": change,
            "ratio_of_medians": change["median"] / parent["median"],
            "change_wins": f"{wins}/{len(runs)}",
            "within_bound": change["median"] <= limit if lower else change["median"] >= limit,
            "gain_shown": 10 * wins >= 9 * len(runs) and gain > parent["iqr"],
            "all_change_runs_better": all_better,
            "unresolved": parent["iqr"] > m["bound"] * parent["median"] and not all_better,
            "parent_runs": values["parent"], "change_runs": values["change"],
        }
    counters = {side: [r[side]["counters"] for r in runs] for side in SIDES}
    envs = {side: [r[side]["env"] for r in runs] for side in SIDES}
    numpys = {side: sorted({env["numpy"] for env in envs[side]}) for side in SIDES}
    summary = {
        "pairs": len(runs),
        "all_correct": all(r[side]["correct"] for r in runs for side in SIDES),
        "failed_calls": {side: sum(r[side]["failed"] for r in runs) for side in SIDES},
        "attempted_calls": {side: sum(r[side]["attempted"] for r in runs) for side in SIDES},
        "metrics": metrics,
        "counters_equal": all(c == counters["parent"][0] for side in SIDES
                              for c in counters[side]),
        "counters": counters,
        "numpy_versions": numpys,
        "numpy_versions_equal": len({v for side in SIDES for v in numpys[side]}) == 1,
        "env": envs,
    }
    if not summary["counters_equal"]:
        names = dict.fromkeys(name for side in SIDES for c in counters[side] for name in c)
        values = {name: {side: [c.get(name) for c in counters[side]] for side in SIDES}
                  for name in names}
        summary["counters_changed"] = {
            name: both for name, both in values.items()
            if len({v for side in SIDES for v in both[side]}) > 1}
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent commit's tree")
    parser.add_argument("--change", type=Path, required=True, help="the change's tree")
    parser.add_argument("--pr", type=int, required=True, help="writes BENCH_<pr>.json")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, action="append",
                        help="benchmark seed, repeatable (default: 0)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--note", default="", help="what the change is, for the file")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"{tree} has no perfbench/run.py")
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    out = ROOT / f"BENCH_{args.pr}.json"
    bench = json.loads(out.read_text()) if out.exists() else {}
    bench.update({
        "change": args.note or bench.get("change", ""),
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0",
        "method": ("Each pair runs the parent's tree and the change's tree one after the "
                   "other, the parent first in even pairs, with PYTHONDONTWRITEBYTECODE=1. "
                   "Per metric: each side's median and quartiles (inclusive method) over "
                   "its runs; change_wins counts the pairs the change won, ties for "
                   "neither; within_bound compares the change's median with the parent's "
                   "by the bound of BENCHMARK.json; gain_shown holds when the change won "
                   "at least 9 pairs in 10 and its median is better than the parent's by "
                   "more than the parent's IQR; all_change_runs_better holds when every "
                   "change run is better than every parent run; unresolved holds when the "
                   "parent's IQR exceeds the bound's share of its median and not every "
                   "change run is better than every parent run, so the metric is neither "
                   "shown within its bound nor unchanged; counters_equal holds when "
                   "every run of both sides reports the same work counters, and "
                   "counters_changed gives each side's values of every counter that "
                   "differs when they do not; env is each run's machine state from its "
                   "result file, and numpy_versions_equal holds when every run used one "
                   "numpy version. Times are "
                   "perfbench's values at reference machine speed. Written by "
                   "tools/bench_pairs.py."),
    })
    bench.setdefault("end_to_end", {})
    for workload, seed in itertools.product(args.workload, args.seed or [0]):
        key = f"{workload} seed {seed}"
        runs: list[dict] = []
        for i in range(args.pairs):
            pair = {}
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                pair[side] = run_once(trees[side], workload, seed, args.seconds)
            runs.append(pair)
            bench["end_to_end"][key] = {"seconds": args.seconds, **summarize(runs, spec)}
            out.write_text(json.dumps(bench, indent=1) + "\n")
            p50 = bench["end_to_end"][key]["metrics"]["call_p50_s"]
            print(f"{key} pair {i + 1}/{args.pairs}: call_p50_s parent "
                  f"{pair['parent']['metrics']['call_p50_s']['value']:.5f} change "
                  f"{pair['change']['metrics']['call_p50_s']['value']:.5f} "
                  f"(medians {p50['parent']['median']:.5f} / {p50['change']['median']:.5f})",
                  flush=True)
            if not bench["end_to_end"][key]["numpy_versions_equal"]:
                print(f"{key}: the runs used different numpy versions "
                      f"{bench['end_to_end'][key]['numpy_versions']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
