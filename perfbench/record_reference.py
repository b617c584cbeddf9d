#!/usr/bin/env python3
"""Record the reference outputs the benchmark compares against.

    python3 perfbench/record_reference.py

Runs the ``train-dense`` and ``sweep-sparse`` calls once at the default seed
and writes their per-iteration losses and per-cell mean losses to
``perfbench/reference.json``. Re-record only when a change is meant to alter
those numbers, and say so with the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

import run


def main() -> int:
    work = run.OUT / f"reference-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    os.environ["HESSOPT_OUT"] = str(work)
    try:
        cli, *_ = run.set_up(run.WORKLOADS["train-dense"], run.speed.Sampler())
        seed = run.DEFAULT_SEED
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(run.train_dense_argv(seed)) or cli.main(run.sweep_sparse_argv(seed)):
                raise SystemExit("a reference call failed")
        trajectory = work / f"tiny-mlp_adahessian_s{seed}.trajectory.jsonl"
        losses = run.read_losses(trajectory.read_bytes())
        rows = run.read_cells(work / "sweep.csv")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    reference = {"seed": seed, "train-dense": {"losses": losses},
                 "sweep-sparse": {"rows": rows}}
    (run.BENCH_DIR / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
