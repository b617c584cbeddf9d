"""Golden trajectories: every problem x optimizer pair, pinned as exact floats.

The pinned file is the bit-identity gate for changes to the tape and the run
loop: per-iteration losses, the final parameter vector and the final loss
must equal it exactly, not to a tolerance. The config estimates the Hessian
diagonal on 12 of 30 iterations (warmup 2, then every third), so AdaHessian
runs both the fresh-estimate and the reused-estimate branch of the loop.

Regenerate only for a change that is meant to alter the numbers:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import pytest

from hessopt.harness import RunConfig, run
from hessopt.optim import optimizer_names
from hessopt.problems import problem_names

GOLDEN = Path(__file__).with_name("golden_trajectories.json")
SETTINGS = {"iters": 30, "hessian_freq": 3, "warmup": 2, "block_size": 2, "seed": 0,
            "cost_ratio": False}
PAIRS = [(p, o) for p in problem_names() for o in optimizer_names()]


def trajectory(problem: str, optimizer: str) -> dict:
    result = run(RunConfig(problem=problem, optimizer=optimizer, **SETTINGS),
                 write_files=False)
    return {"status": result.status,
            "losses": [r.loss for r in result.records],
            "theta_final": [float(x) for x in result.theta_final],
            "final_loss": result.final_loss}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_pair(golden):
    assert golden["settings"] == SETTINGS
    assert sorted(golden["runs"]) == sorted(f"{p}/{o}" for p, o in PAIRS)


@pytest.mark.parametrize("problem,optimizer", PAIRS, ids=[f"{p}/{o}" for p, o in PAIRS])
def test_trajectory_is_bit_identical_to_golden(golden, problem, optimizer):
    assert trajectory(problem, optimizer) == golden["runs"][f"{problem}/{optimizer}"]


if __name__ == "__main__":
    runs = {f"{p}/{o}": trajectory(p, o) for p, o in PAIRS}
    GOLDEN.write_text(json.dumps({"settings": SETTINGS, "runs": runs}, indent=1) + "\n")
