"""Correcting wall times for the machine's own changes of speed.

On a shared virtual machine the same code runs up to twice as slowly for
stretches of tens of seconds, and CPU time slows with wall time, so a median
over one run mostly records which stretches the run happened to hit. A fixed
calibration task, independent of hessopt, therefore measures the machine's
speed: ten times in a block before and after every measured step, and once
every ``SAMPLE_INTERVAL_S`` inside it, from a timer signal (a
:class:`Sampler`). The step's time at reference speed is its wall time, less
the samples taken inside it, scaled by ``REFERENCE_S`` over the mean of the
block means and the inside samples.

The calibration task allocates and walks small objects the way the tape
does, so a slowdown stretches both alike. On the machine this was built on,
sampling inside the step halved the run-to-run spread left by correcting
from the blocks alone, and a plain arithmetic loop tracked the CLI calls
about half as well as this task.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# The calibration task's time with the machine at full speed: about its floor
# on a 2-vCPU Intel Xeon virtual machine at 2.0 GHz. It sets the unit of the
# corrected times; comparisons between commits do not depend on its value.
REFERENCE_S = 0.00065
SAMPLE_INTERVAL_S = 0.04
BLOCK = 10


def calibration_task() -> float:
    """Build a chain of small arrays with closures, then walk it backwards.

    Like a tape's forward and backward pass: short-lived small numpy arrays,
    tuples and closures, enough to drive the cyclic garbage collector.
    """
    nodes = []
    x = np.ones(16)
    for i in range(250):
        y = x * 1.0001 + 0.5
        nodes.append((y, lambda c, y=y: c * y, i))
        x = y
    acc = np.zeros(16)
    for y, vjp, _ in reversed(nodes):
        acc = acc + vjp(y)
    return float(acc.sum())


def task_seconds() -> float:
    start = time.perf_counter()
    calibration_task()
    return time.perf_counter() - start


def block_seconds() -> float:
    """Mean seconds of the calibration task over one block of runs."""
    return statistics.fmean(task_seconds() for _ in range(BLOCK))


class Sampler:
    """While entered, times the calibration task on every timer signal.

    Enter it around exactly the timed region; subtract ``busy_s`` from that
    region's wall time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        self.samples.append(task_seconds())

    def __enter__(self) -> "Sampler":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def busy_s(self) -> float:
        return sum(self.samples)


def corrected_times(step, more, sampler: Sampler | None) -> tuple[list[float], list[float]]:
    """Run ``step()`` while ``more(n)`` holds, n being the steps so far.

    ``step`` returns its wall seconds, with ``sampler.busy_s`` already taken
    off when it entered ``sampler``. Returns the wall times and the same
    times at reference speed.
    """
    walls, corrected = [], []
    before = block_seconds()
    while more(len(walls)):
        wall = step()
        after = block_seconds()
        inside = sampler.samples if sampler is not None else []
        walls.append(wall)
        corrected.append(wall * REFERENCE_S / statistics.fmean([before, after, *inside]))
        before = after
    return walls, corrected
