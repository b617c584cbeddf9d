"""Stochastic estimation of the Hessian diagonal.

For a Rademacher probe z (i.i.d. entries, +1 or -1 with probability 1/2),
E[z * (Hz)] equals diag(H) for symmetric H, so averaging z * Hz over probes
estimates the diagonal using only Hessian-vector products. A single probe is
exact whenever H is diagonal.

Estimates may be computed on a reduced schedule: every iteration during
warmup, then once every ``frequency`` iterations. Skipped iterations reuse
the most recent estimate; the caller's moment accumulators still advance
every iteration so bias corrections see the true iteration count.

Randomness comes from numpy's Philox generator (counter-based, explicitly
seeded), so estimates are reproducible bit-for-bit across platforms for a
given (seed, stream) pair. :func:`rademacher` draws one probe or a whole
``(n, d)`` batch of them in one call; the batch's rows are the probes that n
one-probe calls would have drawn, in order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import NumericError, all_finite, as_float64

__all__ = [
    "HutchinsonConfig",
    "DiagEstimate",
    "probe_rng",
    "rademacher",
    "estimate_diag",
    "should_compute",
]


@dataclass(frozen=True)
class HutchinsonConfig:
    """Estimation schedule and sampling parameters.

    Attributes:
        samples_per_estimate: probes averaged per estimate (>= 1).
        frequency: compute a fresh estimate every n-th iteration after warmup.
        warmup_steps: compute every iteration while t <= warmup_steps.
        seed: base seed for the probe generator.
    """

    samples_per_estimate: int = 1
    frequency: int = 1
    warmup_steps: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.samples_per_estimate < 1:
            raise ValueError("samples_per_estimate must be >= 1")
        if self.frequency < 1:
            raise ValueError("frequency must be >= 1")
        if self.warmup_steps < 0:
            raise ValueError("warmup_steps must be >= 0")


@dataclass
class DiagEstimate:
    """A Hessian-diagonal estimate and the iteration it was computed at.

    Entries may be negative in non-convex regions; the sign is preserved.
    """

    values: np.ndarray
    iteration_computed: int

    def __post_init__(self):
        self.values = as_float64(self.values)
        if not all_finite(self.values):
            raise ValueError("diagonal estimate contains non-finite entries")


def probe_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator keyed by (seed, stream).

    Philox is counter-based: the same key always reproduces the same draws,
    independent of platform or call history, which is what makes trajectory
    files byte-identical across reruns.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, stream])))


def rademacher(shape: int | tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    """I.i.d. entries drawn uniformly from {-1.0, +1.0}.

    ``shape`` is an int ``d`` for one probe of length d, or a pair ``(n, d)``
    for n probes stacked as rows. Row i of an ``(n, d)`` draw equals the i-th
    of n successive ``rademacher(d, rng)`` calls on an identically keyed
    generator, and leaves the generator in the same state: the batch consumes
    the same Philox output words in the same order.
    """
    # Plain-Python checks: np.atleast_1d would add microseconds to every probe.
    if type(shape) is tuple:
        if len(shape) != 2 or shape[0] < 1 or shape[1] < 1:
            raise ValueError(f"shape must be d or (n, d) with n, d >= 1, got {shape!r}")
    elif shape < 1:
        raise ValueError("d must be >= 1")
    z = rng.integers(0, 2, size=shape).astype(np.float64)
    z *= 2.0
    z -= 1.0
    return z


def estimate_diag(problem, theta, batch, cfg: HutchinsonConfig,
                  rng: np.random.Generator, iteration: int = 0,
                  hvp=None) -> DiagEstimate:
    """Mean of z * (Hz) over ``cfg.samples_per_estimate`` Rademacher probes.

    ``hvp`` may be a prebuilt ``z -> Hz`` callable (for example the harness's
    per-iteration tape); otherwise one is built from the problem at ``theta``
    over ``batch``. All probes share the same tape and batch. Raises
    NumericError (phase ``hvp``) if the probes' sum overflows.
    """
    if hvp is None:
        hvp = problem.hvp_operator(theta, batch)
    d = as_float64(theta).shape[0]
    acc = np.zeros(d)
    for _ in range(cfg.samples_per_estimate):
        z = rademacher(d, rng)
        acc += z * hvp(z)
    if not all_finite(acc):
        raise NumericError(f"non-finite value in {problem.name} Hutchinson sum of "
                           f"{cfg.samples_per_estimate} probes", phase="hvp")
    return DiagEstimate(acc / cfg.samples_per_estimate, iteration)


def should_compute(t: int, cfg: HutchinsonConfig) -> bool:
    """Whether iteration t (1-based) gets a fresh diagonal estimate.

    True during warmup (t <= warmup_steps) and then once every
    ``frequency`` iterations, starting immediately after warmup ends.
    """
    if t < 1:
        raise ValueError("iterations are 1-based")
    if t <= cfg.warmup_steps:
        return True
    return (t - cfg.warmup_steps - 1) % cfg.frequency == 0
