"""Optimizers: the adaptive second-order update plus first-order baselines.

All optimizers share one shape of interface: ``step(theta, grad, ...)``
returns the next parameter vector and advances internal state by exactly one
iteration.

The second-order method preconditions with a moving root-mean-square of the
spatially averaged Hessian diagonal:

    m_t   = beta1 EMA of gradients, bias-corrected
    Dbar_t = sqrt( beta2 EMA of Ds_t^2 / (1 - beta2^t) )
    theta <- theta - lr * m_t / (Dbar_t^k + eps)

with Ds_t the block-averaged diagonal estimate (reused from the last fresh
estimate on skipped iterations). k in [0, 1] interpolates between plain
gradient momentum (k=0) and full diagonal-Newton-like scaling (k=1). Weight
decay is decoupled: applied directly to theta, outside the adaptive term.

Each optimizer binds its state, its scratch vectors and a 0-d float64 array
for each scalar operand once, at construction; the scalars that change each
iteration (``lr * lr_factor``, ``1 - beta1**t``, ``1 - beta2**t``) are
rewritten into theirs, computed in Python as the formulas state them. A step
then runs in place and hands numpy no Python scalar, so it costs little more
than its arithmetic. It performs the same IEEE operations on the same
operands as its formula written out of place, so the bits are the same, and
it allocates only the theta it returns (callers keep earlier ones) and the
second moment :func:`ema_square_update` returns.
"""

from __future__ import annotations

import math
import numbers
from functools import lru_cache
from typing import Sequence

import numpy as np

from .autodiff import NumericError, all_finite, as_float64, c_copyto

__all__ = [
    "BlockSpec",
    "spatial_average",
    "ema_square_update",
    "hessian_ema_square_update",
    "Optimizer",
    "SGD",
    "Adagrad",
    "RMSProp",
    "Adam",
    "AdamW",
    "AdaHessian",
    "OPTIMIZERS",
    "make_optimizer",
    "optimizer_names",
    "Schedule",
    "make_schedule",
]


class BlockSpec:
    """Block layout for spatial averaging of the Hessian diagonal.

    Parameters are partitioned into groups (one per model tensor); each group
    is split into consecutive blocks of ``block_size``. Blocks never straddle
    a group boundary, so a group whose length is not a multiple of the block
    size ends with one shorter block, averaged over its actual length.
    """

    def __init__(self, block_size: int, group_sizes: Sequence[int]):
        if block_size < 1:
            raise ValueError("block size must be >= 1")
        group_sizes = [int(s) for s in group_sizes]
        if any(s < 1 for s in group_sizes):
            raise ValueError("group sizes must be positive")
        self.block_size = int(block_size)
        self.group_sizes = group_sizes
        self.dim = sum(group_sizes)
        starts, counts = [], []
        offset = 0
        for size in group_sizes:
            end = offset + size
            for start in range(offset, end, self.block_size):
                starts.append(start)
                counts.append(min(self.block_size, end - start))
            offset = end
        self._starts = np.array(starts, dtype=np.intp)
        self._lengths = np.array(counts, dtype=np.float64)
        # The block of each coordinate, to spread the block means back out.
        self._block_of = np.arange(len(counts)).repeat(counts)

    def __repr__(self) -> str:
        return f"BlockSpec(block_size={self.block_size}, group_sizes={self.group_sizes})"


def spatial_average(D: np.ndarray, blocks: BlockSpec) -> np.ndarray:
    """Replace each entry by the mean of its block (Hessian-diagonal smoothing)."""
    D = as_float64(D)
    if D.shape != (blocks.dim,):
        raise ValueError(f"expected vector of length {blocks.dim}, got {D.shape}")
    if blocks.block_size == 1:
        return D.copy()
    means = np.add.reduceat(D, blocks._starts)
    np.divide(means, blocks._lengths, means)
    return means.take(blocks._block_of)


@lru_cache(maxsize=8)
def _ema_constants(beta2: float) -> tuple[np.ndarray, np.ndarray]:
    """``beta2`` and ``1.0 - beta2`` as 0-d arrays, made once per value."""
    return np.array(beta2, dtype=np.float64), np.array(1.0 - beta2, dtype=np.float64)


def ema_square_update(prev: np.ndarray, value: np.ndarray, beta2: float) -> np.ndarray:
    """One step of the squared-value exponential moving average.

    Kept as a free function so the verification suite can exercise it (and
    detect tampering) in isolation. It computes
    ``beta2 * prev + (1.0 - beta2) * value * value`` in that order, in two
    new arrays. ``beta2`` and ``1.0 - beta2`` enter as 0-d arrays from a
    small cache keyed by ``beta2``, which give the bits the Python floats
    give without numpy converting them on every call.
    """
    keep, take = _ema_constants(beta2)
    out = np.multiply(value, take)
    np.multiply(out, value, out)
    return np.add(out, np.multiply(prev, keep), out)


# The curvature track resolves the recurrence through this module-level name,
# so a fault injected here is seen by the second-order path alone; the
# verification suite relies on that to prove its checks can actually fail.
hessian_ema_square_update = ema_square_update


def _is_finite(value) -> bool:
    """math.isfinite, with an int too large for a float counted as not finite."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _iteration(name: str, value) -> int:
    """``value`` as an iteration count: an int, or a float holding a whole number."""
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()
    ):
        raise ValueError(f"{name} must be a whole number of iterations, got {value!r}")
    return int(value)


def _check_beta(name: str, value: float) -> float:
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie strictly between 0 and 1")
    return float(value)


class Optimizer:
    """Common hyperparameter checks, shape checks and the finite-update guard,
    and the arrays every step binds once: the weight decay and eps as 0-d
    operands, the current step's learning rate, and the scratch vectors."""

    kind = "base"

    def __init__(self, dim: int, lr: float, weight_decay: float = 0.0, eps: float = 1e-8):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        for name, value in (("lr", lr), ("weight_decay", weight_decay), ("eps", eps)):
            if not _is_finite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if lr <= 0:
            raise ValueError("lr must be positive")
        if weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if eps < 0:
            raise ValueError("eps must be >= 0")
        self.dim = int(dim)
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.eps = float(eps)
        self.t = 0
        self._weight_decay = np.array(self.weight_decay)
        self._eps = np.array(self.eps)
        # Rewritten each step: lr * lr_factor, 1 - beta1**t, 1 - beta2**t and
        # the decoupled weight decay's factor lr * lr_factor * weight_decay.
        self._eff_lr, self._bias1, self._bias2, self._shrink = (np.zeros(()) for _ in range(4))
        self._decayed = np.empty(self.dim)  # the gradient or theta after weight decay
        self._update = np.empty(self.dim)
        self._denom = np.empty(self.dim)

    def step(self, theta: np.ndarray, grad: np.ndarray, lr_factor: float = 1.0) -> np.ndarray:
        raise NotImplementedError

    def _check(self, theta, grad):
        theta = as_float64(theta)
        grad = as_float64(grad)
        if theta.shape != (self.dim,) or grad.shape != (self.dim,):
            raise ValueError(f"theta and grad must have shape ({self.dim},)")
        return theta, grad

    def _guard_update(self, update: np.ndarray) -> np.ndarray:
        if not all_finite(update):
            bad = int(np.flatnonzero(~np.isfinite(update))[0])
            raise NumericError(
                f"{self.kind} produced a non-finite update at coordinate {bad} "
                f"(iteration {self.t})", phase="step"
            )
        return update


# Each step hands every ufunc its output positionally and only arrays: a
# scalar enters as a 0-d array, which gives the bits the Python float gives.
# It performs the IEEE operations its docstring's formula names, in order,
# with multiplication and addition commuted where convenient, which is
# exact; the tests write each formula out of place and compare the bytes.


class SGD(Optimizer):
    """Gradient descent with an exponentially averaged momentum buffer.

    buffer_t = momentum * buffer_{t-1} + (1 - momentum) * g_t;
    theta <- theta - lr * buffer_t. momentum=0 disables the buffer entirely.
    Weight decay enters the gradient (classical L2 coupling).
    """

    kind = "sgd"

    def __init__(self, dim, lr, momentum: float = 0.9, weight_decay: float = 0.0):
        super().__init__(dim, lr, weight_decay)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        self.momentum = float(momentum)
        self._momentum = np.array(self.momentum)
        self._one_minus_momentum = np.array(1.0 - self.momentum)
        self.buffer = np.zeros(self.dim)

    def step(self, theta, grad, lr_factor=1.0):
        theta, grad = self._check(theta, grad)
        self.t += 1
        self._eff_lr[()] = self.lr * lr_factor
        if self.weight_decay > 0:
            grad = np.add(np.multiply(theta, self._weight_decay, self._decayed), grad,
                          self._decayed)
        if self.momentum > 0:
            np.multiply(self.buffer, self._momentum, self.buffer)
            np.add(self.buffer, np.multiply(grad, self._one_minus_momentum, self._update),
                   self.buffer)
            grad = self.buffer
        update = np.multiply(grad, self._eff_lr, self._update)
        return np.subtract(theta, self._guard_update(update))


class Adagrad(Optimizer):
    """Accumulated squared gradients; denominator sqrt(sum g^2) + eps."""

    kind = "adagrad"

    def __init__(self, dim, lr, weight_decay: float = 0.0, eps: float = 1e-8):
        super().__init__(dim, lr, weight_decay, eps)
        self.accum = np.zeros(self.dim)

    def step(self, theta, grad, lr_factor=1.0):
        theta, grad = self._check(theta, grad)
        self.t += 1
        self._eff_lr[()] = self.lr * lr_factor
        if self.weight_decay > 0:
            grad = np.add(np.multiply(theta, self._weight_decay, self._decayed), grad,
                          self._decayed)
        np.add(self.accum, np.multiply(grad, grad, self._denom), self.accum)
        denom = np.add(np.sqrt(self.accum, self._denom), self._eps, self._denom)
        update = np.divide(np.multiply(grad, self._eff_lr, self._update), denom, self._update)
        return np.subtract(theta, self._guard_update(update))


class RMSProp(Optimizer):
    """EMA of squared gradients without bias correction; no momentum."""

    kind = "rmsprop"

    def __init__(self, dim, lr, beta2: float = 0.99, weight_decay: float = 0.0,
                 eps: float = 1e-8):
        super().__init__(dim, lr, weight_decay, eps)
        self.beta2 = _check_beta("beta2", beta2)
        self.v = np.zeros(self.dim)

    def step(self, theta, grad, lr_factor=1.0):
        theta, grad = self._check(theta, grad)
        self.t += 1
        self._eff_lr[()] = self.lr * lr_factor
        if self.weight_decay > 0:
            grad = np.add(np.multiply(theta, self._weight_decay, self._decayed), grad,
                          self._decayed)
        self.v = ema_square_update(self.v, grad, self.beta2)
        denom = np.add(np.sqrt(self.v, self._denom), self._eps, self._denom)
        update = np.divide(np.multiply(grad, self._eff_lr, self._update), denom, self._update)
        return np.subtract(theta, self._guard_update(update))


class Adam(Optimizer):
    """Bias-corrected first and second gradient moments.

    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps). Weight decay, when
    set, enters the gradient (L2 coupling); see AdamW for the decoupled form.
    """

    kind = "adam"
    decoupled_wd = False

    def __init__(self, dim, lr, beta1: float = 0.9, beta2: float = 0.999,
                 weight_decay: float = 0.0, eps: float = 1e-8):
        super().__init__(dim, lr, weight_decay, eps)
        self.beta1 = _check_beta("beta1", beta1)
        self.beta2 = _check_beta("beta2", beta2)
        self._beta1, self._one_minus_beta1 = np.array(self.beta1), np.array(1.0 - self.beta1)
        self.m = np.zeros(self.dim)
        self.v = np.zeros(self.dim)

    def step(self, theta, grad, lr_factor=1.0):
        theta, grad = self._check(theta, grad)
        self.t += 1
        eff_lr = self._eff_lr[()] = self.lr * lr_factor
        self._bias1[()] = 1.0 - self.beta1**self.t
        self._bias2[()] = 1.0 - self.beta2**self.t
        if self.weight_decay > 0:
            if self.decoupled_wd:
                self._shrink[()] = eff_lr * self.weight_decay
                theta = np.subtract(theta, np.multiply(theta, self._shrink, self._decayed),
                                    self._decayed)
            else:
                grad = np.add(np.multiply(theta, self._weight_decay, self._decayed), grad,
                              self._decayed)
        np.multiply(self.m, self._beta1, self.m)
        np.add(self.m, np.multiply(grad, self._one_minus_beta1, self._update), self.m)
        self.v = ema_square_update(self.v, grad, self.beta2)
        denom = np.divide(self.v, self._bias2, self._denom)  # v_hat
        np.add(np.sqrt(denom, denom), self._eps, denom)
        update = np.divide(self.m, self._bias1, self._update)  # m_hat
        np.divide(np.multiply(update, self._eff_lr, update), denom, update)
        return np.subtract(theta, self._guard_update(update))


class AdamW(Adam):
    """Adam with weight decay applied directly to theta, outside the
    adaptive scaling."""

    kind = "adamw"
    decoupled_wd = True


class AdaHessian(Optimizer):
    """Gradient momentum preconditioned by an averaged Hessian diagonal.

    ``step`` takes the current spatially averaged diagonal estimate ``Ds``
    (pass None to reuse the previous one on skipped iterations); it is
    copied into ``last_Ds``, so the caller may reuse its array. With
    ``hessian_ema`` on, the preconditioner is the bias-corrected RMS of the
    Ds history; off, it is simply |Ds| of the current estimate, which makes
    the update hostage to single-point curvature noise (used for ablation).

    Feeding Ds := grad with k=1 and block size 1 reproduces Adam exactly.
    """

    kind = "adahessian"

    def __init__(self, dim, lr, beta1: float = 0.9, beta2: float = 0.999,
                 k: float = 1.0, weight_decay: float = 0.0, eps: float = 1e-8,
                 block_spec: BlockSpec | None = None, hessian_ema: bool = True):
        super().__init__(dim, lr, weight_decay, eps)
        self.beta1 = _check_beta("beta1", beta1)
        self.beta2 = _check_beta("beta2", beta2)
        self._beta1, self._one_minus_beta1 = np.array(self.beta1), np.array(1.0 - self.beta1)
        if not 0.0 <= k <= 1.0:
            raise ValueError("hessian power k must lie in [0, 1]")
        self.k = float(k)
        if block_spec is not None and block_spec.dim != self.dim:
            raise ValueError("block spec dimension mismatch")
        self.block_spec = block_spec or BlockSpec(1, [self.dim])
        self.hessian_ema = bool(hessian_ema)
        self.m = np.zeros(self.dim)
        self.v_raw = np.zeros(self.dim)
        self.last_Ds = None
        self._Ds = np.empty(self.dim)  # last_Ds once a first estimate arrives

    def average_diagonal(self, raw_diag: np.ndarray) -> np.ndarray:
        """Spatially average a raw diagonal estimate over this block layout."""
        return spatial_average(raw_diag, self.block_spec)

    def step(self, theta, grad, Ds: np.ndarray | None = None, lr_factor: float = 1.0):
        theta, grad = self._check(theta, grad)
        self.t += 1
        if Ds is not None:
            Ds = as_float64(Ds)
            if Ds.shape != (self.dim,):
                raise ValueError(f"Ds must have shape ({self.dim},)")
            c_copyto(self._Ds, Ds)
            self.last_Ds = self._Ds
        elif self.last_Ds is None:
            raise ValueError("first step requires a diagonal estimate")
        Ds = self.last_Ds
        eff_lr = self._eff_lr[()] = self.lr * lr_factor
        self._bias1[()] = 1.0 - self.beta1**self.t
        if self.weight_decay > 0:
            self._shrink[()] = eff_lr * self.weight_decay
            theta = np.subtract(theta, np.multiply(theta, self._shrink, self._decayed),
                                self._decayed)
        np.multiply(self.m, self._beta1, self.m)
        np.add(self.m, np.multiply(grad, self._one_minus_beta1, self._update), self.m)
        # The squared-Ds average advances every iteration, including ones
        # that reuse an old estimate, so the bias correction sees global t.
        self.v_raw = hessian_ema_square_update(self.v_raw, Ds, self.beta2)
        if self.hessian_ema:
            self._bias2[()] = 1.0 - self.beta2**self.t
            denom = np.sqrt(np.divide(self.v_raw, self._bias2, self._denom), self._denom)  # Dbar
        else:
            denom = np.abs(Ds, self._denom)
        if self.k != 1.0:  # x**1.0 is exactly x
            denom **= self.k  # the kernel Dbar**k calls, in place
        np.add(denom, self._eps, denom)
        update = np.divide(self.m, self._bias1, self._update)  # m_hat
        np.divide(np.multiply(update, self._eff_lr, update), denom, update)
        return np.subtract(theta, self._guard_update(update))


OPTIMIZERS: dict[str, type] = {
    "sgd": SGD,
    "adagrad": Adagrad,
    "rmsprop": RMSProp,
    "adam": Adam,
    "adamw": AdamW,
    "adahessian": AdaHessian,
}


def optimizer_names() -> list[str]:
    return sorted(OPTIMIZERS)


def make_optimizer(kind: str, dim: int, group_sizes: Sequence[int] | None = None,
                   **hyper) -> Optimizer:
    """Build an optimizer by registry name.

    For the second-order method, ``block_size`` (int) is translated into a
    BlockSpec over ``group_sizes`` (defaulting to one flat group).
    """
    try:
        cls = OPTIMIZERS[kind]
    except KeyError:
        raise KeyError(
            f"unknown optimizer {kind!r}; available: {', '.join(optimizer_names())}"
        ) from None
    if cls is AdaHessian:
        block_size = int(hyper.pop("block_size", 1))
        hyper["block_spec"] = BlockSpec(block_size, list(group_sizes or [dim]))
    return cls(dim, **hyper)


class Schedule:
    """Learning-rate multiplier as a function of the 1-based iteration."""

    def __call__(self, t: int) -> float:
        if t < 1:
            raise ValueError("iterations are 1-based")
        return self.factor_at(t)

    def factor_at(self, t: int) -> float:
        return 1.0


class StepDecay(Schedule):
    """Multiply by ``factor`` at each milestone iteration (inclusive)."""

    def __init__(self, milestones: Sequence[int], factor: float = 0.1):
        milestones = sorted(_iteration("milestone", m) for m in milestones)
        if any(m < 1 for m in milestones):
            raise ValueError("milestones must be positive iterations")
        if isinstance(factor, bool) or not 0.0 < factor <= 1.0:
            raise ValueError(f"decay factor must lie in (0, 1], got {factor!r}")
        self.milestones = milestones
        self.factor = float(factor)

    def factor_at(self, t):
        passed = sum(1 for m in self.milestones if m <= t)
        return self.factor**passed


class LinearWarmupThenDecay(Schedule):
    """Ramp linearly 0 -> 1 over the warmup, then linearly 1 -> 0 by the end."""

    def __init__(self, warmup_steps: int, total_steps: int):
        warmup_steps = _iteration("warmup_steps", warmup_steps)
        total_steps = _iteration("total_steps", total_steps)
        if warmup_steps < 1:
            raise ValueError("warmup_steps must be >= 1")
        if total_steps <= warmup_steps:
            raise ValueError("total_steps must exceed warmup_steps")
        self.warmup_steps = warmup_steps
        self.total_steps = total_steps

    def factor_at(self, t):
        if t <= self.warmup_steps:
            return t / self.warmup_steps
        remaining = self.total_steps - t
        return max(remaining / (self.total_steps - self.warmup_steps), 0.0)


_SCHEDULES = {
    "constant": Schedule,
    "step_decay": StepDecay,
    "linear_warmup_then_decay": LinearWarmupThenDecay,
}


def make_schedule(kind: str = "constant", **params) -> Schedule:
    try:
        cls = _SCHEDULES[kind]
    except KeyError:
        raise KeyError(
            f"unknown schedule {kind!r}; available: {', '.join(sorted(_SCHEDULES))}"
        ) from None
    return cls(**params)
