"""Benchmark objectives: analytic toys, controlled quadratics, and small
stochastic learning problems.

Every problem exposes the same differentiable-function surface:

  - ``value(theta, batch)``: scalar loss
  - ``gradient(theta, batch)``: reverse-mode gradient
  - ``hvp(theta, z, batch)``: exact Hessian-vector product by backpropagating
    the gradient a second time, seeded with z: the numbers backpropagating
    the scalar ``gradient . z`` gives, without computing it
  - ``hvp_operator(theta, batch)``: one forward/backward tape reused for many
    probe vectors

``batch`` is ``None`` for full-batch evaluation; stochastic problems sample
index batches deterministically from ``(seed, t)``. The gradient and any
Hessian-vector product within one optimizer iteration always share a batch.
``sample_batch`` draws one iteration's batch through numpy's
``default_rng([seed, t])``, the reference. ``sample_batches`` draws the
batches of many iterations in one vectorized pass, bit for bit the same: the
SeedSequence hash shared with ``hutchinson.probe_keys``, PCG64 (O'Neill 2014)
in uint64 arithmetic and Floyd's sampling with Lemire's bounded draws (Lemire
2019), each step applied to every iteration at once.

Parameters are flat float64 vectors. ``group_sizes`` records the parameter
tensor layout (weight matrices, biases) so block-structured operations never
straddle tensor boundaries. A loss reads one tensor per group and one leaf per
per-sample array the problem declares once in ``batch_arrays``
(``loss(params, *inputs)``); every tape, recorded or eager, has one leaf per
tensor.

Tapes are recorded once and replayed (see ``hessopt.autodiff``). A problem
keeps one recorded tape per batch shape (``None`` for full batch), replayed by
both ``value_and_gradient`` and ``full_tape``; the tape also keeps the
program of its HVP probe, recorded with the gradient's in one recording and
replayed after it, so that steps the probe repeats of the gradient (tanh's
``1 - y**2``, the weights' transposes) are computed once. The recording is
optimized once when it ends (constants folded, repeated steps merged). A
tape owns everything its programs read: its own theta and z buffers, whose
slices its parameter and probe leaves view for the tape's life, and one
input leaf per batch array. A replay copies theta into its buffer and the
batch's rows of each batch array into the input leaves (a full-batch tape's
inputs never change), a probe copies z into its buffer, and each reruns the
remaining numpy steps. So nothing a caller does to its arrays afterwards
reaches a tape. The probe is one backward pass from every gradient part,
seeded with z's slice. The gradient's and the HVP's parts are joined after a
replay, so its outputs equal a fresh eager tape's over the parameter tensors
bit for bit, signed zeros included.
Everything a loss computes from those leaves must therefore be a taped op:
batch data enters a tape only as rows of ``batch_arrays``. Every HVP, and
every gradient after a batch shape's first recording, is a replay: an hvp
callable whose tape a later call moved replays it back first, to its own
copies of theta and the batch, and a non-finite replay raises the
``NumericError`` naming the op. Only ``value`` and ``relu_inputs`` stay
eager, over constant leaves of the same tensors: an independent path for
finite differences. A recording that raised is never kept.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .hutchinson import seed_words

__all__ = [
    "DifferentiableProblem",
    "QuadraticProblem",
    "NoisyParabola",
    "SyntheticDataset",
    "LogisticRegression",
    "TinyMLPRegression",
    "TinyMLPClassifier",
    "make_fig1_quadratic",
    "make_noisy_parabola",
    "make_random_spd_quadratic",
    "make_logreg",
    "make_tiny_mlp",
    "make_tiny_mlp_classifier",
    "get_problem",
    "problem_names",
    "PROBLEM_BUILDERS",
]

# The desk scale: parameters of a quadratic or an MLP, and the samples (n) and
# features (p) of a synthetic dataset.
_MAX_DIM = 64
_DESK_SCALE = {"n": 10_000, "p": 100}


def _group_slices(group_sizes: Sequence[int]) -> list[slice]:
    """The slice of a flat parameter vector holding each tensor."""
    stops = list(itertools.accumulate(group_sizes))
    return [slice(stop - size, stop) for size, stop in zip(group_sizes, stops)]


class _Tape:
    """A gradient tape of ``problem``, recorded at ``theta`` and ``batch``,
    owning everything its programs read.

    ``theta`` and ``z`` are the tape's own buffers. ``params`` holds one
    leaf per parameter tensor, a view of its slice of ``theta``, and the
    probe program reads one leaf per tensor of ``z`` alike: each bound once,
    for the tape's life. ``inputs`` holds one leaf per array of the
    problem's ``batch_arrays``, the batch's rows of it, or the whole array
    for the full batch; ``arrays`` are the arrays a replay takes new rows
    of, none for the full batch. ``grads`` holds the gradient's part of each
    parameter leaf. ``generation`` counts the tape's replays, so an hvp
    callable can tell that the nodes it would read now hold another point's
    data. ``probe`` holds the probe program, recorded with the gradient's
    and replayed after it, and its outputs (the HVP's parts).
    """

    __slots__ = ("theta", "z", "params", "inputs", "arrays", "loss", "grads", "program",
                 "generation", "probe")

    def __init__(self, problem: "DifferentiableProblem", theta: np.ndarray, batch):
        self.theta, self.z = theta.copy(), np.zeros_like(theta)
        parts = _group_slices(problem.group_sizes)
        self.params = [ad.variable(self.theta[part]) for part in parts]
        zs = [ad.constant(self.z[part]) for part in parts]
        self.inputs = list(map(ad.constant, problem.batch_inputs(batch)))
        self.arrays = () if batch is None else problem.batch_arrays
        self.program = ad.Program()
        with self.program.recording() as next_program:
            self.loss = problem.loss(self.params, *self.inputs)
            self.grads = ad.backward(self.loss, self.params)
            probe = next_program()
            # The probe's values at z = 0 are never read: a probe replays first.
            with np.errstate(all="ignore"):
                self.probe = probe, ad.backward(self.grads, self.params, zs)
        self.generation = 0

    def replay(self, theta: np.ndarray, batch) -> None:
        """Rerun the recorded tape at ``theta`` and ``batch``, copied into its leaves."""
        self.generation += 1
        ad.c_copyto(self.theta, theta)
        for array, leaf in zip(self.arrays, self.inputs):
            array.take(batch, axis=0, out=leaf.data)
        self.program.replay()


# ``default_rng`` is numpy's PCG64 (numpy/random/src/pcg64): a 128-bit LCG with
# this multiplier, whose every output is XSL-RR of the state after its step.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = (1 << 64) - 1
_LOW32, _SHIFT32 = np.uint64(0xFFFFFFFF), np.uint64(32)
# ``Generator.choice(n, b, replace=False)`` runs Floyd's algorithm for n up to
# this (beyond it, a tail shuffle once b > n // 50); SyntheticDataset's cap.
_FLOYD_MAX_N = 10_000
# Taken-mask entries (lanes x population) that one block of the batch pass holds.
_BATCH_BLOCK_ENTRIES = 1 << 18


@functools.cache
def _pcg_jumps(outputs: int) -> np.ndarray:
    """A read-only (4, outputs) uint64 array: columns k = 1..outputs hold the
    high and low halves of a_k and c_k, where PCG64 seeded from (initstate,
    inc) has state a_k * (initstate + inc) + c_k * inc (mod 2**128) at its
    k-th output."""
    a, c = _PCG_MULT, 1  # seeding steps from 0, adds initstate, steps again
    columns = []
    for _ in range(outputs):
        a, c = a * _PCG_MULT & (1 << 128) - 1, (c * _PCG_MULT + 1) & (1 << 128) - 1
        columns.append((a >> 64, a & _MASK64, c >> 64, c & _MASK64))
    jumps = np.array(columns, dtype=np.uint64).reshape(outputs, 4).T.copy()
    jumps.flags.writeable = False
    return jumps


def _mulhi(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The high 64 bits of the 128-bit products of uint64 arrays, from 32-bit halves."""
    x0, x1, y0, y1 = x & _LOW32, x >> _SHIFT32, y & _LOW32, y >> _SHIFT32
    t = x1 * y0 + (x0 * y0 >> _SHIFT32)
    u = (t & _LOW32) + x0 * y1
    return x1 * y1 + (t >> _SHIFT32) + (u >> _SHIFT32)


def _mul128(ah, al, bh, bl) -> tuple[np.ndarray, np.ndarray]:
    """(high, low) halves of a * b mod 2**128, for a and b given as halves."""
    return _mulhi(al, bl) + al * bh + ah * bl, al * bl


def _pcg64_uint32(words: np.ndarray, count: int) -> np.ndarray:
    """A (count, lanes) uint64 array of the first ``count`` 32-bit draws of
    ``PCG64`` seeded from each row of ``words`` (a ``generate_state(4,
    np.uint64)`` per lane): initstate is words 0:1, inc is (words 2:3 << 1) | 1,
    and each 64-bit output gives its low half, then its high half."""
    w0, w1, w2, w3 = words.T
    inc_hi, inc_lo = w2 << np.uint64(1) | w3 >> np.uint64(63), w3 << np.uint64(1) | np.uint64(1)
    x_lo = w1 + inc_lo
    x_hi = w0 + inc_hi + (x_lo < inc_lo)
    a_hi, a_lo, c_hi, c_lo = _pcg_jumps((count + 1) // 2)[:, :, None]
    ax_hi, ax_lo = _mul128(a_hi, a_lo, x_hi, x_lo)
    ci_hi, ci_lo = _mul128(c_hi, c_lo, inc_hi, inc_lo)
    lo = ax_lo + ci_lo
    hi = ax_hi + ci_hi + (lo < ax_lo)
    x, rot = hi ^ lo, hi >> np.uint64(58)
    out = x >> rot | x << (np.uint64(64) - rot & np.uint64(63))
    return np.stack((out & _LOW32, out >> _SHIFT32), axis=1).reshape(-1, len(words))[:count]


def _floyd_batches(n: int, b: int, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.sort(Generator(PCG64).choice(n, b, replace=False))`` for the PCG64
    seeded from each row of ``words``, as rows, and which lanes numpy would
    have drawn again (their rows are not its batches).

    Floyd's algorithm, one step for every lane at once: for j = n - b .. n - 1,
    take val = (u32 * (j + 1)) >> 32 (Lemire's bounded draw), or j if val is
    taken already. Lemire rejects the draw when its low 32 bits are below
    (2**32 - 1 - j) mod (j + 1). j = 0 (only when b == n) takes 0 and draws
    nothing. Each lane's taken-mask row has b entries set; its nonzero columns
    are the sorted batch.
    """
    lanes = len(words)
    j = np.arange(max(n - b, 1), n, dtype=np.uint64)
    m = _pcg64_uint32(words, j.size) * (j + np.uint64(1))[:, None]
    rejected = ((m & _LOW32) < ((_LOW32 - j) % (j + np.uint64(1)))[:, None]).any(axis=0)
    base = np.arange(lanes) * n  # each lane's row of the flat taken-mask
    taken = np.zeros(lanes * n, dtype=bool)
    if b == n:
        taken[base] = True
    for pick, own in zip((m >> _SHIFT32).astype(np.intp) + base,
                         j.astype(np.intp)[:, None] + base):
        taken[np.where(taken[pick], own, pick)] = True
    return np.flatnonzero(taken).reshape(lanes, b) - base[:, None], rejected


class DifferentiableProblem:
    """Base class for scalar objectives with exact second-order products.

    A subclass declares the per-sample arrays its loss reads once
    (``batch_arrays``) and builds the taped loss from its parameter tensors
    and one leaf per array (:meth:`loss`). Everything else (values,
    gradients, Hessian-vector products) derives from that single definition,
    so the three are consistent by construction.
    """

    name: str = "problem"
    dim: int = 0
    batch_size: int | None = None  # None: always full batch
    # The float64 arrays, one row per sample, of which a batch takes rows:
    # the only way batch data enters a tape. Empty for a problem without data.
    batch_arrays: tuple[np.ndarray, ...] = ()

    def __init__(self):
        self.theta0 = np.zeros(self.dim)
        self.group_sizes: list[int] = [self.dim]
        self._tapes: dict[tuple | None, _Tape] = {}

    def batch_inputs(self, batch: np.ndarray | None) -> tuple[np.ndarray, ...]:
        """The arrays the loss reads of ``batch``: each of ``batch_arrays``
        whole for the full batch (None), else its rows ``batch``."""
        if batch is None:
            return self.batch_arrays
        return tuple(array.take(batch, axis=0) for array in self.batch_arrays)

    @property
    def n_samples(self) -> int:
        """The samples a batch is drawn from: the rows of each batch array."""
        return len(self.batch_arrays[0]) if self.batch_arrays else 0

    def loss(self, params: list[ad.Tensor], *inputs: ad.Tensor) -> ad.Tensor:
        """The taped scalar loss from the parameter tensors, one 1-D tensor
        per entry of ``group_sizes``, and one leaf per array of
        :meth:`batch_inputs`."""
        raise NotImplementedError

    def build_loss(self, theta: ad.Tensor, batch: np.ndarray | None) -> ad.Tensor:
        """The loss at a flat ``theta`` tensor, an eager tape that narrows the
        parameter tensors from it. No run builds one: it is kept for the
        per-layer timings of ``perfbench``, until they time the recorded
        programs instead."""
        params = [theta] if len(self.group_sizes) == 1 else [
            ad.narrow(theta, part.start, part.stop - part.start)
            for part in _group_slices(self.group_sizes)]
        return self.loss(params, *map(ad.constant, self.batch_inputs(batch)))

    def sample_batch(self, t: int, seed: int) -> np.ndarray | None:
        """Deterministic index batch for iteration ``t``; None if full-batch.

        The reference for :meth:`sample_batches`, which draws the same batches
        for many iterations at once."""
        if self.batch_size is None:
            return None
        rng = np.random.default_rng([seed, t])
        return np.sort(rng.choice(self.n_samples, size=self.batch_size, replace=False))

    def sample_batches(self, ts, seed: int) -> np.ndarray | None:
        """The batches of ``sample_batch(t, seed)`` for every t in ``ts`` (each
        in [0, 2**64)), bit for bit, as the rows of a ``(len(ts), batch_size)``
        int64 array; None if full-batch.

        Blocks of lanes, one lane per t, are drawn in one vectorized pass each
        (:func:`_floyd_batches`); a lane whose draw numpy would reject, and so
        draw again, takes the reference. A block takes batch_size numpy steps
        whatever its lanes, so when a block holds fewer lanes than that, or the
        population is beyond Floyd's range, every t takes the reference.
        """
        if self.batch_size is None:
            return None
        ts = np.asarray(ts, dtype=np.uint64).reshape(-1)
        n, b = self.n_samples, self.batch_size
        lanes = _BATCH_BLOCK_ENTRIES // n
        if n > _FLOYD_MAX_N or lanes < b:
            return np.array([self.sample_batch(int(t), seed) for t in ts],
                            dtype=np.int64).reshape(ts.size, b)
        out = np.empty((ts.size, b), dtype=np.int64)
        for start in range(0, ts.size, lanes):
            block = ts[start:start + lanes]
            out[start:start + lanes], rejected = _floyd_batches(n, b, seed_words(seed, block, 4))
            for i in np.flatnonzero(rejected):
                out[start + i] = self.sample_batch(int(block[i]), seed)
        return out

    def relu_inputs(self, theta, batch=None) -> np.ndarray:
        """Every value the loss passes through a ReLU, flattened; empty if none.

        The loss is not differentiable where one of these is 0, so the oracle
        keeps its finite differences from moving any of them across 0.
        """
        return np.empty(0)

    def _check_theta(self, theta: np.ndarray) -> np.ndarray:
        theta = ad.as_float64(theta)
        if theta.shape != (self.dim,):
            raise ValueError(
                f"{self.name}: expected parameter vector of length {self.dim}, "
                f"got shape {theta.shape}"
            )
        return theta

    def _constants(self, theta) -> list[ad.Tensor]:
        """One constant leaf per parameter tensor of ``theta``, for an eager tape."""
        theta = self._check_theta(theta)
        return [ad.constant(theta[part]) for part in _group_slices(self.group_sizes)]

    def value(self, theta, batch=None) -> float:
        loss = self.loss(self._constants(theta), *map(ad.constant, self.batch_inputs(batch)))
        self._check(loss, "loss")
        return loss.item()

    def value_and_gradient(self, theta, batch=None) -> tuple[float, np.ndarray]:
        tape, grad = self._gradient_tape(self._check_theta(theta), batch)
        return tape.loss.item(), grad

    def gradient(self, theta, batch=None) -> np.ndarray:
        return self.value_and_gradient(theta, batch)[1]

    def hvp(self, theta, z, batch=None) -> np.ndarray:
        return self.hvp_operator(theta, batch)(z)

    def hvp_operator(self, theta, batch=None) -> Callable[[np.ndarray], np.ndarray]:
        """Build one gradient tape and return ``z -> H @ z`` over it."""
        return self.full_tape(theta, batch)[2]

    def full_tape(self, theta, batch=None):
        """One tape yielding (loss, gradient, hvp-callable) without rebuilding.

        Used by the harness so that iterations needing a Hessian probe reuse
        the gradient's graph instead of paying a second forward pass. The
        tape holds copies of ``theta`` and the batch's rows, so changing
        either array afterwards changes no result. Once a later ``full_tape``
        or ``value_and_gradient`` call on the same batch shape has replayed
        the recorded tape, the callable replays it back to its own copies of
        ``theta`` and ``batch`` before probing.
        """
        theta = self._check_theta(theta)
        tape, grad = self._gradient_tape(theta, batch)
        generation = tape.generation
        point = theta.copy(), None if batch is None else batch.copy()

        def apply(z: np.ndarray) -> np.ndarray:
            nonlocal generation
            z = ad.as_float64(z)
            if z.shape != (self.dim,):
                raise ValueError(f"{self.name}: probe length must be {self.dim}")
            if tape.generation != generation:
                self._gradient_tape(*point)
                generation = tape.generation
            return self._probe(tape, z)

        return tape.loss.item(), grad, apply

    def _gradient_tape(self, theta: np.ndarray, batch) -> tuple[_Tape, np.ndarray]:
        """The tape of this batch shape at ``theta``, recorded on first use and
        replayed after, and its joined gradient; a non-finite loss or gradient
        raises the NumericError naming the op, and a recording that raised is
        not kept."""
        key = None if batch is None else batch.shape
        tape = self._tapes.get(key)
        if tape is None:
            tape = _Tape(self, theta, batch)
        else:
            tape.replay(theta, batch)
        # A replay names the op as a fresh recording does: folded nodes are
        # constants and merged ones hold their first node's array.
        if not math.isfinite(tape.loss.data):
            self._check(tape.loss, "loss")
        grad = self._joined(tape.grads, "gradient")
        self._tapes[key] = tape
        return tape, grad

    def _probe(self, tape: _Tape, z: np.ndarray) -> np.ndarray:
        """``H @ z`` over a tape holding its current generation: z is copied
        into the tape's buffer and the probe program, one backward pass from
        every gradient part seeded with the leaf of z's slice, is replayed.
        A non-finite HVP raises the NumericError naming the op."""
        ad.c_copyto(tape.z, z)
        program, hz = tape.probe
        program.replay()
        return self._joined(hz, "hvp")

    def _joined(self, parts: list[ad.Tensor], what: str) -> np.ndarray:
        """A new flat vector of the parts' data; raises the NumericError naming
        the op if it is not finite."""
        if len(parts) == 1:
            out = parts[0].data.copy()
        else:
            out = ad.c_concatenate([part.data for part in parts])
        if not ad.all_finite(out):
            self._check(parts, what)
        return out

    def _check(self, output: ad.Tensor | list[ad.Tensor], what: str) -> None:
        """Raise the NumericError naming the op if ``output``, a node or a
        list of them, is not finite."""
        ad.check_finite(output, f"{self.name} {what}", phase=what)


class QuadraticProblem(DifferentiableProblem):
    """f(w) = 0.5 w^T A w + c^T w with symmetric A of modest size.

    ``alpha`` and ``beta`` are the extreme eigenvalues; for SPD instances they
    are the strong-convexity and smoothness constants of the descent-lemma
    tests. Analytic gradient/Hessian paths are provided alongside the tape.
    """

    def __init__(self, A, c=None, name="quadratic", theta0=None, spd=False):
        A = np.asarray(A, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        if A.shape[0] > _MAX_DIM:
            raise ValueError(f"quadratic problems are limited to d <= {_MAX_DIM}")
        self.c = np.zeros(A.shape[0]) if c is None else np.asarray(c, dtype=np.float64)
        if self.c.shape != A.shape[:1]:
            raise ValueError(f"c must have shape {A.shape[:1]}, got {self.c.shape}")
        if not (ad.all_finite(A) and ad.all_finite(self.c)):  # NaN passes the symmetry check
            raise ValueError("A and c must be finite")
        asymmetry = np.maximum.reduce(np.abs(A - A.T), None)
        if asymmetry > 1e-12:
            raise ValueError("A must be symmetric to 1e-12")
        # An exactly symmetric A, as the SPD builder makes, is its own symmetrization.
        self.A = A.copy() if asymmetry == 0 else 0.5 * (A + A.T)
        self.dim = A.shape[0]
        self.name = name
        eigs = np.linalg.eigvalsh(self.A)
        self.alpha = float(eigs[0])
        self.beta = float(eigs[-1])
        if spd and self.alpha <= 0:
            raise ValueError("SPD quadratic requires positive eigenvalues")
        self.spd = spd
        super().__init__()
        if theta0 is not None:
            self.theta0 = np.asarray(theta0, dtype=np.float64)
            if self.theta0.shape != (self.dim,):
                raise ValueError(f"theta0 must have shape {(self.dim,)}, got {self.theta0.shape}")

    def loss(self, params):
        (theta,) = params
        Ax = ad.matmul(ad.constant(self.A), theta)
        quad = ad.mul(ad.constant(0.5), ad.dot(theta, Ax))
        return ad.add(quad, ad.dot(ad.constant(self.c), theta))

    # Closed forms, used by the oracle to cross-check the tape and to evaluate
    # its descent checks without one: analytic_value, analytic_gradient,
    # analytic_hvp and hessian_matrix.
    def analytic_value(self, theta) -> float:
        """``value(theta)`` bit for bit: the tape's numpy ops in the tape's order.

        Each sum is ``np.add.reduce``, the tape's kernel for it and the call
        ``ndarray.sum`` makes, without the method's Python wrapper: the
        descent checks evaluate this thousands of times per suite call.
        """
        theta = self._check_theta(theta)
        value = (0.5 * np.add.reduce(theta * (self.A @ theta), (0,))
                 + np.add.reduce(self.c * theta, (0,)))
        if not np.isfinite(value):
            raise ad.NumericError(f"non-finite value in {self.name} loss", phase="loss")
        return float(value)

    def analytic_gradient(self, theta) -> np.ndarray:
        return self.A @ self._check_theta(theta) + self.c

    def analytic_hvp(self, theta, z) -> np.ndarray:
        return self.A @ np.asarray(z, dtype=np.float64)

    def hessian_matrix(self) -> np.ndarray:
        return self.A.copy()


class NoisyParabola(DifferentiableProblem):
    """f(x) = x^2 + 0.1 x sin(20 pi x), a parabola with an oscillating ripple.

    The ripple leaves the global shape convex-like but makes the local second
    derivative f''(x) = 2 + 4 pi cos(20 pi x) - 40 pi^2 x sin(20 pi x) swing
    over hundreds of units and change sign, which is what defeats a
    raw-curvature preconditioner and motivates averaging the curvature signal
    over iterations.
    """

    name = "noisy-parabola"
    dim = 1

    def __init__(self):
        super().__init__()
        self.theta0 = np.array([1.0])

    def loss(self, params):
        (x,) = params  # length-1 vector; taped ops are elementwise
        ripple = ad.mul(ad.mul(ad.constant(0.1), x), ad.sin(ad.mul(ad.constant(20.0 * math.pi), x)))
        return ad.tsum(ad.add(ad.square(x), ripple))

    def analytic_value(self, x: float) -> float:
        return x * x + 0.1 * x * math.sin(20.0 * math.pi * x)

    def analytic_gradient(self, theta) -> np.ndarray:
        x = self._check_theta(theta)[0]
        w = 20.0 * math.pi
        return np.array([2.0 * x + 0.1 * math.sin(w * x) + 0.1 * w * x * math.cos(w * x)])

    def analytic_second_derivative(self, x: float) -> float:
        w = 20.0 * math.pi
        return 2.0 + 0.2 * w * math.cos(w * x) - 0.1 * w * w * x * math.sin(w * x)

    def analytic_hvp(self, theta, z) -> np.ndarray:
        x = self._check_theta(theta)[0]
        return self.analytic_second_derivative(x) * np.asarray(z, dtype=np.float64)


def _check_int(name: str, value, expected: str = "an int") -> None:
    """``value`` is an int and not a bool, or a TypeError names ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be {expected}, got {value!r}")


def _check_batch_size(batch_size, n: int) -> int | None:
    """``batch_size`` as given: None (full batch) or an int in [1, n]."""
    if batch_size is None:
        return None
    _check_int("batch_size", batch_size, "an int or null")
    if not 1 <= batch_size <= n:
        raise ValueError(f"batch_size must lie in [1, {n}] for {n} samples, got {batch_size}")
    return int(batch_size)


def _check_seed(seed) -> None:
    """A builder's seed: an int that numpy's generators take, so at least 0."""
    _check_int("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def _check_counts(**counts) -> None:
    """Builders' sample count n and feature count p: each at least 1 and within
    the desk scale, checked before any data is drawn."""
    for name, value in counts.items():
        _check_int(name, value)
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
        if value > _DESK_SCALE[name]:
            raise ValueError("dataset exceeds the intended desk scale")


def _check_layers(layers: Sequence[int]) -> list[int]:
    """MLP widths, input first: at least two, each at least 1, with at most
    ``_MAX_DIM`` parameters, checked before any data is drawn."""
    layers = list(layers)
    for i, width in enumerate(layers):
        _check_int(f"layers[{i}]", width)
    if len(layers) < 2:
        raise ValueError(f"layers needs an input and an output width, got {layers}")
    if min(layers) < 1:
        raise ValueError(f"layer widths must be at least 1, got {layers}")
    if sum(math.prod(shape) for shape in _mlp_shapes(layers)) > _MAX_DIM:
        raise ValueError(f"tiny MLP exceeds d = {_MAX_DIM}; shrink the layer widths")
    return layers


class SyntheticDataset:
    """Seeded feature matrix and labels for the small learning problems."""

    def __init__(self, X: np.ndarray, y: np.ndarray, seed: int):
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y must agree on sample count")
        if X.shape[0] > _DESK_SCALE["n"] or X.shape[1] > _DESK_SCALE["p"]:
            raise ValueError("dataset exceeds the intended desk scale")
        self.X = np.asarray(X, dtype=np.float64)
        self.y = y
        self.seed = seed

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


class LogisticRegression(DifferentiableProblem):
    """Binary logistic regression, mean log-loss over labels in {-1, +1}.

    loss(theta) = mean_i log(1 + exp(-y_i x_i^T theta)). At theta = 0 every
    prediction is uniform and the loss is log 2. The Hessian is
    (1/n) X^T S X with S = diag(p_i (1 - p_i)), so its diagonal is
    nonnegative everywhere.
    """

    def __init__(self, data: SyntheticDataset, name="logreg", batch_size=None):
        self.data = data
        self.dim = data.p
        self.name = name
        self.batch_size = _check_batch_size(batch_size, data.n)
        super().__init__()
        self.batch_arrays = (data.X, data.y)

    def loss(self, params, X, y):
        (theta,) = params
        margins = ad.mul(y, ad.matmul(X, theta))
        return ad.mean(ad.softplus(ad.neg(margins)))

    def analytic_gradient(self, theta, batch=None) -> np.ndarray:
        X, y = self.batch_inputs(batch)
        theta = self._check_theta(theta)
        s = 1.0 / (1.0 + np.exp(y * (X @ theta)))  # sigmoid(-margin)
        return -(X.T @ (y * s)) / X.shape[0]

    def analytic_hessian(self, theta, batch=None) -> np.ndarray:
        X, y = self.batch_inputs(batch)
        theta = self._check_theta(theta)
        p = 1.0 / (1.0 + np.exp(-(X @ theta)))
        S = p * (1.0 - p)
        return (X.T * S) @ X / X.shape[0]

    def analytic_hvp(self, theta, z, batch=None) -> np.ndarray:
        return self.analytic_hessian(theta, batch) @ np.asarray(z, dtype=np.float64)


def _mlp_shapes(layers: Sequence[int]) -> list[tuple[int, ...]]:
    """The shape of each weight matrix and bias vector, in order."""
    return [shape for fan_in, fan_out in zip(layers[:-1], layers[1:])
            for shape in ((fan_in, fan_out), (fan_out,))]


class _MLPBase(DifferentiableProblem):
    """Shared parameter layout and forward pass for the two MLP problems."""

    activation = "tanh"

    def __init__(self, data: SyntheticDataset, layers: Sequence[int], name, batch_size):
        layers = list(layers)
        if layers[0] != data.p:
            raise ValueError("first layer width must match feature count")
        self.layers = layers
        self.data = data
        self._shapes = _mlp_shapes(layers)
        sizes = [math.prod(shape) for shape in self._shapes]
        self.dim = sum(sizes)
        self.name = name
        self.batch_size = _check_batch_size(batch_size, data.n)
        if self.dim > _MAX_DIM:
            raise ValueError(f"tiny MLP exceeds d = {_MAX_DIM}; shrink the layer widths")
        super().__init__()
        self.group_sizes = sizes
        rng = np.random.default_rng(data.seed + 1)
        init = []
        for shape in self._shapes:
            if len(shape) == 2:
                scale = 1.0 / math.sqrt(shape[0])
                init.append(rng.normal(0.0, scale, size=shape).ravel())
            else:
                init.append(np.zeros(shape))
        self.theta0 = np.concatenate(init)
        # The features and what the loss compares the network's output with.
        self.batch_arrays = (data.X, data.y)

    def _forward(self, params, X: ad.Tensor, hidden: list | None = None) -> ad.Tensor:
        """Output layer of the network; ``hidden``, if given, collects each
        hidden layer's pre-activation data."""
        params = [ad.reshape(flat, shape) if len(shape) == 2 else flat
                  for flat, shape in zip(params, self._shapes)]
        h = X
        n_layers = len(self.layers) - 1
        for i in range(n_layers):
            W, b = params[2 * i], params[2 * i + 1]
            h = ad.add(ad.matmul(h, W), b)
            if i < n_layers - 1:
                if hidden is not None:
                    hidden.append(h.data)
                h = ad.tanh(h) if self.activation == "tanh" else ad.relu(h)
        return h

    def relu_inputs(self, theta, batch=None) -> np.ndarray:
        if self.activation != "relu":
            return np.empty(0)
        hidden: list[np.ndarray] = []
        self._forward(self._constants(theta), ad.constant(self.batch_inputs(batch)[0]), hidden)
        return np.concatenate([h.ravel() for h in hidden])


class TinyMLPRegression(_MLPBase):
    """Small tanh network trained with mean squared error on a seeded
    teacher-generated regression set."""

    activation = "tanh"

    def loss(self, params, X, y):
        out = self._forward(params, X)  # (n, 1)
        resid = ad.sub(ad.reshape(out, (X.shape[0],)), y)
        return ad.mean(ad.square(resid))


class TinyMLPClassifier(_MLPBase):
    """Small ReLU network with softmax cross-entropy on seeded cluster data.

    ReLU is treated as exactly linear away from 0 (zero second derivative),
    so Hessian-vector products are well-defined almost everywhere. The
    oracle's finite-difference checks redraw any point whose perturbations
    would move a ReLU input (:meth:`relu_inputs`) across its kink.
    """

    activation = "relu"

    def __init__(self, data: SyntheticDataset, layers: Sequence[int], name, batch_size):
        super().__init__(data, layers, name, batch_size)
        self.batch_arrays = (data.X, np.eye(self.layers[-1])[data.y])  # one-hot labels

    def loss(self, params, X, onehot):
        logits = self._forward(params, X)  # (n, classes)
        picked = ad.tsum(ad.mul(logits, onehot), axis=1)
        return ad.mean(ad.sub(ad.logsumexp_rows(logits), picked))


def make_fig1_quadratic() -> QuadraticProblem:
    """The ill-conditioned 2-D quadratic f(x, y) = 10x^2 + y^2.

    Written as 0.5 w^T A w with A = diag(20, 2); minimizer (0, 0). The exact
    diagonal preconditioner recovers the optimum in a single unit-step update.
    """
    return QuadraticProblem(
        np.diag([20.0, 2.0]), name="fig1-quadratic", theta0=(1.0, 1.0), spd=True
    )


def make_noisy_parabola() -> NoisyParabola:
    return NoisyParabola()


def make_random_spd_quadratic(d: int, condition_number: float, seed: int) -> QuadraticProblem:
    """Random SPD quadratic with exactly the requested eigenvalue spread.

    Eigenvalues are spaced linearly in [1, condition_number] and conjugated by
    a random orthogonal matrix, so alpha = 1 and beta = condition_number up to
    rounding.
    """
    _check_int("d", d)
    _check_seed(seed)
    if isinstance(condition_number, bool) or not isinstance(
            condition_number, (int, float, np.integer, np.floating)):
        raise TypeError(f"condition_number must be a real number, got {condition_number!r}")
    if d < 2:
        raise ValueError("d must be at least 2")
    if not math.isfinite(condition_number):  # NaN passes the check below
        raise ValueError(f"condition_number must be finite, got {condition_number}")
    if condition_number < 1:
        raise ValueError("condition_number must be at least 1")
    if d > _MAX_DIM:  # before the d x d draw and its QR
        raise ValueError(f"quadratic problems are limited to d <= {_MAX_DIM}")
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    eigs = np.linspace(1.0, float(condition_number), d)
    with np.errstate(over="ignore", invalid="ignore"):  # QuadraticProblem refuses a non-finite A
        A = (Q * eigs) @ Q.T
        A = 0.5 * (A + A.T)
    theta0 = rng.normal(size=d)
    return QuadraticProblem(A, name=f"spd-quadratic-d{d}", theta0=theta0, spd=True)


def make_logreg(n: int = 200, p: int = 8, seed: int = 7, batch_size=None) -> LogisticRegression:
    """Separable-ish binary problem with deliberately uneven feature scales.

    Column scales span [1, 15], giving an ill-conditioned Hessian: a good
    stress test for fixed-learning-rate methods while staying convex.
    """
    _check_counts(n=n, p=p)
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    scales = np.linspace(1.0, 15.0, p)
    X = rng.normal(size=(n, p)) * scales
    w_true = rng.normal(size=p) / scales
    y = np.where(X @ w_true + 0.5 * rng.normal(size=n) > 0, 1.0, -1.0)
    return LogisticRegression(SyntheticDataset(X, y, seed), batch_size=batch_size)


def make_tiny_mlp(layers: Sequence[int] = (5, 8, 1), seed: int = 3, n: int = 256,
                  batch_size: int | None = 32) -> TinyMLPRegression:
    """Regression set from a fixed random tanh teacher plus mild noise."""
    layers = _check_layers(layers)
    _check_counts(n=n)
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    p = layers[0]
    X = rng.normal(size=(n, p))
    W_t = rng.normal(size=(p, 4))
    w_out = rng.normal(size=4)
    y = np.tanh(X @ W_t) @ w_out + 0.05 * rng.normal(size=n)
    return TinyMLPRegression(SyntheticDataset(X, y, seed), layers, "tiny-mlp", batch_size)


def make_tiny_mlp_classifier(layers: Sequence[int] = (4, 6, 3), seed: int = 11, n: int = 240,
                             batch_size: int | None = 32) -> TinyMLPClassifier:
    """Three Gaussian clusters in 4-D, labelled by cluster."""
    layers = _check_layers(layers)
    _check_counts(n=n)
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    p, classes = layers[0], layers[-1]
    centers = 2.0 * rng.normal(size=(classes, p))
    y = rng.integers(0, classes, size=n)
    X = centers[y] + rng.normal(size=(n, p))
    return TinyMLPClassifier(SyntheticDataset(X, y, seed), layers, "tiny-mlp-relu", batch_size)


PROBLEM_BUILDERS: dict[str, Callable[..., DifferentiableProblem]] = {
    "fig1-quadratic": make_fig1_quadratic,
    "noisy-parabola": make_noisy_parabola,
    "spd-quadratic": lambda d=8, condition_number=10.0, seed=0: make_random_spd_quadratic(
        d, condition_number, seed
    ),
    "logreg": make_logreg,
    "tiny-mlp": make_tiny_mlp,
    "tiny-mlp-relu": make_tiny_mlp_classifier,
}


def problem_names() -> list[str]:
    return sorted(PROBLEM_BUILDERS)


def get_problem(name: str, **params) -> DifferentiableProblem:
    """Look up a problem builder by registry name and construct it."""
    try:
        builder = PROBLEM_BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown problem {name!r}; available: {', '.join(problem_names())}"
        ) from None
    return builder(**params)
