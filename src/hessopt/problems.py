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

Parameters are flat float64 vectors. ``group_sizes`` records the parameter
tensor layout (weight matrices, biases) so block-structured operations never
straddle tensor boundaries.

Tapes are recorded once and replayed (see ``hessopt.autodiff``). A problem
keeps one recorded tape per batch shape (``None`` for full batch), replayed by
both ``value_and_gradient`` and ``full_tape``; the tape also keeps the
program of its HVP probe, recorded on its first probe as an extension of the
tape's program, so that steps the probe repeats of the tape (tanh's
``1 - y**2``, the weights' transposes) are computed once. The leaves are made
before each recording, and each program is optimized once when its
recording ends (constants folded, repeated steps merged, the gradient
assembled by one concatenation). A replay writes theta, the batch's arrays
(``batch_inputs``) and the probe into the recorded leaves and reruns the
remaining numpy steps, so its outputs equal a fresh tape's bit for bit.
Everything a loss computes from those leaves must therefore be a taped op:
data selected by the batch enters only through ``batch_inputs``. After a
batch shape's first recording, every gradient and HVP of it is a replay: an
hvp callable whose tape a later call moved replays it back first, and a
non-finite replay raises the ``NumericError`` naming the op. Only ``value``
stays eager, an independent path for finite differences. A recording that
raised is never kept.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad

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


class _Tape:
    """A recorded gradient tape: its leaves, loss, gradient and program.

    ``leaves`` are the parameter leaf and then one leaf per batch input.
    ``generation`` counts the tape's replays, so an hvp callable can tell
    that the nodes it would read now hold another point's data. ``probe``
    holds the recorded probe program over this tape, its probe leaf and its
    output, once a first probe has succeeded.
    """

    __slots__ = ("leaves", "loss", "grad", "program", "generation", "probe")

    def __init__(self, leaves: list, loss: ad.Tensor, grad: ad.Tensor, program: ad.Program):
        self.leaves = leaves
        self.loss = loss
        self.grad = grad
        self.program = program
        self.generation = 0
        self.probe: tuple[ad.Program, ad.Tensor, ad.Tensor] | None = None

    def replay(self, theta: np.ndarray, inputs) -> None:
        """Rerun the recorded tape at new leaf data."""
        self.generation += 1
        self.leaves[0].data = theta
        for leaf, x in zip(self.leaves[1:], inputs):
            leaf.data = ad.as_float64(x)
        self.program.replay()


class DifferentiableProblem:
    """Base class for scalar objectives with exact second-order products.

    A subclass declares the arrays its loss reads of a batch
    (:meth:`batch_inputs`) and builds the taped loss from the parameter
    tensor and one leaf per array (:meth:`loss`). Everything else (values,
    gradients, Hessian-vector products) derives from that single definition,
    so the three are consistent by construction.
    """

    name: str = "problem"
    dim: int = 0
    batch_size: int | None = None  # None: always full batch

    def __init__(self):
        self.theta0 = np.zeros(self.dim)
        self.group_sizes: list[int] = [self.dim]
        self._tapes: dict[tuple | None, _Tape] = {}

    def batch_inputs(self, batch: np.ndarray | None) -> tuple[np.ndarray, ...]:
        """The arrays the loss reads of ``batch``, each entering the tape as a leaf."""
        raise NotImplementedError

    def loss(self, theta: ad.Tensor, *inputs: ad.Tensor) -> ad.Tensor:
        """The taped scalar loss from the parameter tensor and one leaf per
        array of :meth:`batch_inputs`."""
        raise NotImplementedError

    def build_loss(self, theta: ad.Tensor, batch: np.ndarray | None) -> ad.Tensor:
        return self.loss(theta, *map(ad.constant, self.batch_inputs(batch)))

    def sample_batch(self, t: int, seed: int) -> np.ndarray | None:
        """Deterministic index batch for iteration ``t``; None if full-batch."""
        if self.batch_size is None:
            return None
        rng = np.random.default_rng([seed, t])
        return np.sort(rng.choice(self.n_samples, size=self.batch_size, replace=False))

    @property
    def n_samples(self) -> int:
        return 0

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

    def value(self, theta, batch=None) -> float:
        theta = self._check_theta(theta)
        loss = self.build_loss(ad.constant(theta), batch)
        self._check(loss, "loss")
        return loss.item()

    def value_and_gradient(self, theta, batch=None) -> tuple[float, np.ndarray]:
        tape = self._gradient_tape(self._check_theta(theta), batch)
        return tape.loss.item(), tape.grad.data.copy()

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
        the gradient's graph instead of paying a second forward pass. Once a
        later ``full_tape`` or ``value_and_gradient`` call on the same batch
        shape has replayed the recorded tape, the callable replays it back to
        its own ``theta`` and ``batch`` before probing.
        """
        theta = self._check_theta(theta)
        tape = self._gradient_tape(theta, batch)
        generation = tape.generation

        def apply(z: np.ndarray) -> np.ndarray:
            nonlocal generation
            z = ad.as_float64(z)
            if z.shape != (self.dim,):
                raise ValueError(f"{self.name}: probe length must be {self.dim}")
            if tape.generation != generation:
                self._gradient_tape(theta, batch)
                generation = tape.generation
            return self._probe(tape, z)

        return tape.loss.item(), tape.grad.data.copy(), apply

    def _gradient_tape(self, theta: np.ndarray, batch) -> _Tape:
        """The tape of this batch shape at ``theta``, recorded on first use and
        replayed after; a non-finite loss or gradient raises the NumericError
        naming the op, and a recording that raised is not kept."""
        inputs = self.batch_inputs(batch)
        key = None if batch is None else batch.shape
        tape = self._tapes.get(key)
        if tape is None:
            leaves = [ad.variable(theta), *map(ad.constant, inputs)]
            program = ad.Program()
            with program.recording():
                loss = self.loss(*leaves)
                (grad,) = ad.backward(loss, leaves[:1])
            tape = _Tape(leaves, loss, grad, program)
        else:
            tape.replay(theta, inputs)
        # A replay names the op as a fresh recording does: folded nodes are
        # constants and merged ones get alias steps. The embeds and sums of a
        # fused assembly keep the recording's finite data; a fresh tape's are
        # non-finite only after a slice they read, which comes first in order.
        if not (math.isfinite(tape.loss.data) and np.isfinite(tape.grad.data).all()):
            self._check(tape.loss, "loss")
            self._check(tape.grad, "gradient")
        self._tapes[key] = tape
        return tape

    def _probe(self, tape: _Tape, z: np.ndarray) -> np.ndarray:
        """``H @ z`` over a tape holding its current generation: its first probe
        is recorded as a program extending the tape's, and later ones replay
        it. A non-finite HVP raises the NumericError naming the op."""
        if tape.probe is None:
            leaf = ad.constant(z)
            program = ad.Program(extends=tape.program)
            with program.recording():
                (hz,) = ad.backward(tape.grad, tape.leaves[:1], leaf)
                self._check(hz, "hvp")  # so that a probe that raised is not kept
            tape.probe = (program, leaf, hz)
        else:
            program, leaf, hz = tape.probe
            leaf.data = z
            program.replay()
            self._check(hz, "hvp")
        return hz.data.copy()

    def _check(self, node: ad.Tensor, what: str) -> None:
        """Raise the NumericError naming the op if ``node`` is not finite."""
        ad.check_finite(node, f"{self.name} {what}", phase=what)


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
        if A.shape[0] > 64:
            raise ValueError("quadratic problems are limited to d <= 64")
        if np.abs(A - A.T).max() > 1e-12:
            raise ValueError("A must be symmetric to 1e-12")
        self.A = 0.5 * (A + A.T)
        self.dim = A.shape[0]
        self.c = np.zeros(self.dim) if c is None else np.asarray(c, dtype=np.float64)
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

    def batch_inputs(self, batch):
        return ()

    def loss(self, theta):
        Ax = ad.matmul(ad.constant(self.A), theta)
        quad = ad.mul(ad.constant(0.5), ad.dot(theta, Ax))
        return ad.add(quad, ad.dot(ad.constant(self.c), theta))

    # Closed forms, used by the oracle to cross-check the tape and to evaluate
    # its descent checks without one: analytic_value, analytic_gradient,
    # analytic_hvp and hessian_matrix.
    def analytic_value(self, theta) -> float:
        """``value(theta)`` bit for bit: the tape's numpy ops in the tape's order."""
        theta = self._check_theta(theta)
        value = (0.5 * (theta * (self.A @ theta)).sum(axis=(0,))
                 + (self.c * theta).sum(axis=(0,)))
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

    def batch_inputs(self, batch):
        return ()

    def loss(self, theta):
        x = theta  # length-1 vector; taped ops are elementwise
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


def _check_batch_size(batch_size, n: int) -> int | None:
    """``batch_size`` as given: None (full batch) or an int in [1, n]."""
    if batch_size is None:
        return None
    if isinstance(batch_size, bool) or not isinstance(batch_size, (int, np.integer)):
        raise TypeError(f"batch_size must be an int or null, got {batch_size!r}")
    if not 1 <= batch_size <= n:
        raise ValueError(f"batch_size must lie in [1, {n}] for {n} samples, got {batch_size}")
    return int(batch_size)


def _check_counts(**counts) -> None:
    """Builders' sample and feature counts must be at least 1."""
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


def _check_layers(layers: Sequence[int]) -> list[int]:
    """MLP widths, input first: at least two, each at least 1."""
    layers = list(layers)
    if len(layers) < 2:
        raise ValueError(f"layers needs an input and an output width, got {layers}")
    if min(layers) < 1:
        raise ValueError(f"layer widths must be at least 1, got {layers}")
    return layers


class SyntheticDataset:
    """Seeded feature matrix and labels for the small learning problems."""

    def __init__(self, X: np.ndarray, y: np.ndarray, seed: int):
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y must agree on sample count")
        if X.shape[0] > 10_000 or X.shape[1] > 100:
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

    @property
    def n_samples(self) -> int:
        return self.data.n

    def batch_inputs(self, batch):
        if batch is None:
            return self.data.X, self.data.y
        return self.data.X[batch], self.data.y[batch]

    def loss(self, theta, X, y):
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


def _mlp_slices(layers: Sequence[int]):
    """(start, shape) for each weight matrix and bias vector, in order."""
    slices = []
    offset = 0
    for fan_in, fan_out in zip(layers[:-1], layers[1:]):
        slices.append((offset, (fan_in, fan_out)))
        offset += fan_in * fan_out
        slices.append((offset, (fan_out,)))
        offset += fan_out
    return slices, offset


class _MLPBase(DifferentiableProblem):
    """Shared parameter layout and forward pass for the two MLP problems."""

    activation = "tanh"

    def __init__(self, data: SyntheticDataset, layers: Sequence[int], name, batch_size):
        layers = list(layers)
        if layers[0] != data.p:
            raise ValueError("first layer width must match feature count")
        self.layers = layers
        self.data = data
        self._slices, self.dim = _mlp_slices(layers)
        self.name = name
        self.batch_size = _check_batch_size(batch_size, data.n)
        if self.dim > 64:
            raise ValueError("tiny MLP exceeds d = 64; shrink the layer widths")
        super().__init__()
        self.group_sizes = [int(np.prod(shape)) for _, shape in self._slices]
        rng = np.random.default_rng(data.seed + 1)
        init = []
        for _, shape in self._slices:
            if len(shape) == 2:
                scale = 1.0 / math.sqrt(shape[0])
                init.append(rng.normal(0.0, scale, size=shape).ravel())
            else:
                init.append(np.zeros(shape))
        self.theta0 = np.concatenate(init)
        # What the loss compares the network's output with, one row per sample.
        self.targets = data.y

    @property
    def n_samples(self) -> int:
        return self.data.n

    def batch_inputs(self, batch):
        if batch is None:
            return self.data.X, self.targets
        return self.data.X[batch], self.targets[batch]

    def _forward(self, theta, X: ad.Tensor, hidden: list | None = None) -> ad.Tensor:
        """Output layer of the network; ``hidden``, if given, collects each
        hidden layer's pre-activation data."""
        params = []
        for (start, shape), size in zip(self._slices, self.group_sizes):
            flat = ad.narrow(theta, start, size)
            params.append(ad.reshape(flat, shape) if len(shape) == 2 else flat)
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
        X = ad.constant(self.batch_inputs(batch)[0])
        self._forward(ad.constant(self._check_theta(theta)), X, hidden)
        return np.concatenate([h.ravel() for h in hidden])


class TinyMLPRegression(_MLPBase):
    """Small tanh network trained with mean squared error on a seeded
    teacher-generated regression set."""

    activation = "tanh"

    def loss(self, theta, X, y):
        out = self._forward(theta, X)  # (n, 1)
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
        self.targets = np.eye(self.layers[-1])[data.y]  # one-hot labels

    def loss(self, theta, X, onehot):
        logits = self._forward(theta, X)  # (n, classes)
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
    if d < 2:
        raise ValueError("d must be at least 2")
    if condition_number < 1:
        raise ValueError("condition_number must be at least 1")
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    eigs = np.linspace(1.0, float(condition_number), d)
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
