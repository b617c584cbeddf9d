"""Independent brute-force verification of the differentiable core.

Nothing here reuses the tape's derivative rules: gradients are checked
against central finite differences of the loss, Hessian-vector products
against finite differences of the gradient, and the stochastic diagonal
estimator against exhaustive enumeration of every sign vector (exact, not
sampled). The descent-lemma checks evaluate the strongly-convex/smooth
step-size guarantee for full, diagonal, and block-averaged preconditioners
by direct arithmetic on explicit quadratics: f comes from the closed form
``QuadraticProblem.analytic_value``, not the tape, and each quadratic's
eigendecomposition, preconditioner diagonals, f(w) and gradient are computed
once for all of its (k, preconditioner) pairs. The two Monte-Carlo checks
(``hutchinson_variance``, ``rademacher_mean``) draw and reduce their samples
in fixed blocks of ``_BLOCK_ROWS`` probes, never holding the whole sample;
their statistics equal the whole-array ones bit for bit. They draw on a
Generator, the numpy reference, as a run's estimates of more than 65,536
entries do.

``run_verification_suite`` bundles all properties into a JSON-serializable
report; the CLI ``verify`` subcommand is a thin wrapper over it. A call
builds the registry problems once, when the first of the four tape
properties (HVP linearity, symmetry, and the two finite-difference checks)
runs, hands them to each, and drops them after the last; nothing is kept
between calls. ``adam_reduction`` steps ten independent 6-coordinate
AdaHessians against one 60-coordinate Adam over the ten seeds' draws side by
side: Adam is elementwise, so each seed's slice is bit for bit its own Adam.
Every property keeps its worst deviation with ``np.maximum``, so a NaN
deviation fails it instead of dropping out.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import optim
from .hutchinson import HutchinsonConfig, estimate_diag, probe_rng, rademacher
from .problems import (
    DifferentiableProblem,
    QuadraticProblem,
    get_problem,
    make_random_spd_quadratic,
    problem_names,
)

__all__ = [
    "DenseHessian",
    "fd_gradient",
    "fd_hvp",
    "fd_hessian",
    "exact_hutchinson_expectation",
    "hutchinson_enumerate",
    "all_sign_vectors",
    "descent_slack",
    "reference_descent_check",
    "PropertyResult",
    "VerificationReport",
    "run_verification_suite",
]

DEFAULT_FD_STEP = 1e-5


@dataclass
class DenseHessian:
    """Explicit Hessian with its pre-symmetrization asymmetry on record.

    ``H`` is stored symmetrized ((H + H^T)/2); ``asymmetry`` is the largest
    absolute elementwise difference before symmetrization, which for a
    finite-difference build measures how badly the columns disagree.
    """

    H: np.ndarray
    method: str
    step: float
    asymmetry: float

    @property
    def dim(self) -> int:
        return self.H.shape[0]

    def diagonal(self) -> np.ndarray:
        return np.diag(self.H).copy()


def _steps(theta: np.ndarray, h: float) -> np.ndarray:
    # Per-coordinate step scaled by parameter magnitude, floored at h.
    return h * np.maximum(1.0, np.abs(theta))


def fd_gradient(problem: DifferentiableProblem, theta, h: float = DEFAULT_FD_STEP,
                batch=None) -> np.ndarray:
    """Central-difference gradient, one coordinate at a time."""
    theta = np.asarray(theta, dtype=np.float64)
    steps = _steps(theta, h)
    g = np.zeros_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = steps[i]
        g[i] = (problem.value(theta + e, batch) - problem.value(theta - e, batch)) / (2 * steps[i])
    return g


def fd_hvp(problem: DifferentiableProblem, theta, z, h: float = DEFAULT_FD_STEP,
           batch=None) -> np.ndarray:
    """Directional finite difference of the gradient: (g(x+hz) - g(x-hz)) / 2h."""
    theta = np.asarray(theta, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    scale = np.linalg.norm(z)
    if scale == 0:
        return np.zeros_like(theta)
    hh = h / scale
    gp = problem.gradient(theta + hh * z, batch)
    gm = problem.gradient(theta - hh * z, batch)
    return (gp - gm) / (2 * hh)


def fd_hessian(problem: DifferentiableProblem, theta, h: float = DEFAULT_FD_STEP,
               batch=None) -> DenseHessian:
    """Dense Hessian from central differences of the gradient.

    Column j is (g(theta + h_j e_j) - g(theta - h_j e_j)) / (2 h_j) with the
    step scaled by the coordinate's magnitude. Restricted to d <= 64.
    """
    theta = np.asarray(theta, dtype=np.float64)
    d = theta.size
    if d > 64:
        raise ValueError("dense finite-difference Hessians are limited to d <= 64")
    steps = _steps(theta, h)
    H = np.zeros((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = steps[j]
        H[:, j] = (problem.gradient(theta + e, batch) - problem.gradient(theta - e, batch)) / (
            2 * steps[j]
        )
    if not np.all(np.isfinite(H)):
        rows, cols = np.nonzero(~np.isfinite(H))
        raise ValueError(
            f"finite-difference Hessian has non-finite entries at "
            f"{list(zip(rows.tolist(), cols.tolist()))[:5]}"
        )
    asymmetry = float(np.abs(H - H.T).max())
    return DenseHessian(H=0.5 * (H + H.T), method="finite_difference", step=h,
                        asymmetry=asymmetry)


def all_sign_vectors(d: int) -> np.ndarray:
    """All 2^d vectors with entries in {-1, +1}, one per row."""
    if d > 12:
        raise ValueError("sign-vector enumeration is limited to d <= 12")
    codes = np.arange(2**d, dtype=np.int64)[:, None]
    bits = (codes >> np.arange(d)) & 1
    return 2.0 * bits.astype(np.float64) - 1.0


def exact_hutchinson_expectation(H: np.ndarray | DenseHessian) -> np.ndarray:
    """Mean of z * (Hz) over every sign vector; equals diag(H) for symmetric H."""
    if isinstance(H, DenseHessian):
        H = H.H
    H = np.asarray(H, dtype=np.float64)
    Z = all_sign_vectors(H.shape[0])
    return np.mean(Z * (Z @ H.T), axis=0)


def hutchinson_enumerate(hvp, d: int) -> np.ndarray:
    """Mean of z * hvp(z) over every sign vector, via an hvp callable.

    This is the same expectation as :func:`exact_hutchinson_expectation` but
    routed through an actual Hessian-vector-product implementation, so it
    verifies the estimator and the differentiation path together.
    """
    total = np.zeros(d)
    for z in all_sign_vectors(d):
        total += z * hvp(z)
    return total / 2**d


def _preconditioner(q: QuadraticProblem, mode: str, block_size: int | None):
    """The preconditioner M: ``eigh(A)`` for ``full``, else M's diagonal."""
    if mode == "full":
        return np.linalg.eigh(q.A)
    if mode == "diag":
        D = np.diag(q.A).copy()
    elif mode == "block":
        if block_size is None or q.dim % block_size != 0:
            raise ValueError("block mode needs a block size dividing d")
        spec = optim.BlockSpec(block_size, [q.dim])
        D = optim.spatial_average(np.diag(q.A), spec)
    else:
        raise ValueError(f"unknown preconditioner mode {mode!r}")
    if D.min() < q.alpha - 1e-9 or D.max() > q.beta + 1e-9:
        raise AssertionError("preconditioner entries fell outside [alpha, beta]")
    return D


class _DescentPoint:
    """The descent inequality at one SPD quadratic and one point ``w``.

    f(w), the gradient g and ||g||^2 depend only on (q, w), and each
    preconditioner only on (q, mode, block size), so every (k,
    preconditioner) pair checked at the point shares them.
    """

    def __init__(self, q: QuadraticProblem, w):
        if not q.spd and q.alpha <= 0:
            raise ValueError("descent check requires an SPD quadratic")
        self.q = q
        self.w = np.asarray(w, dtype=np.float64)
        self.g = q.analytic_gradient(self.w)
        self.gg = float(self.g @ self.g)
        self.f_w = q.analytic_value(self.w)
        self._preconditioners: dict[tuple, object] = {}

    def slack(self, k: float, mode: str = "full", block_size: int | None = None) -> float:
        q, g = self.q, self.g
        M = self._preconditioners.get((mode, block_size))
        if M is None:
            M = self._preconditioners[mode, block_size] = _preconditioner(q, mode, block_size)
        if mode == "full":
            eigvals, Q = M
            scale = eigvals ** (-k)
            dw = (Q * scale) @ (Q.T @ g)
        else:
            dw = M ** (-k) * g
        step = q.alpha**k / q.beta
        decrease = q.analytic_value(self.w - step * dw) - self.f_w
        bound = -(q.alpha**k / (2.0 * q.beta ** (1.0 + k))) * self.gg
        return decrease - bound


def descent_slack(q: QuadraticProblem, w, k: float, mode: str = "full",
                  block_size: int | None = None) -> float:
    """Signed slack of the guaranteed-decrease inequality at step a^k/b.

    For an a-strongly-convex, b-smooth quadratic and descent direction
    M^{-k} g, the decrease must satisfy
        f(w - s*dw) - f(w) <= -(a^k / (2 b^{1+k})) ||g||^2,  s = a^k / b.
    Returns lhs - rhs; nonpositive (up to rounding) means the property holds.
    f is the closed form ``QuadraticProblem.analytic_value``, never the tape.
    """
    return _DescentPoint(q, w).slack(k, mode, block_size)


def reference_descent_check(q: QuadraticProblem, w, k: float, mode: str = "full",
                            block_size: int | None = None) -> bool:
    """True iff the descent inequality holds up to 1e-12 * max(1, ||g||^2)."""
    point = _DescentPoint(q, w)
    tol = 1e-12 * max(1.0, point.gg)
    return point.slack(k, mode, block_size) <= tol


@dataclass
class PropertyResult:
    name: str
    passed: bool
    detail: str
    elapsed_s: float

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail,
                "elapsed_s": round(self.elapsed_s, 4)}


@dataclass
class VerificationReport:
    properties: list[PropertyResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(p.passed for p in self.properties)

    def to_dict(self) -> dict:
        return {"schema": "hessopt-verify-1", "all_passed": self.all_passed,
                "properties": [p.to_dict() for p in self.properties]}


def _suite_problems() -> list[DifferentiableProblem]:
    return [get_problem(name) for name in problem_names()]


def _sample_theta(problem: DifferentiableProblem, rng) -> np.ndarray:
    return problem.theta0 + 0.5 * rng.standard_normal(problem.dim)


def _check_hvp_linearity(rng, problems) -> tuple[bool, str]:
    worst = 0.0
    for problem in problems:
        for _ in range(5):
            theta = _sample_theta(problem, rng)
            hvp = problem.hvp_operator(theta)
            z1 = rng.standard_normal(problem.dim)
            z2 = rng.standard_normal(problem.dim)
            a, b = rng.uniform(-2, 2, size=2)
            lhs = hvp(a * z1 + b * z2)
            rhs = a * hvp(z1) + b * hvp(z2)
            rel = np.abs(lhs - rhs).max() / max(1.0, np.abs(rhs).max())
            worst = np.maximum(worst, rel)
    return worst <= 1e-10, f"worst relative deviation {worst:.3e} (tol 1e-10)"


def _check_hvp_symmetry(rng, problems) -> tuple[bool, str]:
    worst = 0.0
    for problem in problems:
        for _ in range(5):
            theta = _sample_theta(problem, rng)
            hvp = problem.hvp_operator(theta)
            z1 = rng.standard_normal(problem.dim)
            z2 = rng.standard_normal(problem.dim)
            s12 = float(z1 @ hvp(z2))
            s21 = float(z2 @ hvp(z1))
            rel = abs(s12 - s21) / max(1.0, abs(s12))
            worst = np.maximum(worst, rel)
    return worst <= 1e-8, f"worst symmetry deviation {worst:.3e} (tol 1e-8)"


def _crosses_kink(problem: DifferentiableProblem, theta: np.ndarray, steps) -> bool:
    """Whether a finite difference at ``theta`` could straddle a ReLU kink.

    ``steps`` are the perturbations the difference adds to and subtracts from
    ``theta``. True when some ReLU input is no farther from 0 than the
    largest amount any of them moves that input. Decided from the problem's
    own ReLU inputs, never from the finite difference itself.
    """
    base = problem.relu_inputs(theta)
    if base.size == 0:
        return False
    reach = np.zeros_like(base)
    for step in steps:
        for moved in (theta + step, theta - step):
            np.maximum(reach, np.abs(problem.relu_inputs(moved) - base), out=reach)
    return bool((np.abs(base) <= reach).any())


def _check_gradient_fd(rng, problems) -> tuple[bool, str]:
    worst = 0.0
    for problem in problems:
        theta = _sample_theta(problem, rng)
        while _crosses_kink(problem, theta, np.diag(_steps(theta, DEFAULT_FD_STEP))):
            theta = _sample_theta(problem, rng)
        dev = np.abs(problem.gradient(theta) - fd_gradient(problem, theta)).max()
        worst = np.maximum(worst, dev)
    return worst <= 1e-5, f"worst |grad - fd| {worst:.3e} (tol 1e-5)"


def _check_hvp_fd(rng, problems) -> tuple[bool, str]:
    worst = 0.0
    for problem in problems:
        for _ in range(20):
            theta = _sample_theta(problem, rng)
            z = rng.standard_normal(problem.dim)
            while _crosses_kink(problem, theta, [DEFAULT_FD_STEP / np.linalg.norm(z) * z]):
                theta = _sample_theta(problem, rng)
            hz = problem.hvp(theta, z)
            fd = fd_hvp(problem, theta, z)
            rel = np.abs(hz - fd).max() / max(1.0, np.abs(hz).max())
            worst = np.maximum(worst, rel)
    return worst <= 1e-5, f"worst hvp-vs-fd relative deviation {worst:.3e} (tol 1e-5)"


def _check_quadratic_hvp_exact(rng) -> tuple[bool, str]:
    worst = 0.0
    for seed in range(5):
        q = make_random_spd_quadratic(8, 25.0, seed)
        theta = rng.standard_normal(8)
        z = rng.standard_normal(8)
        dev = np.abs(q.hvp(theta, z) - q.A @ z).max()
        worst = np.maximum(worst, dev)
    return worst <= 1e-12, f"worst |hvp - Az| {worst:.3e} (tol 1e-12)"


def _check_hutchinson_enumeration(rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 13))
        M = rng.standard_normal((d, d))
        H = 0.5 * (M + M.T)
        dev = np.abs(exact_hutchinson_expectation(H) - np.diag(H)).max()
        worst = np.maximum(worst, dev)
    # Same expectation through the tape's hvp on an explicit quadratic.
    q = make_random_spd_quadratic(8, 12.0, 123)
    theta = rng.standard_normal(8)
    tape_dev = np.abs(
        hutchinson_enumerate(q.hvp_operator(theta), 8) - np.diag(q.A)
    ).max()
    worst = np.maximum(worst, tape_dev)
    return worst <= 1e-12, f"worst |enumeration - diag| {worst:.3e} (tol 1e-12)"


def _check_hutchinson_diagonal_exact(rng) -> tuple[bool, str]:
    q = get_problem("fig1-quadratic")
    cfg = HutchinsonConfig(samples_per_estimate=1)
    worst = 0.0
    for stream in range(20):
        est = estimate_diag(q, q.theta0, None, cfg, probe_rng(0, stream))
        worst = np.maximum(worst, np.abs(est.values - np.array([20.0, 2.0])).max())
    return worst == 0.0, f"worst deviation on diagonal Hessian {worst:.3e} (tol exact)"


# Probes per block of the two Monte-Carlo checks. Each block's (rows, 8) @
# (8, 8) product must stay small enough to run on one BLAS thread: at 8,192
# rows OpenBLAS splits it across threads and the check's time turns erratic.
_BLOCK_ROWS = 4_000


def _rows_sum(total: np.ndarray | None, rows: np.ndarray) -> np.ndarray:
    """``rows.sum(axis=0)`` continued from ``total``, the sum of all earlier rows.

    numpy reduces axis 0 of a C-contiguous array with two or more columns one
    row at a time, in order, and ``einsum`` makes the same additions with
    less overhead; every block here is such an array. Adding ``total`` into
    the first row therefore makes a chain of calls over consecutive blocks
    do the additions of one axis-0 sum over the stacked blocks, in the same
    order, so the result is equal bit for bit. ``total`` is None for the
    first block; ``rows[0]`` is overwritten.
    """
    if total is not None:
        rows[0] += total
    return np.einsum("ij->j", rows)


def _blocks(n: int):
    """The (start, stop) row ranges of n rows in blocks of ``_BLOCK_ROWS``."""
    for start in range(0, n, _BLOCK_ROWS):
        yield start, min(start + _BLOCK_ROWS, n)


def _hutchinson_sample_var(H: np.ndarray, n: int, gen) -> np.ndarray:
    """Per-coordinate sample variance (ddof 1) of z * (Hz) over n probes.

    Equals ``(Z * (Z @ H.T)).var(axis=0, ddof=1)`` for the probes
    ``Z = rademacher((n, d), gen)`` bit for bit, and leaves ``gen`` in the
    same state. It makes numpy's two passes, the mean and then the summed
    squared deviations from it, one block at a time; between them only the
    signs are kept, as int8.
    """
    signs = np.empty((n, H.shape[0]), dtype=np.int8)

    def products(Z):
        est = Z @ H.T
        est *= Z
        return est

    total = None
    for start, stop in _blocks(n):
        Z = rademacher((stop - start, H.shape[0]), gen)
        signs[start:stop] = Z
        total = _rows_sum(total, products(Z))
    mean = total / n
    total = None
    for start, stop in _blocks(n):
        dev = products(signs[start:stop].astype(np.float64))
        dev -= mean
        dev *= dev
        total = _rows_sum(total, dev)
    return total / (n - 1)


def _rademacher_mean(n: int, d: int, gen) -> tuple[np.ndarray, bool]:
    """Coordinate means of n probes ``rademacher((n, d), gen)`` and whether
    every entry lies in {-1, +1}, drawn and reduced block by block.

    The means equal ``draws.mean(axis=0)`` bit for bit, and ``gen`` ends in
    the same state as after the one whole draw.
    """
    total = None
    in_support = True
    for start, stop in _blocks(n):
        draws = rademacher((stop - start, d), gen)
        in_support = in_support and bool(np.isin(draws, (-1.0, 1.0)).all())
        total = _rows_sum(total, draws)
    return total / n, in_support


def _check_hutchinson_variance(rng) -> tuple[bool, str]:
    M = np.random.default_rng(99).standard_normal((8, 8))
    H = 0.5 * (M + M.T)
    sample_var = _hutchinson_sample_var(H, 400_000, probe_rng(2024, 0))
    expected = (H**2).sum(axis=1) - np.diag(H) ** 2
    rel = np.abs(sample_var - expected).max() / expected.max()
    return rel <= 0.05, f"max variance deviation {rel:.3%} of largest (tol 5%)"


def _check_rademacher_mean(rng) -> tuple[bool, str]:
    means, in_support = _rademacher_mean(100_000, 6, probe_rng(7, 0))
    worst = np.abs(means).max()
    ok = worst <= 0.02 and in_support
    return ok, f"max |coordinate mean| {worst:.4f} over 1e5 draws (tol 0.02)"


def _check_descent(mode: str):
    def check(rng) -> tuple[bool, str]:
        worst = -np.inf
        for i in range(100):
            d = int(rng.integers(2, 21))
            if mode == "block":
                d += d % 2  # keep d even so b = d/2 divides it
            cond = float(rng.uniform(1.5, 100.0))
            q = make_random_spd_quadratic(d, cond, 1000 + i)
            point = _DescentPoint(q, rng.standard_normal(d) * 3.0)
            tol = 1e-12 * max(1.0, point.gg)
            for k in (0.0, 0.5, 1.0):
                if mode == "block":
                    sizes = [1, 2, d // 2]
                else:
                    sizes = [None]
                for b in sizes:
                    worst = np.maximum(worst, point.slack(k, mode, b) - tol)
        return worst <= 0.0, f"worst slack beyond tolerance {worst:.3e}"

    return check


def _check_adam_reduction(rng) -> tuple[bool, str]:
    # Ten seeds, each a 6-coordinate AdaHessian fed Ds = g: row 0 of a seed's
    # draws is its start, rows 1..200 its gradients. Adam is elementwise, so
    # one 60-coordinate Adam over the seeds' draws side by side steps each
    # seed's 6 columns exactly as that seed's own 6-coordinate Adam would.
    dim, seeds, steps = 6, 10, 200
    draws = np.hstack([np.random.default_rng(seed).standard_normal((steps + 1, dim))
                       for seed in range(seeds)])
    ta = np.empty_like(draws)
    ta[0] = draws[0]
    tb = ta.copy()
    adam = optim.Adam(dim * seeds, lr=0.01)
    for t in range(1, steps + 1):
        ta[t] = adam.step(ta[t - 1], draws[t])
    for seed in range(seeds):
        cols = slice(dim * seed, dim * (seed + 1))
        ah = optim.AdaHessian(dim, lr=0.01, k=1.0)
        for t in range(1, steps + 1):
            g = draws[t, cols]
            tb[t, cols] = ah.step(tb[t - 1, cols], g, Ds=g)
    worst = np.abs(ta - tb).max()
    return worst <= 1e-12, f"worst trajectory deviation {worst:.3e} (tol 1e-12)"


def _check_ema_square_update(rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(100):
        prev = rng.standard_normal(8) ** 2
        val = rng.standard_normal(8)
        beta = float(rng.uniform(0.1, 0.999))
        got = optim.ema_square_update(prev, val, beta)
        ref = beta * prev + (1 - beta) * val * val
        worst = np.maximum(worst, np.abs(got - ref).max())
    return worst == 0.0, f"worst deviation from the recurrence {worst:.3e} (tol exact)"


def _check_spatial_average(rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(50):
        groups = [int(rng.integers(1, 12)) for _ in range(int(rng.integers(1, 4)))]
        b = int(rng.integers(1, 8))
        spec = optim.BlockSpec(b, groups)
        D = rng.standard_normal(spec.dim)
        out = optim.spatial_average(D, spec)
        # Per-block constancy and mean preservation, checked independently.
        offset = 0
        for size in groups:
            for start in range(offset, offset + size, b):
                stop = min(start + b, offset + size)
                block_in = D[start:stop]
                block_out = out[start:stop]
                worst = np.maximum(worst, np.abs(block_out - block_in.mean()).max())
            offset += size
        worst = np.maximum(worst, abs(out.sum() - D.sum()) / max(1.0, abs(D.sum())))
    return worst <= 1e-12, f"worst block-mean deviation {worst:.3e} (tol 1e-12)"


def _check_one_step_quadratic(rng) -> tuple[bool, str]:
    q = get_problem("fig1-quadratic")
    opt = optim.AdaHessian(2, lr=1.0, k=1.0, eps=0.0)
    g = q.gradient(q.theta0)
    est = estimate_diag(q, q.theta0, None, HutchinsonConfig(), probe_rng(0, 1))
    theta1 = opt.step(q.theta0, g, Ds=opt.average_diagonal(est.values))
    norm = float(np.linalg.norm(theta1))
    return norm <= 1e-12, f"||theta_1|| = {norm:.3e} (tol 1e-12)"


# Properties checked on the registry problems; each takes them after rng.
_TAPE_PROPERTIES = {"hvp_linearity", "hvp_symmetry", "gradient_vs_fd", "hvp_vs_fd"}

_PROPERTY_CHECKS = [
    ("hvp_linearity", _check_hvp_linearity),
    ("hvp_symmetry", _check_hvp_symmetry),
    ("gradient_vs_fd", _check_gradient_fd),
    ("hvp_vs_fd", _check_hvp_fd),
    ("quadratic_hvp_exact", _check_quadratic_hvp_exact),
    ("hutchinson_enumeration", _check_hutchinson_enumeration),
    ("hutchinson_diagonal_exact", _check_hutchinson_diagonal_exact),
    ("hutchinson_variance", _check_hutchinson_variance),
    ("rademacher_mean", _check_rademacher_mean),
    ("descent_full_hessian", _check_descent("full")),
    ("descent_diagonal", _check_descent("diag")),
    ("descent_block_averaged", _check_descent("block")),
    ("adam_reduction", _check_adam_reduction),
    ("ema_square_update", _check_ema_square_update),
    ("spatial_average_blocks", _check_spatial_average),
    ("one_step_quadratic", _check_one_step_quadratic),
]


def run_verification_suite(names: list[str] | None = None,
                           seed: int = 0) -> VerificationReport:
    """Run the independent property suite and collect a structured report.

    ``names`` restricts the run to a subset of properties; unknown names
    raise before anything executes.
    """
    selected = _PROPERTY_CHECKS
    if names is not None:
        known = {name for name, _ in _PROPERTY_CHECKS}
        unknown = sorted(set(names) - known)
        if unknown:
            raise KeyError(f"unknown properties: {', '.join(map(repr, unknown))}")
        selected = [(n, c) for n, c in _PROPERTY_CHECKS if n in set(names)]
    report = VerificationReport()
    # The tape properties share one build of the registry problems: made when
    # the first of them runs, timed with it, and dropped after the last.
    last_tape = next((n for n, _ in reversed(selected) if n in _TAPE_PROPERTIES), None)
    problems = None
    for name, check in selected:
        # crc32 keys the stream stably by property name across processes.
        rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        start = time.perf_counter()
        try:
            if name in _TAPE_PROPERTIES:
                problems = problems or _suite_problems()
                passed, detail = check(rng, problems)
            else:
                passed, detail = check(rng)
        except Exception as exc:  # a crashed property is a failed property
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        if name == last_tape:
            problems = None
        report.properties.append(
            PropertyResult(name, bool(passed), detail, time.perf_counter() - start)
        )
    return report
