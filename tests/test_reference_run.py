"""``run()`` against Algorithm 1 written out in plain numpy.

The oracle checks the parts of a run one by one: HVPs, the Hutchinson
estimator, one optimizer step. This test checks how ``run()`` puts them
together. The reference below computes AdaHessian's iterates from the
problems' closed forms (``analytic_gradient`` and ``analytic_hessian``, or
``hessian_matrix``), the numpy reference draws (``sample_batch`` for the
minibatch of iteration t, ``rademacher(d, probe_rng(seed, t))`` for each of
its probes), and the update rule as the paper states it: the estimate
schedule with warmup, block averaging, decoupled weight decay, the bias
corrected moments, the Hessian power and the learning-rate schedule. It uses
nothing of ``harness``, ``optim`` or ``autodiff``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessopt.harness import RunConfig, run
from hessopt.hutchinson import probe_rng, rademacher
from hessopt.problems import get_problem

ITERS = 30
LR = 0.05
RTOL = 1e-12

PROBLEMS = {
    "logreg-full": ("logreg", {"batch_size": None}),
    "logreg-batch": ("logreg", {"batch_size": 32}),
    "spd-quadratic": ("spd-quadratic", {"d": 8, "condition_number": 10.0, "seed": 3}),
}


def lr_factor(schedule: str, params: dict, t: int) -> float:
    """The learning-rate multiplier of iteration t."""
    if schedule == "step_decay":
        return params["factor"] ** sum(m <= t for m in params["milestones"])
    if schedule == "linear_warmup_then_decay":
        warmup, total = params["warmup_steps"], params["total_steps"]
        if t <= warmup:
            return t / warmup
        return max((total - t) / (total - warmup), 0.0)
    return 1.0


def hessian(problem, theta, batch):
    if hasattr(problem, "analytic_hessian"):
        return problem.analytic_hessian(theta, batch)
    return problem.hessian_matrix()


def gradient(problem, theta, batch):
    if batch is None:
        return problem.analytic_gradient(theta)
    return problem.analytic_gradient(theta, batch)


def reference_run(problem, config: RunConfig, points) -> list[np.ndarray]:
    """theta after each iteration of AdaHessian (Algorithm 1) on ``problem``,
    iteration t stepping from ``points[t - 1]``."""
    d, b = problem.dim, config.block_size
    m, v, Ds = np.zeros(d), np.zeros(d), None
    thetas = []
    for t, theta in enumerate(points, start=1):
        batch = problem.sample_batch(t, config.seed)
        g = gradient(problem, theta, batch)
        if t <= config.warmup or (t - config.warmup - 1) % config.hessian_freq == 0:
            H = hessian(problem, theta, batch)
            rng = probe_rng(config.seed, t)
            probes = [rademacher(d, rng) for _ in range(config.samples)]
            D = sum(z * (H @ z) for z in probes) / config.samples
            # Each block of b consecutive entries (the last one may be shorter)
            # takes its mean.
            Ds = np.concatenate([np.full(len(D[i:i + b]), D[i:i + b].mean())
                                 for i in range(0, d, b)])
        lr = config.lr * lr_factor(config.schedule, config.schedule_params, t)
        theta = theta - lr * config.weight_decay * theta
        m = config.beta1 * m + (1 - config.beta1) * g
        v = config.beta2 * v + (1 - config.beta2) * Ds**2
        Dbar = np.sqrt(v / (1 - config.beta2**t)) if config.hessian_ema else np.abs(Ds)
        theta = theta - lr * (m / (1 - config.beta1**t)) / (Dbar**config.k + config.eps)
        thetas.append(theta)
    return thetas


SCHEDULES = st.one_of(
    st.just(("constant", {})),
    st.tuples(st.just("step_decay"), st.fixed_dictionaries({
        "milestones": st.lists(st.integers(1, ITERS), max_size=3),
        "factor": st.sampled_from([0.1, 0.5, 0.9])})),
    st.integers(1, ITERS - 1).flatmap(lambda warmup: st.tuples(
        st.just("linear_warmup_then_decay"), st.fixed_dictionaries({
            "warmup_steps": st.just(warmup),
            "total_steps": st.integers(warmup + 1, 2 * ITERS)}))),
)
SETTINGS = st.fixed_dictionaries({
    "hessian_freq": st.integers(1, 5),
    "warmup": st.integers(0, 6),
    "block_size": st.integers(1, 9),
    "k": st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
    "weight_decay": st.sampled_from([0.0, 1e-3, 0.01]),
    "hessian_ema": st.booleans(),
    "beta1": st.floats(0.5, 0.95),
    "beta2": st.floats(0.9, 0.9999),
    "samples": st.integers(1, 3),
    "seed": st.integers(0, 2**32 - 1),
})


@pytest.mark.parametrize("case", sorted(PROBLEMS))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(hyper=SETTINGS, schedule=SCHEDULES)
def test_run_follows_algorithm_1(case, hyper, schedule):
    name, params = PROBLEMS[case]
    config = RunConfig(problem=name, problem_params=params, optimizer="adahessian", lr=LR,
                       iters=ITERS, schedule=schedule[0], schedule_params=schedule[1],
                       cost_ratio=False, **hyper)
    result = run(config, write_files=False)
    assert result.status == "ok"
    got = [np.array(record.theta) for record in result.records]
    assert len(got) == ITERS
    # Each reference step starts from the point the run recorded before it,
    # so a rounding difference does not compound: without the moving
    # average, 30 steps on minibatch logreg can turn a one-ulp change of H
    # into 4e-11 of theta.
    problem = get_problem(name, **params)
    want = reference_run(problem, config, [problem.theta0, *got[:-1]])
    for t, (a, b) in enumerate(zip(got, want), start=1):
        assert np.abs(a - b).max() <= RTOL * np.abs(b).max(), t
    np.testing.assert_array_equal(result.theta_final, got[-1])
