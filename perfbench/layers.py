"""Per-layer timings: each public layer function driven directly.

Every timing is the median of repeated calls on the problem a workload names,
after one untimed call. Node counts walk ``Tensor.parents`` from a tape's
output, so they are exact and repeat from run to run.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

from hessopt import autodiff as ad
from hessopt import cli, harness, hutchinson, optim, oracle, problems

PROPERTIES = (
    "hvp_linearity", "hvp_symmetry", "gradient_vs_fd", "hvp_vs_fd",
    "quadratic_hvp_exact", "hutchinson_enumeration", "hutchinson_diagonal_exact",
    "hutchinson_variance", "rademacher_mean", "descent_full_hessian",
    "descent_diagonal", "descent_block_averaged", "adam_reduction",
    "ema_square_update", "spatial_average_blocks", "one_step_quadratic",
)


def median_time(fn, reps: int) -> float:
    fn()
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def paired_times(first, second, pairs: int) -> tuple[list[float], list[float]]:
    """Times of two calls made in alternation, so drift hits both alike."""
    first()
    second()
    a, b = [], []
    for _ in range(pairs):
        for fn, out in ((first, a), (second, b)):
            start = time.perf_counter()
            fn()
            out.append(time.perf_counter() - start)
    return a, b


def median_ratio(first, second, pairs: int) -> float:
    a, b = paired_times(first, second, pairs)
    return statistics.median(a) / statistics.median(b)


def median_excess(first, second, pairs: int) -> float:
    """Median over pairs of how much longer ``first`` took than ``second``."""
    a, b = paired_times(first, second, pairs)
    return statistics.median(x - y for x, y in zip(a, b))


def count_nodes(output: ad.Tensor) -> int:
    seen = {id(output)}
    stack = [output]
    while stack:
        for parent in stack.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _tape(cfg: harness.RunConfig, seed: int):
    """The workload's problem, a point, a batch, a probe, and one taped HVP."""
    problem = problems.get_problem(cfg.problem, **cfg.problem_params)
    theta = problem.theta0.copy()
    batch = problem.sample_batch(1, seed)
    z = hutchinson.rademacher(problem.dim, hutchinson.probe_rng(seed, 1))
    t = ad.variable(theta)
    loss = problem.build_loss(t, batch)
    (g,) = ad.backward(loss, [t])
    (hz,) = ad.backward(ad.dot(g, ad.constant(z)), [t])
    return problem, theta, batch, z, t, loss, g, hz


def tape_nodes(cfg: harness.RunConfig, seed: int) -> dict:
    *_, loss, g, hz = _tape(cfg, seed)
    return {"autodiff.nodes_forward": count_nodes(loss),
            "autodiff.nodes_grad": count_nodes(g),
            "autodiff.nodes_hvp": count_nodes(hz)}


def autodiff_and_problem_layers(cfg: harness.RunConfig, seed: int, reps: int) -> dict:
    problem, theta, batch, z, t, loss, g, _ = _tape(cfg, seed)

    def tape_and_hvp():
        _, _, hvp = problem.full_tape(theta, batch)
        hvp(z)

    out = {
        "autodiff.forward_s": median_time(
            lambda: problem.build_loss(ad.variable(theta), batch), reps),
        "autodiff.grad_backward_s": median_time(lambda: ad.backward(loss, [t]), reps),
        "autodiff.hvp_backward_s": median_time(
            lambda: ad.backward(ad.dot(g, ad.constant(z)), [t]), reps),
        "problems.build_s": median_time(
            lambda: problems.get_problem(cfg.problem, **cfg.problem_params), reps),
        "problems.sample_batch_s": median_time(lambda: problem.sample_batch(2, seed), reps),
        "problems.value_s": median_time(lambda: problem.value(theta, batch), reps),
        "problems.value_and_gradient_s": median_time(
            lambda: problem.value_and_gradient(theta, batch), reps),
        "problems.full_tape_s": median_time(lambda: problem.full_tape(theta, batch), reps),
    }
    out["autodiff.hvp_grad_ratio"] = median_ratio(
        tape_and_hvp, lambda: problem.value_and_gradient(theta, batch), reps)

    _, grad, hvp = problem.full_tape(theta, batch)
    hcfg = hutchinson.HutchinsonConfig(samples_per_estimate=cfg.samples, seed=seed)
    rng = hutchinson.probe_rng(seed, 1)
    out["hutchinson.estimate_s"] = median_time(
        lambda: hutchinson.estimate_diag(problem, theta, batch, hcfg, rng, hvp=hvp), reps)
    out["hutchinson.probe_rng_s"] = median_time(lambda: hutchinson.probe_rng(seed, 7), reps)
    out["hutchinson.rademacher_s"] = median_time(
        lambda: hutchinson.rademacher(problem.dim, rng), reps)

    opt = optim.make_optimizer("adahessian", problem.dim, group_sizes=problem.group_sizes,
                               lr=cfg.lr, block_size=cfg.block_size)
    raw = hutchinson.estimate_diag(problem, theta, batch, hcfg, rng, hvp=hvp).values
    Ds = opt.average_diagonal(raw)
    out["optim.step_s"] = median_time(lambda: opt.step(theta, grad, Ds=Ds), reps)
    out["optim.spatial_average_s"] = median_time(lambda: opt.average_diagonal(raw), reps)

    out["oracle.fd_gradient_s"] = median_time(
        lambda: oracle.fd_gradient(problem, theta, batch=batch), 3)
    out["oracle.fd_hvp_s"] = median_time(
        lambda: oracle.fd_hvp(problem, theta, z, batch=batch), reps)
    # Sign enumeration needs d <= 12; this is the tape case the suite enumerates.
    quad = problems.make_random_spd_quadratic(8, 12.0, 123)
    quad_hvp = quad.hvp_operator(np.ones(8))
    out["oracle.hutchinson_enumerate_s"] = median_time(
        lambda: oracle.hutchinson_enumerate(quad_hvp, 8), 3)
    return out


def oracle_properties(seed: int) -> tuple[dict, list[str]]:
    """Seconds per property, each through its own suite call; also failures."""
    out, failed = {}, []
    for name in PROPERTIES:
        start = time.perf_counter()
        report = oracle.run_verification_suite(names=[name], seed=seed)
        out[f"oracle.{name}_s"] = time.perf_counter() - start
        if not report.all_passed:
            failed.append(name)
    return out, failed


def harness_layers(cfg: harness.RunConfig, out_dir: Path, pairs: int) -> dict:
    off = cfg.with_overrides({"cost_ratio": False, "out": str(out_dir), "run_name": "layers"})
    on = off.with_overrides({"cost_ratio": True})
    return {
        "harness.run_s": median_time(lambda: harness.run(off, write_files=False), pairs),
        "harness.companion_s": median_excess(lambda: harness.run(on, write_files=False),
                                             lambda: harness.run(off, write_files=False),
                                             pairs),
        "harness.write_s": median_excess(lambda: harness.run(off, write_files=True),
                                         lambda: harness.run(off, write_files=False), pairs),
    }


def cost_ratios(cfg: harness.RunConfig, iters: int, pairs: int) -> dict:
    """AdaHessian over SGD per-iteration cost, timed in alternating runs.

    Each pair runs the second-order configuration and a plain SGD run of the
    same problem, iterations and seed back to back, so drift on the machine
    reaches both sides of the ratio. The summary's own ratio, which times its
    SGD companion after the run, is reported beside it.
    """
    out = {}
    sgd = cfg.with_overrides({"optimizer": "sgd", "lr": 1e-9, "iters": iters,
                              "cost_ratio": False})
    for freq in (1, 5):
        second = cfg.with_overrides({"hessian_freq": freq, "iters": iters,
                                     "cost_ratio": False})
        out[f"hutchinson.cost_ratio_vs_sgd_f{freq}"] = median_ratio(
            lambda: harness.run(second, write_files=False),
            lambda: harness.run(sgd, write_files=False), pairs)
        summary = harness.run(second.with_overrides({"cost_ratio": True}),
                              write_files=False).summary
        out[f"hutchinson.summary_cost_ratio_vs_sgd_f{freq}"] = summary["cost_ratio_vs_sgd"]
    return out


def cli_parse(argv: list[str], reps: int) -> dict:
    return {"cli.parse_s": median_time(lambda: cli.build_parser().parse_args(argv), reps)}
