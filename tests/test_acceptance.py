"""End-to-end acceptance suite: nine measurable criteria, one verdict each.

Each test exercises the toolkit at its public seams (harness, optimizers,
estimator, oracle) against a fixed tolerance and a wall-clock budget, and
emits a single ``[C#] PASS/FAIL`` line through the ``criterion`` fixture.
Run with ``pytest tests/test_acceptance.py -q -rA`` to see every verdict.
"""

import time

import numpy as np

from hessopt import optim
from hessopt.harness import RunConfig, run
from hessopt.hutchinson import HutchinsonConfig, estimate_diag, probe_rng
from hessopt.oracle import (
    descent_slack,
    exact_hutchinson_expectation,
    fd_hvp,
    hutchinson_enumerate,
)
from hessopt.problems import (
    get_problem,
    make_fig1_quadratic,
    make_random_spd_quadratic,
    problem_names,
)


def test_c1_one_step_convergence_on_ill_conditioned_quadratic(criterion):
    # exact diagonal + unit step + k=1 lands on the quadratic's optimum
    # in a single iteration, through the full run pipeline
    start = time.perf_counter()
    cfg = RunConfig(problem="fig1-quadratic", optimizer="adahessian",
                    lr=1.0, k=1.0, block_size=1, eps=0.0, iters=1,
                    cost_ratio=False)
    result = run(cfg, write_files=False)
    norm = float(np.linalg.norm(result.theta_final))
    elapsed = time.perf_counter() - start
    criterion(1, norm <= 1e-12,
              f"one-step convergence: ||theta_1|| = {norm:.2e} (tol 1e-12)",
              elapsed, budget_s=1.0)


def test_c2_sign_enumeration_recovers_hessian_diagonals(criterion):
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 13))
        M = rng.standard_normal((d, d))
        H = 0.5 * (M + M.T)
        dev = float(np.abs(exact_hutchinson_expectation(H) - np.diag(H)).max())
        worst = max(worst, dev)
    # same expectation routed through a real taped Hessian-vector product
    q = make_random_spd_quadratic(d=8, condition_number=12.0, seed=42)
    tape_dev = float(np.abs(
        hutchinson_enumerate(q.hvp_operator(rng.standard_normal(8)), 8)
        - np.diag(q.hessian_matrix())
    ).max())
    worst = max(worst, tape_dev)
    # on a diagonal Hessian a single probe is exact, not just unbiased
    fig1 = make_fig1_quadratic()
    single = 0.0
    for stream in range(20):
        est = estimate_diag(fig1, fig1.theta0, None, HutchinsonConfig(),
                            probe_rng(0, stream))
        single = max(single, float(np.abs(est.values - [20.0, 2.0]).max()))
    elapsed = time.perf_counter() - start
    criterion(2, worst <= 1e-12 and single == 0.0,
              f"sign enumeration: worst |avg - diag| = {worst:.2e} over 50 "
              f"matrices (tol 1e-12); single-probe deviation on diagonal "
              f"Hessian = {single:.1e} (exact)",
              elapsed, budget_s=30.0)


def test_c3_hvp_matches_finite_differences_on_every_problem(criterion):
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    worst_fd = 0.0
    worst_sym = 0.0
    for name in problem_names():
        problem = get_problem(name)
        batch = problem.sample_batch(t=1, seed=0)
        for _ in range(20):
            theta = problem.theta0 + 0.5 * rng.standard_normal(problem.dim)
            z = rng.standard_normal(problem.dim)
            hz = problem.hvp(theta, z, batch)
            fd = fd_hvp(problem, theta, z, batch=batch)
            rel = float(np.abs(hz - fd).max() / max(1.0, np.abs(hz).max()))
            worst_fd = max(worst_fd, rel)
            z2 = rng.standard_normal(problem.dim)
            s12 = float(z @ problem.hvp(theta, z2, batch))
            s21 = float(z2 @ hz)
            worst_sym = max(worst_sym, abs(s12 - s21) / max(1.0, abs(s12)))
    elapsed = time.perf_counter() - start
    criterion(3, worst_fd <= 1e-5 and worst_sym <= 1e-8,
              f"hvp fidelity on {len(problem_names())} problems x 20 pairs: "
              f"worst vs-FD relative = {worst_fd:.2e} (tol 1e-5), worst "
              f"symmetry = {worst_sym:.2e} (tol 1e-8)",
              elapsed, budget_s=60.0)


def test_c4_descent_inequality_for_powered_preconditioners(criterion):
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    worst_excess = -np.inf
    checks = 0
    for i in range(100):
        d = int(rng.integers(2, 21))
        d += d % 2  # even, so both 2 and d/2 divide d
        cond = float(rng.uniform(1.5, 100.0))
        q = make_random_spd_quadratic(d=d, condition_number=cond, seed=5000 + i)
        w = 3.0 * rng.standard_normal(d)
        g = q.analytic_gradient(w)
        tol = 1e-12 * max(1.0, float(g @ g))
        for k in (0.0, 0.5, 1.0):
            jobs = [("full", None), ("diag", None)]
            jobs += [("block", b) for b in (1, 2, d // 2)]
            for mode, b in jobs:
                slack = descent_slack(q, w, k, mode, b)
                worst_excess = max(worst_excess, slack - tol)
                checks += 1
    elapsed = time.perf_counter() - start
    criterion(4, worst_excess <= 0.0,
              f"descent inequality held in {checks} checks (100 SPD "
              f"quadratics x k in {{0, 0.5, 1}} x 5 preconditioners); worst "
              f"slack beyond tolerance = {worst_excess:.2e}",
              elapsed, budget_s=120.0)


def test_c5_gradient_fed_curvature_track_reproduces_adam(criterion):
    start = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        dim = 6
        adam = optim.Adam(dim, lr=0.01)
        ada = optim.AdaHessian(dim, lr=0.01, k=1.0)
        ta = rng.standard_normal(dim)
        tb = ta.copy()
        for _ in range(200):
            g = rng.standard_normal(dim)
            ta = adam.step(ta, g)
            tb = ada.step(tb, g, Ds=g)
            worst = max(worst, float(np.abs(ta - tb).max()))
    elapsed = time.perf_counter() - start
    criterion(5, worst <= 1e-12,
              f"Adam reduction (Ds := g, k=1, b=1): worst deviation over "
              f"200 steps x 10 seeds = {worst:.2e} (tol 1e-12)",
              elapsed, budget_s=None)


def test_c6_curvature_momentum_rescues_noisy_parabola(criterion):
    # documented setting: lr=1.2, beta1=0.8, beta2=0.98, k=1. In one
    # dimension the probe is exact, so both runs are fully deterministic.
    start = time.perf_counter()
    base = dict(problem="noisy-parabola", optimizer="adahessian", lr=1.2,
                beta1=0.8, beta2=0.98, k=1.0, hessian_freq=1, eps=1e-8,
                seed=0, cost_ratio=False)
    on = run(RunConfig(**base, iters=50, hessian_ema=True), write_files=False)
    reached = [r.t for r in on.records if abs(r.theta[0]) < 1e-2]
    off = run(RunConfig(**base, iters=1000, hessian_ema=False), write_files=False)
    final_off = abs(off.theta_final[0])
    ok = bool(reached) and final_off > 5e-2
    elapsed = time.perf_counter() - start
    criterion(6, ok,
              "curvature momentum rescue at lr=1.2: with EMA |x| < 1e-2 "
              f"first at t={reached[0] if reached else '>50'} (limit 50); "
              f"without EMA |x| = {final_off:.3f} after 1000 iterations "
              "(must stay > 5e-2)",
              elapsed, budget_s=30.0)


def test_c7_cost_ratio_falls_as_estimates_become_sparser(criterion):
    # The machine's speed changes between runs, so each ratio divides an
    # AdaHessian run's amortized time by the SGD companion run just before
    # it, and each frequency takes the median of its ratios over the rounds.
    # The runs are deterministic, so a frequency's final loss is the same in
    # every round.
    start = time.perf_counter()
    repeats = 20
    # the harness's gradient-descent companion, timed by the same run loop
    companion = RunConfig(problem="tiny-mlp", problem_params={"batch_size": None},
                          optimizer="sgd", lr=1e-9, momentum=0.9, iters=300, seed=0,
                          cost_ratio=False)
    configs = [RunConfig(problem="tiny-mlp", problem_params={"batch_size": None},
                         optimizer="adahessian", lr=0.03, k=1.0,
                         hessian_freq=freq, warmup=50, iters=300, seed=0,
                         cost_ratio=False)
               for freq in (1, 2, 3, 4, 5)]
    rounds = [[] for _ in configs]
    losses = [None] * len(configs)
    for _ in range(repeats):
        for i, cfg in enumerate(configs):
            sgd_time = run(companion, write_files=False).summary["median_iter_seconds"]
            result = run(cfg, write_files=False)
            rounds[i].append(result.summary["amortized_iter_seconds"] / sgd_time)
            losses[i] = result.final_loss
    ratios = [float(np.median(r)) for r in rounds]
    decreasing = all(b < a for a, b in zip(ratios, ratios[1:]))
    excess_ok = (ratios[-1] - 1.0) <= 0.6 * (ratios[0] - 1.0)
    spread = (max(losses) - min(losses)) / min(losses)
    elapsed = time.perf_counter() - start
    pretty = ", ".join(f"{r:.2f}" for r in ratios)
    criterion(7, decreasing and excess_ok and spread <= 0.2,
              f"cost ratio vs gradient descent across estimate frequency "
              f"1..5: [{pretty}] (strictly decreasing; freq-5 excess <= 60% "
              f"of freq-1 excess); final-loss spread {spread:.1%} (tol 20%)",
              elapsed, budget_s=300.0)


def test_c8_curvature_preconditioning_survives_learning_rate_stress(criterion):
    start = time.perf_counter()
    tuned = {"sgd": 0.3, "adagrad": 0.3, "rmsprop": 0.01, "adam": 0.03,
             "adamw": 0.03, "adahessian": 0.3}
    multipliers = (0.5, 1.0, 2.0, 4.0, 10.0)
    seeds = (0, 1, 2)
    limit = 1.0
    grid_lines = []
    ada_ok = True
    ada_worst = -np.inf
    sgd_top_diverged = 0
    for name, base_lr in tuned.items():
        for mult in multipliers:
            cell_losses = []
            diverged = 0
            for seed in seeds:
                cfg = RunConfig(problem="logreg",
                                problem_params={"batch_size": 32},
                                optimizer=name, lr=base_lr * mult,
                                iters=300, seed=seed,
                                divergence_loss=limit, cost_ratio=False)
                result = run(cfg, write_files=False)
                loss = result.final_loss
                cell_losses.append(loss)
                if result.status != "ok" or not np.isfinite(loss) or loss > limit:
                    diverged += 1
            worst_cell = max(cell_losses)
            if name == "adahessian":
                ada_ok = ada_ok and np.isfinite(worst_cell)
                ada_worst = max(ada_worst, worst_cell)
            if name == "sgd" and mult == multipliers[-1]:
                sgd_top_diverged = diverged
            grid_lines.append(
                f"  {name:>10s} x{mult:<4g} lr={base_lr * mult:<7.3g} "
                f"worst_loss={worst_cell:9.3g}  diverged={diverged}/{len(seeds)}"
            )
    print("learning-rate stress grid (final loss, 3 seeds):")
    for line in grid_lines:
        print(line)
    ok = ada_ok and sgd_top_diverged == len(seeds)
    elapsed = time.perf_counter() - start
    criterion(8, ok,
              f"lr stress 0.5x-10x of tuned rates: adahessian finite at all "
              f"{len(multipliers) * len(seeds)} cells (worst {ada_worst:.3f}); "
              f"sgd at 10x diverged {sgd_top_diverged}/{len(seeds)} seeds "
              "(grid printed above)",
              elapsed, budget_s=None)


def test_c9_identical_configs_produce_byte_identical_trajectories(criterion, tmp_path):
    start = time.perf_counter()
    configs = [
        dict(problem="logreg", problem_params={"batch_size": 32},
             optimizer="adahessian", lr=0.1, hessian_freq=2, warmup=1,
             iters=40, seed=11),
        dict(problem="tiny-mlp", optimizer="sgd", lr=0.01, iters=25, seed=4),
    ]
    identical = True
    for i, overrides in enumerate(configs):
        paths = []
        for attempt in ("a", "b"):
            cfg = RunConfig(**overrides, out=str(tmp_path / f"{i}{attempt}"),
                            cost_ratio=False)
            paths.append(run(cfg).trajectory_path)
        identical = identical and paths[0].read_bytes() == paths[1].read_bytes()
    elapsed = time.perf_counter() - start
    criterion(9, identical,
              f"repeated runs byte-identical for {len(configs)} stochastic "
              "configs (minibatch logistic regression, minibatch MLP)",
              elapsed, budget_s=None)
