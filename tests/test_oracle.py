"""Tests for the finite-difference and enumeration reference oracles."""

import time
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessopt import autodiff as ad
from hessopt import optim
from hessopt import oracle
from hessopt import problems as pr
from hessopt.hutchinson import probe_rng, rademacher
from hessopt.oracle import (
    all_sign_vectors,
    descent_slack,
    exact_hutchinson_expectation,
    fd_gradient,
    fd_hessian,
    fd_hvp,
    hutchinson_enumerate,
    reference_descent_check,
    run_verification_suite,
)


class TestFiniteDifferences:
    def test_fd_gradient_on_quadratic(self):
        p = pr.make_fig1_quadratic()
        theta = np.array([1.0, 1.0])
        np.testing.assert_allclose(
            fd_gradient(p, theta), p.analytic_gradient(theta), rtol=1e-7, atol=1e-8
        )

    def test_fd_gradient_on_logistic_regression(self):
        p = pr.make_logreg()
        rng = np.random.default_rng(0)
        theta = 0.2 * rng.normal(size=p.dim)
        np.testing.assert_allclose(
            fd_gradient(p, theta), p.analytic_gradient(theta), rtol=1e-6, atol=1e-7
        )

    def test_fd_hvp_on_quadratic_is_near_exact(self):
        A = np.array([[2.0, 1.0], [1.0, 3.0]])
        p = pr.QuadraticProblem(A, np.zeros(2), name="q")
        z = np.array([0.3, -0.7])
        np.testing.assert_allclose(
            fd_hvp(p, np.ones(2), z), A @ z, rtol=1e-9, atol=1e-9
        )

    def test_fd_hvp_zero_direction_returns_zero(self):
        p = pr.make_fig1_quadratic()
        np.testing.assert_array_equal(fd_hvp(p, np.ones(2), np.zeros(2)), np.zeros(2))

    def test_fd_hessian_recovers_quadratic_matrix(self):
        A = np.array([[2.0, 1.0], [1.0, 3.0]])
        p = pr.QuadraticProblem(A, np.zeros(2), name="q")
        dense = fd_hessian(p, np.array([0.5, -0.5]))
        np.testing.assert_allclose(dense.H, A, atol=1e-8)
        assert dense.asymmetry < 1e-8
        np.testing.assert_allclose(dense.diagonal(), [2.0, 3.0], atol=1e-8)

    def test_fd_hessian_on_noisy_parabola_second_derivative(self):
        # truncation error at step h is ~(h^2/6) f'''' = (h^2/6) 0.4 (20 pi)^3,
        # so h=1e-4 can only promise ~1.7e-4; halving h buys back the 1e-4 goal
        p = pr.make_noisy_parabola()
        want = 2.0 + 4.0 * np.pi
        got_coarse = fd_hessian(p, np.zeros(1), h=1e-4).H[0, 0]
        assert abs(got_coarse - want) < 2e-4
        got_fine = fd_hessian(p, np.zeros(1), h=5e-5).H[0, 0]
        assert abs(got_fine - want) < 1e-4

    def test_fd_hessian_is_nearly_symmetric_on_smooth_problem(self):
        p = pr.make_logreg()
        rng = np.random.default_rng(1)
        dense = fd_hessian(p, 0.1 * rng.normal(size=p.dim))
        assert dense.asymmetry < 1e-6

    def test_fd_hessian_matches_analytic_logistic_hessian(self):
        p = pr.make_logreg()
        rng = np.random.default_rng(2)
        theta = 0.1 * rng.normal(size=p.dim)
        dense = fd_hessian(p, theta)
        np.testing.assert_allclose(dense.H, p.analytic_hessian(theta), atol=1e-5)

    def test_fd_hessian_rejects_large_dimension(self):
        p = pr.QuadraticProblem(np.eye(64), np.zeros(64), name="big")

        class Wide:
            dim = 65

        with pytest.raises(ValueError):
            fd_hessian(p, np.zeros(65))
        assert p.dim == 64  # d=64 itself is allowed


class TestSignEnumeration:
    def test_all_sign_vectors_shape_and_uniqueness(self):
        Z = all_sign_vectors(4)
        assert Z.shape == (16, 4)
        assert set(np.unique(Z)) == {-1.0, 1.0}
        assert len({tuple(row) for row in Z}) == 16

    def test_enumeration_limited_to_twelve_dimensions(self):
        with pytest.raises(ValueError):
            all_sign_vectors(13)

    def test_expectation_equals_diagonal_on_hand_matrix(self):
        H = np.array([[2.0, 1.0], [1.0, 3.0]])
        np.testing.assert_allclose(exact_hutchinson_expectation(H), [2.0, 3.0], atol=1e-15)

    def test_expectation_on_zero_matrix_is_zero(self):
        np.testing.assert_array_equal(exact_hutchinson_expectation(np.zeros((3, 3))), np.zeros(3))

    def test_enumerate_through_hvp_matches_direct_expectation(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            d = int(rng.integers(2, 9))
            M = rng.normal(size=(d, d))
            H = 0.5 * (M + M.T)
            got = hutchinson_enumerate(lambda z: H @ z, d)
            np.testing.assert_allclose(got, np.diag(H), atol=1e-12)

    def test_enumerate_through_autodiff_tape(self):
        A = np.array([[2.0, 1.0], [1.0, 3.0]])
        p = pr.QuadraticProblem(A, np.zeros(2), name="q")
        hvp = p.hvp_operator(np.zeros(2), None)
        np.testing.assert_allclose(hutchinson_enumerate(hvp, 2), [2.0, 3.0], atol=1e-12)

    def test_twelve_dimensional_enumeration_is_fast(self):
        rng = np.random.default_rng(4)
        M = rng.normal(size=(12, 12))
        H = 0.5 * (M + M.T)
        start = time.perf_counter()
        got = hutchinson_enumerate(lambda z: H @ z, 12)
        elapsed = time.perf_counter() - start
        np.testing.assert_allclose(got, np.diag(H), atol=1e-12)
        assert elapsed < 10.0


class TestDescentInequality:
    def test_fig1_quadratic_full_newton_step(self):
        q = pr.make_fig1_quadratic()
        w = np.array([1.0, 1.0])
        assert reference_descent_check(q, w, k=1.0, mode="full")
        slack = descent_slack(q, w, k=1.0, mode="full")
        assert slack <= 1e-12 * max(1.0, float(q.analytic_gradient(w) @ q.analytic_gradient(w)))

    @pytest.mark.parametrize("k", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("mode", ["full", "diag", "block"])
    def test_random_spd_instances(self, k, mode):
        rng = np.random.default_rng(5)
        for _ in range(5):
            d = int(rng.integers(1, 6)) * 2  # even so block sizes divide d
            cond = float(rng.uniform(1.5, 50.0))
            q = pr.make_random_spd_quadratic(d=d, condition_number=cond, seed=int(rng.integers(1e6)))
            w = rng.normal(size=d)
            bs = 2 if mode == "block" else None
            assert reference_descent_check(q, w, k=k, mode=mode, block_size=bs), (
                f"descent failed: d={d} cond={cond:.2f} k={k} mode={mode}"
            )

    def test_gradient_descent_direction_at_k_zero(self):
        # k=0 ignores the preconditioner entirely; the bound is the classical
        # smooth-descent guarantee at step 1/beta
        q = pr.make_random_spd_quadratic(d=4, condition_number=10.0, seed=6)
        w = np.ones(4)
        for mode in ("full", "diag"):
            assert reference_descent_check(q, w, k=0.0, mode=mode)

    def test_block_mode_requires_divisible_block_size(self):
        q = pr.make_random_spd_quadratic(d=6, condition_number=5.0, seed=7)
        with pytest.raises(ValueError):
            descent_slack(q, np.ones(6), k=1.0, mode="block", block_size=4)

    def test_unknown_mode_raises(self):
        q = pr.make_fig1_quadratic()
        with pytest.raises(ValueError):
            descent_slack(q, np.ones(2), k=1.0, mode="cholesky")

    def test_non_spd_quadratic_rejected(self):
        q = pr.QuadraticProblem(np.diag([1.0, -2.0]), np.zeros(2), name="saddle")
        with pytest.raises(ValueError):
            descent_slack(q, np.ones(2), k=1.0)


class TestClosedFormValue:
    @settings(max_examples=150, deadline=None)
    @given(d=st.integers(2, 29), log_cond=st.floats(0.0, 4.0), seed=st.integers(0, 2**32 - 1),
           log_scale=st.floats(-3.0, 3.0))
    def test_analytic_value_equals_tape_value_bitwise(self, d, log_cond, seed, log_scale):
        rng = np.random.default_rng(seed)
        base = pr.make_random_spd_quadratic(d, 10.0**log_cond, seed)
        q = pr.QuadraticProblem(base.A, rng.standard_normal(d), spd=True)
        w = rng.standard_normal(d) * 10.0**log_scale
        assert np.float64(q.analytic_value(w)).tobytes() == np.float64(q.value(w)).tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_value_raises(self):
        q = pr.make_fig1_quadratic()
        with pytest.raises(ad.NumericError, match="fig1-quadratic loss"):
            q.analytic_value(np.array([1e200, 1e200]))

    def test_wrong_shape_raises(self):
        with pytest.raises(ValueError, match="length 2"):
            pr.make_fig1_quadratic().analytic_value(np.ones(3))


DESCENT_PROPERTIES = ["descent_full_hessian", "descent_diagonal", "descent_block_averaged"]


class TestDescentWork:
    """Deterministic work counts of the descent properties, not wall time."""

    def test_descent_properties_build_no_tape(self, monkeypatch):
        built = []
        original = ad.Tensor.__init__

        def counting(self, *args, **kwargs):
            built.append(None)
            original(self, *args, **kwargs)

        monkeypatch.setattr(ad.Tensor, "__init__", counting)
        report = run_verification_suite(names=DESCENT_PROPERTIES, seed=0)
        assert report.all_passed
        assert len(built) == 0
        run_verification_suite(names=["quadratic_hvp_exact"], seed=0)
        assert len(built) > 0  # the counter sees a property that does tape

    def test_full_hessian_property_factors_each_quadratic_once(self, monkeypatch):
        calls = []
        original = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda A: calls.append(A.shape) or original(A))
        report = run_verification_suite(names=["descent_full_hessian"], seed=0)
        assert report.all_passed
        assert len(calls) == 100  # one per quadratic, shared by k in {0, 0.5, 1}


def whole_sample_var(H, n, gen):
    """The variance check's statistic as computed before it was streamed:
    every product held at once, reduced by numpy's var."""
    Z = rademacher((n, H.shape[0]), gen)
    est = Z @ H.T
    est *= Z
    return est.var(axis=0, ddof=1)


def whole_sample_mean(n, d, gen):
    """The mean check's statistics as computed before they were streamed."""
    draws = rademacher((n, d), gen)
    return draws.mean(axis=0), bool(np.all(np.isin(draws, (-1.0, 1.0))))


def variance_check_hessian():
    M = np.random.default_rng(99).standard_normal((8, 8))
    return 0.5 * (M + M.T)


class TestStreamedMonteCarlo:
    """The Monte-Carlo checks reduce their samples block by block; every
    statistic must equal the whole-array one bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 60), d=st.integers(2, 9),
           decades=st.integers(0, 12), data=st.data())
    def test_chained_rows_sums_equal_one_whole_sum(self, seed, n, d, decades, data):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-decades, decades, (n, d))
        if data.draw(st.booleans(), label="fixed block size"):
            rows = data.draw(st.integers(1, n), label="rows")
            cuts = list(range(rows, n, rows))  # the last block may be shorter
        else:
            cuts = sorted(data.draw(st.sets(st.integers(1, n - 1)), label="cuts"))

        def chained(blocks):
            total = None
            for block in blocks:
                total = oracle._rows_sum(total, block)
            return total

        total = chained(b.copy() for b in np.split(X, cuts))
        assert total.tobytes() == X.sum(axis=0).tobytes()
        mean = total / n
        var = chained(np.square(b - mean) for b in np.split(X, cuts)) / (n - 1)
        assert var.tobytes() == X.var(axis=0, ddof=1).tobytes()

    @pytest.mark.parametrize("n", [400_000, 9_001, 1_999])
    def test_sample_var_equals_whole_array_var(self, n):
        H = variance_check_hessian()
        gen, whole_gen = probe_rng(2024, 0), probe_rng(2024, 0)
        streamed = oracle._hutchinson_sample_var(H, n, gen)
        assert streamed.tobytes() == whole_sample_var(H, n, whole_gen).tobytes()
        assert gen.integers(0, 2**62, 4).tolist() == whole_gen.integers(0, 2**62, 4).tolist()

    @pytest.mark.parametrize("n", [100_000, 10_007, 1_999])
    def test_rademacher_mean_equals_whole_array_mean(self, n):
        gen, whole_gen = probe_rng(7, 0), probe_rng(7, 0)
        means, in_support = oracle._rademacher_mean(n, 6, gen)
        whole_means, whole_in_support = whole_sample_mean(n, 6, whole_gen)
        assert means.tobytes() == whole_means.tobytes()
        assert in_support is whole_in_support is True
        assert gen.integers(0, 2**62, 4).tolist() == whole_gen.integers(0, 2**62, 4).tolist()

    def test_mean_check_notices_a_probe_outside_the_support(self, monkeypatch):
        def off_support(shape, gen):
            z = rademacher(shape, gen)
            if shape[0] < oracle._BLOCK_ROWS:  # only in the short last block
                z[-1, -1] = 0.5
            return z

        monkeypatch.setattr(oracle, "rademacher", off_support)
        assert oracle._rademacher_mean(10_007, 6, probe_rng(7, 0))[1] is False

    def test_monte_carlo_checks_peak_below_8_mb(self):
        # Holding the whole sample peaked at about 51 MB.
        tracemalloc.start()
        try:
            report = run_verification_suite(names=["hutchinson_variance", "rademacher_mean"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.all_passed
        assert peak <= 8e6, f"peak {peak / 1e6:.1f} MB"


# Seed-0 details as printed when every Rademacher probe was its own draw; the
# batched draws must reproduce each one.
SEED_0_DETAILS = {
    "hvp_linearity": "worst relative deviation 8.549e-15 (tol 1e-10)",
    "hvp_symmetry": "worst symmetry deviation 5.699e-15 (tol 1e-8)",
    "gradient_vs_fd": "worst |grad - fd| 9.329e-08 (tol 1e-5)",
    "hvp_vs_fd": "worst hvp-vs-fd relative deviation 1.259e-07 (tol 1e-5)",
    "quadratic_hvp_exact": "worst |hvp - Az| 3.553e-15 (tol 1e-12)",
    "hutchinson_enumeration": "worst |enumeration - diag| 1.021e-14 (tol 1e-12)",
    "hutchinson_diagonal_exact": "worst deviation on diagonal Hessian 0.000e+00 (tol exact)",
    "hutchinson_variance": "max variance deviation 0.255% of largest (tol 5%)",
    "rademacher_mean": "max |coordinate mean| 0.0041 over 1e5 draws (tol 0.02)",
    "descent_full_hessian": "worst slack beyond tolerance -1.970e-05",
    "descent_diagonal": "worst slack beyond tolerance -2.576e-03",
    "descent_block_averaged": "worst slack beyond tolerance -3.676e-05",
    "adam_reduction": "worst trajectory deviation 0.000e+00 (tol 1e-12)",
    "ema_square_update": "worst deviation from the recurrence 0.000e+00 (tol exact)",
    "spatial_average_blocks": "worst block-mean deviation 6.661e-16 (tol 1e-12)",
    "one_step_quadratic": "||theta_1|| = 0.000e+00 (tol 1e-12)",
}


class TestVerificationSuite:
    @pytest.fixture(scope="class")
    def seed_0_report(self):
        return run_verification_suite(seed=0)

    def test_full_suite_passes(self, seed_0_report):
        failed = [p.name for p in seed_0_report.properties if not p.passed]
        assert seed_0_report.all_passed, f"failed properties: {failed}"
        assert len(seed_0_report.properties) == 16

    def test_seed_0_details_are_pinned(self, seed_0_report):
        assert {p.name: p.detail for p in seed_0_report.properties} == SEED_0_DETAILS

    def test_report_serializes_with_schema(self):
        report = run_verification_suite(names=["rademacher_mean"], seed=0)
        payload = report.to_dict()
        assert payload["schema"] == "hessopt-verify-1"
        assert payload["all_passed"] is True
        assert payload["properties"][0]["name"] == "rademacher_mean"
        assert "detail" in payload["properties"][0]

    def test_subset_selection_runs_only_requested(self):
        report = run_verification_suite(names=["hvp_linearity", "adam_reduction"], seed=0)
        assert sorted(p.name for p in report.properties) == ["adam_reduction", "hvp_linearity"]

    def test_unknown_property_name_raises_before_running(self):
        with pytest.raises(KeyError, match="no_such_property"):
            run_verification_suite(names=["no_such_property"])

    @pytest.mark.parametrize("seed,name", [
        (18, "hvp_vs_fd"), (780196821, "hvp_vs_fd"), (1165790218, "hvp_vs_fd"),
        (1933990464, "gradient_vs_fd"),
    ])
    def test_finite_differences_keep_clear_of_relu_kinks(self, seed, name):
        # At these suite seeds a first draw of theta puts a tiny-mlp-relu
        # ReLU input within a finite-difference step of its kink.
        report = run_verification_suite(names=[name], seed=seed)
        assert report.all_passed, report.properties[0].detail

    def test_results_are_deterministic_in_seed(self):
        a = run_verification_suite(names=["hutchinson_variance"], seed=3)
        b = run_verification_suite(names=["hutchinson_variance"], seed=3)
        assert a.properties[0].detail == b.properties[0].detail


class TestSuiteCanFail:
    """Inject a fault into the curvature EMA and insist the suite notices.

    A verification suite that cannot fail verifies nothing; flipping the
    sign of the squared-diagonal accumulation must break the second-order
    checks while leaving the plain Adam baseline intact.
    """

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_sign_flip_in_curvature_ema_is_detected(self, monkeypatch):
        monkeypatch.setattr(
            optim,
            "hessian_ema_square_update",
            lambda prev, val, b2: b2 * prev - (1.0 - b2) * val * val,
        )
        report = run_verification_suite(
            names=["adam_reduction", "one_step_quadratic"], seed=0
        )
        assert not report.all_passed
        assert all(not p.passed for p in report.properties)

    def test_suite_recovers_after_fault_removed(self):
        report = run_verification_suite(
            names=["adam_reduction", "one_step_quadratic"], seed=0
        )
        assert report.all_passed

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_crashing_property_reports_failure_not_exception(self, monkeypatch):
        def boom(prev, val, b2):
            raise RuntimeError("synthetic fault")

        monkeypatch.setattr(optim, "hessian_ema_square_update", boom)
        report = run_verification_suite(names=["one_step_quadratic"], seed=0)
        assert not report.all_passed
        assert "synthetic fault" in report.properties[0].detail


class TestNonFiniteDeviations:
    """A NaN deviation must fail its property, never drop out of the worst."""

    def test_nan_from_the_ema_recurrence_fails_its_property(self, monkeypatch):
        monkeypatch.setattr(optim, "ema_square_update",
                            lambda prev, val, beta: np.full_like(prev, np.nan))
        (result,) = run_verification_suite(names=["ema_square_update"], seed=0).properties
        assert not result.passed
        assert "nan" in result.detail

    def test_nan_from_spatial_averaging_fails_its_property(self, monkeypatch):
        monkeypatch.setattr(optim, "spatial_average",
                            lambda D, spec: np.full_like(D, np.nan))
        (result,) = run_verification_suite(names=["spatial_average_blocks"], seed=0).properties
        assert not result.passed
        assert "nan" in result.detail


TAPE_PROPERTIES = ["hvp_linearity", "hvp_symmetry", "gradient_vs_fd", "hvp_vs_fd"]


class TestSuiteWork:
    """The suite does each piece of work once per call, and checks what it did."""

    def test_wide_adam_slices_equal_per_seed_adams(self):
        # adam_reduction steps one 60-coordinate Adam over ten seeds' draws
        # side by side; each 6-column slice must be that seed's own Adam.
        steps, dim, seeds = 200, 6, 10
        wide_draws, narrow_runs = [], []
        for seed in range(seeds):
            whole = np.random.default_rng(seed).standard_normal((steps + 1, dim))
            one_by_one = np.random.default_rng(seed)
            rows = np.array([one_by_one.standard_normal(dim) for _ in range(steps + 1)])
            assert whole.tobytes() == rows.tobytes()
            wide_draws.append(whole)
            adam, theta, run = optim.Adam(dim, lr=0.01), rows[0], []
            for g in rows[1:]:
                theta = adam.step(theta, g)
                run.append(theta)
            narrow_runs.append(np.array(run))
        draws = np.hstack(wide_draws)
        adam, theta, wide = optim.Adam(dim * seeds, lr=0.01), draws[0], []
        for g in draws[1:]:
            theta = adam.step(theta, g)
            wide.append(theta)
        assert np.array(wide).tobytes() == np.hstack(narrow_runs).tobytes()

    def test_adam_reduction_steps_ten_adahessians_200_times_each(self, monkeypatch):
        steps = []
        original = optim.AdaHessian.step

        def counting(self, *args, **kwargs):
            steps.append(self)  # held, so no instance's id is reused
            return original(self, *args, **kwargs)

        monkeypatch.setattr(optim.AdaHessian, "step", counting)
        report = run_verification_suite(names=["adam_reduction"], seed=0)
        assert report.all_passed
        assert len(steps) == 2_000
        assert sorted(Counter(steps).values()) == [200] * 10

    def test_a_suite_call_builds_its_problems_once_and_frees_them(self, monkeypatch):
        builds, kinds = [], []
        original = oracle._suite_problems

        def spy():
            problems = original()
            builds.append([weakref.ref(p) for p in problems])
            kinds.append(sorted(type(p).__name__ for p in problems))
            return problems

        alive_at_variance = []
        variance = oracle._check_hutchinson_variance

        def watched(rng):
            alive_at_variance.append([r() is not None for b in builds for r in b])
            return variance(rng)

        monkeypatch.setattr(oracle, "_suite_problems", spy)
        monkeypatch.setattr(oracle, "_PROPERTY_CHECKS", [
            (name, watched if name == "hutchinson_variance" else check)
            for name, check in oracle._PROPERTY_CHECKS])
        for call in (1, 2):
            assert run_verification_suite(seed=0).all_passed
            assert len(builds) == call
            assert kinds[-1] == sorted(
                type(pr.get_problem(name)).__name__ for name in pr.problem_names())
            # Dropped after the last tape property, by reference counting.
            assert alive_at_variance[-1] == [False] * 6 * call
            assert all(r() is None for r in builds[-1])

    @pytest.mark.parametrize("names", [
        ["hvp_symmetry"], ["hvp_vs_fd"], ["gradient_vs_fd", "adam_reduction"],
        ["hvp_linearity", "hvp_vs_fd", "rademacher_mean"],
        ["ema_square_update", "one_step_quadratic"],
    ])
    def test_subsets_give_the_full_suites_details(self, names):
        # Each property draws from its own stream, so a subset with one of
        # the tape properties, or none, reproduces its pinned details.
        report = run_verification_suite(names=names, seed=0)
        assert report.all_passed
        assert {p.name: p.detail for p in report.properties} == {
            name: SEED_0_DETAILS[name] for name in names}
