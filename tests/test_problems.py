"""Tests for benchmark problems: analytic values, tape agreement, batching."""

import functools
import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hessopt import autodiff as ad
from hessopt import harness, hutchinson
from hessopt import problems as pr
from hessopt.hutchinson import probe_rng, rademacher, seed_words


def fd_gradient(f, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


class TestQuadratic:
    def test_fig1_hand_values(self):
        p = pr.make_fig1_quadratic()
        theta = np.array([1.0, 1.0])
        assert p.value(theta) == pytest.approx(11.0, abs=1e-12)
        np.testing.assert_allclose(p.gradient(theta, None), [20.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(p.hvp(theta, np.array([1.0, 0.0]), None), [20.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(p.hvp(theta, np.array([0.0, 1.0]), None), [0.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(np.diag(p.hessian_matrix()), [20.0, 2.0])

    def test_nondiagonal_quadratic_gradient_and_hvp(self):
        A = np.array([[2.0, 1.0], [1.0, 3.0]])
        p = pr.QuadraticProblem(A, np.zeros(2), name="q")
        theta = np.array([1.0, -1.0])
        np.testing.assert_allclose(p.gradient(theta, None), A @ theta, atol=1e-12)
        z = np.array([2.0, 5.0])
        np.testing.assert_allclose(p.hvp(theta, z, None), A @ z, atol=1e-12)
        np.testing.assert_allclose(p.analytic_hvp(theta, z), A @ z)

    def test_linear_term_shifts_gradient(self):
        A = np.diag([4.0, 6.0])
        c = np.array([1.0, -2.0])
        p = pr.QuadraticProblem(A, c, name="q")
        np.testing.assert_allclose(p.gradient(np.zeros(2), None), c, atol=1e-12)

    def test_rejects_asymmetric_matrix(self):
        with pytest.raises(ValueError):
            pr.QuadraticProblem(np.array([[1.0, 5.0], [0.0, 1.0]]), np.zeros(2), name="bad")

    def test_symmetrizes_a_nearly_symmetric_matrix(self):
        A = np.array([[2.0, 1.0], [1.0 + 1e-13, 3.0]])
        p = pr.QuadraticProblem(A, name="q")
        assert p.A.tobytes() == (0.5 * (A + A.T)).tobytes()

    def test_keeps_an_exactly_symmetric_matrix_bit_for_bit(self):
        # Its own copy, with no A + A.T to overflow near the float64 limit.
        A = np.array([[1.5e308, -0.0], [-0.0, 1.0]])
        p = pr.QuadraticProblem(A, name="q")
        assert p.A is not A and p.A.tobytes() == A.tobytes()
        assert (p.alpha, p.beta) == (1.0, 1.5e308)

    @pytest.mark.parametrize("A,c", [
        ([[1.0, np.nan], [np.nan, 1.0]], None),  # NaN passes the symmetry check
        ([[np.inf, 0.0], [0.0, 1.0]], None),
        (np.eye(2), [0.0, np.nan]),
        (np.eye(2), [np.inf, 0.0]),
    ], ids=["nan-A", "inf-A", "nan-c", "inf-c"])
    def test_rejects_non_finite_matrix_or_vector(self, A, c):
        with pytest.raises(ValueError, match="A and c must be finite"):
            pr.QuadraticProblem(A, c, name="bad", spd=True)

    @pytest.mark.parametrize("kwargs,match", [
        ({"c": np.zeros(3)}, r"c must have shape \(2,\), got \(3,\)"),
        ({"c": np.zeros((2, 1))}, r"c must have shape \(2,\), got \(2, 1\)"),
        ({"theta0": (1.0, 2.0, 3.0)}, r"theta0 must have shape \(2,\), got \(3,\)"),
        ({"theta0": 1.0}, r"theta0 must have shape \(2,\), got \(\)"),
    ], ids=["long-c", "column-c", "long-theta0", "scalar-theta0"])
    def test_rejects_a_vector_that_does_not_match_A(self, kwargs, match):
        # Refused when built, not at the first value or gradient.
        with pytest.raises(ValueError, match=match):
            pr.QuadraticProblem(np.eye(2), name="bad", **kwargs)

    @pytest.mark.parametrize("theta0", [(np.nan, 1.0), (1.0, np.inf), (-np.inf, 0.0)])
    def test_rejects_a_non_finite_start(self, theta0):
        # Refused when built, not as a NumericError at the first value.
        with pytest.raises(ValueError, match="theta0 must be finite"):
            pr.QuadraticProblem(np.eye(2), name="bad", theta0=theta0)

    @pytest.mark.parametrize("condition_number", [np.inf, np.nan, -np.inf])
    def test_random_spd_rejects_non_finite_condition_number(self, condition_number):
        with pytest.raises(ValueError, match="condition_number must be finite"):
            pr.make_random_spd_quadratic(d=2, condition_number=condition_number, seed=0)

    def test_rejects_non_spd_when_spd_required(self):
        with pytest.raises(ValueError):
            pr.QuadraticProblem(np.diag([1.0, -1.0]), np.zeros(2), name="bad", spd=True)

    def test_rejects_oversized_dimension(self):
        with pytest.raises(ValueError):
            pr.QuadraticProblem(np.eye(65), np.zeros(65), name="big")

    def test_alpha_beta_are_extreme_eigenvalues(self):
        p = pr.make_random_spd_quadratic(d=8, condition_number=10.0, seed=0)
        eigs = np.linalg.eigvalsh(p.hessian_matrix())
        assert p.alpha == pytest.approx(eigs[0], rel=1e-9)
        assert p.beta == pytest.approx(eigs[-1], rel=1e-9)
        assert p.beta / p.alpha == pytest.approx(10.0, rel=1e-6)
        diag = np.diag(p.hessian_matrix())
        assert np.all(diag >= p.alpha - 1e-9)
        assert np.all(diag <= p.beta + 1e-9)

    def test_gradient_vanishes_at_minimizer(self):
        p = pr.make_random_spd_quadratic(d=6, condition_number=5.0, seed=3)
        A = p.hessian_matrix()
        c = p.gradient(np.zeros(6), None)
        theta_star = np.linalg.solve(A, -c)
        np.testing.assert_allclose(p.gradient(theta_star, None), 0.0, atol=1e-10)


class TestNoisyParabola:
    def test_values_and_derivatives_at_origin(self):
        p = pr.NoisyParabola()
        assert p.analytic_value(0.0) == 0.0
        assert p.analytic_gradient(np.array([0.0]))[0] == 0.0
        assert p.analytic_second_derivative(0.0) == pytest.approx(2.0 + 4.0 * np.pi, rel=1e-15)
        assert p.value(np.array([0.0])) == 0.0

    def test_value_where_ripple_vanishes(self):
        # at x = 0.05 the sine term is sin(pi) = 0, so f = x^2 exactly
        p = pr.NoisyParabola()
        assert p.value(np.array([0.05])) == pytest.approx(0.0025, abs=1e-15)

    def test_tape_matches_analytic_everywhere(self):
        p = pr.NoisyParabola()
        for x in [-0.73, -0.1, 0.02, 0.31, 1.0]:
            theta = np.array([x])
            assert p.value(theta) == pytest.approx(p.analytic_value(x), abs=1e-12)
            g = p.gradient(theta, None)
            assert g[0] == pytest.approx(p.analytic_gradient(theta)[0], rel=1e-10, abs=1e-10)
            hz = p.hvp(theta, np.array([1.0]), None)
            assert hz[0] == pytest.approx(p.analytic_second_derivative(x), rel=1e-10)

    def test_hvp_scales_linearly_in_probe(self):
        p = pr.NoisyParabola()
        theta = np.array([0.2])
        h1 = p.hvp(theta, np.array([1.0]), None)
        h3 = p.hvp(theta, np.array([3.0]), None)
        np.testing.assert_allclose(h3, 3.0 * h1, rtol=1e-12)


class TestLogisticRegression:
    def test_loss_at_zero_is_log_two(self):
        p = pr.make_logreg()
        assert p.value(np.zeros(p.dim)) == pytest.approx(np.log(2.0), rel=1e-12)

    def test_small_hand_dataset(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        p = pr.LogisticRegression(X, y, name="toy")
        theta = np.array([0.5, -0.25])
        margins = y * (X @ theta)
        want = np.mean(np.log1p(np.exp(-margins)))
        assert p.value(theta) == pytest.approx(want, rel=1e-12)
        np.testing.assert_allclose(
            p.gradient(theta, None), p.analytic_gradient(theta), atol=1e-12
        )

    def test_integer_labels_replay_as_float_labels(self):
        # A batch shape's second call copies rows into the tape's float64 leaves.
        X = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.5]])
        ints = pr.LogisticRegression(X, [1, -1, 1], batch_size=2)
        floats = pr.LogisticRegression(X, np.array([1.0, -1.0, 1.0]), batch_size=2)
        theta = np.array([0.5, -0.25])
        for batch in (np.array([0, 1]), np.array([1, 2])):
            (a, ga), (b, gb) = (p.value_and_gradient(theta, batch) for p in (ints, floats))
            assert a == b and ga.tobytes() == gb.tobytes()

    def test_tape_gradient_matches_analytic(self):
        p = pr.make_logreg()
        rng = np.random.default_rng(5)
        theta = rng.normal(size=p.dim) * 0.3
        np.testing.assert_allclose(
            p.gradient(theta, None), p.analytic_gradient(theta), atol=1e-10
        )

    def test_tape_hvp_matches_analytic_hessian(self):
        p = pr.make_logreg()
        rng = np.random.default_rng(6)
        theta = rng.normal(size=p.dim) * 0.3
        z = rng.normal(size=p.dim)
        H = p.analytic_hessian(theta)
        np.testing.assert_allclose(p.hvp(theta, z, None), H @ z, atol=1e-10)
        assert np.all(np.diag(H) >= 0.0)

    def test_minibatch_restricts_loss_to_rows(self):
        p = pr.make_logreg(batch_size=16)
        theta = np.zeros(p.dim)
        batch = p.sample_batch(t=1, seed=0)
        assert batch.shape == (16,)
        assert p.value(theta, batch) == pytest.approx(np.log(2.0), rel=1e-12)

    def test_batches_are_deterministic_in_seed_and_iteration(self):
        p = pr.make_logreg(batch_size=16)
        b1 = p.sample_batch(t=7, seed=3)
        b2 = p.sample_batch(t=7, seed=3)
        b3 = p.sample_batch(t=8, seed=3)
        np.testing.assert_array_equal(b1, b2)
        assert not np.array_equal(b1, b3)
        assert np.array_equal(b1, np.sort(b1))

    def test_full_batch_problem_returns_none_batch(self):
        p = pr.make_logreg()
        assert p.sample_batch(t=1, seed=0) is None


_MINIBATCH = {"logreg": pr.make_logreg, "tiny-mlp": pr.make_tiny_mlp,
              "tiny-mlp-relu": pr.make_tiny_mlp_classifier}


@functools.cache
def minibatch_problem(name: str, size: str) -> pr.DifferentiableProblem:
    """``name`` with batch size 1, 2, 32, n - 1 or n."""
    n = _MINIBATCH[name]().n_samples
    return _MINIBATCH[name](batch_size={"n-1": n - 1, "n": n}.get(size) or int(size))


def reference_batches(problem, ts, seed) -> np.ndarray:
    return np.array([problem.sample_batch(int(t), seed) for t in ts],
                    dtype=np.int64).reshape(len(ts), problem.batch_size)


def numpy_redraws(seed: int, t: int, n: int, b: int) -> bool:
    """Whether ``choice(n, b, replace=False)`` on ``default_rng([seed, t])``
    takes more 32-bit draws than Floyd's algorithm has drawing steps (b, less
    one when b == n): whether Lemire's bounded draw rejected one."""
    rng = np.random.default_rng([seed, t])
    rng.choice(n, b, replace=False, shuffle=False)
    draws = b - (b == n)
    fresh = np.random.default_rng([seed, t]).bit_generator
    fresh.random_raw((draws + 1) // 2)
    state = rng.bit_generator.state
    return (state["state"], state["has_uint32"]) != (fresh.state["state"], draws % 2)


class TestBatchPass:
    """``sample_batches`` draws what ``sample_batch`` draws, bit for bit.

    numpy does not promise ``Generator`` streams across versions (NEP 19), so
    these pin the pass to the installed numpy's draws.
    """

    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(sorted(_MINIBATCH)),
           size=st.sampled_from(["1", "2", "32", "n-1", "n"]),
           seed=st.sampled_from([0, 1, 5, 2**32 - 1, 2**32 + 5, 2**64 - 1, 2**64 + 1])
           | st.integers(0, 2**70),
           ts=st.lists(st.integers(0, 2**32 - 1) | st.integers(2**32, 2**64 - 1),
                       min_size=1, max_size=10))
    @example(name="logreg", size="32", seed=0, ts=[1, 2**32 - 1, 2**32, 7, 2**64 - 1])
    @example(name="tiny-mlp", size="n", seed=2**64 + 1, ts=[3, 2**32 + 5])
    @example(name="tiny-mlp-relu", size="1", seed=2**32 + 5, ts=[0, 1, 2])
    def test_pass_rows_equal_sample_batch(self, name, size, seed, ts):
        problem = minibatch_problem(name, size)
        rows, rejected = pr._floyd_batches(problem.n_samples, problem.batch_size,
                                           seed_words(seed, ts, 4))
        assert rows.shape == (len(ts), problem.batch_size)
        assert rejected.tolist() == [numpy_redraws(seed, t, problem.n_samples,
                                                   problem.batch_size) for t in ts]
        want = reference_batches(problem, ts, seed)
        np.testing.assert_array_equal(rows[~rejected], want[~rejected])

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(_MINIBATCH)), size=st.sampled_from(["1", "2", "32"]),
           seed=st.integers(0, 2**65), count=st.integers(0, 80), extra=st.integers(0, 2))
    @example(name="logreg", size="32", seed=0, count=31, extra=0)  # one block, not full
    @example(name="logreg", size="2", seed=2**64 + 1, count=7, extra=0)  # 4 blocks
    def test_blocks_equal_sample_batch(self, name, size, seed, count, extra):
        problem = minibatch_problem(name, size)
        ts = [t * 7919 + (2**32 if t % 3 else 0) for t in range(count)]
        with pytest.MonkeyPatch.context() as mp:
            # blocks of batch_size + extra lanes
            mp.setattr(pr, "_BATCH_BLOCK_ENTRIES",
                       (problem.batch_size + extra) * problem.n_samples)
            batches = problem.sample_batches(ts, seed)
        assert batches.dtype == np.int64 and batches.shape == (count, problem.batch_size)
        np.testing.assert_array_equal(batches, reference_batches(problem, ts, seed))

    @pytest.mark.parametrize("b,ts,redrawn", [
        (5_000, [293, 294, 462, 721, 842], [294, 462, 721, 842]),
        (10_000, [15, 16, 28, 29], [16, 28]),  # b == n: j = 0 takes no draw
        (32, [36_735, 36_736], [36_736]),
    ], ids=["half", "all", "small"])
    def test_pass_flags_the_draws_numpy_rejects(self, b, ts, redrawn):
        # Lemire's bounded draw rejects a draw of these lanes, so numpy draws again.
        assert [t for t in ts if numpy_redraws(0, t, 10_000, b)] == redrawn
        _, rejected = pr._floyd_batches(10_000, b, seed_words(0, ts, 4))
        assert [t for t, r in zip(ts, rejected) if r] == redrawn

    def test_a_rejected_lane_takes_the_reference(self, monkeypatch):
        problem = pr.make_logreg(n=10_000, batch_size=32)
        ts = list(range(36_720, 36_753))  # blocks of 32 lanes and 1; 36,736 rejects
        want = reference_batches(problem, ts, 0)
        calls = []
        original = pr.LogisticRegression.sample_batch

        def counting(self, t, seed):
            calls.append(t)
            return original(self, t, seed)

        monkeypatch.setattr(pr.LogisticRegression, "sample_batch", counting)
        monkeypatch.setattr(pr, "_BATCH_BLOCK_ENTRIES", 32 * 10_000)
        np.testing.assert_array_equal(problem.sample_batches(ts, 0), want)
        assert calls == [36_736]

    def test_fewer_lanes_than_the_batch_take_the_reference(self, monkeypatch):
        # A block takes batch_size numpy steps, so one of 26 lanes would cost more.
        calls = []
        monkeypatch.setattr(pr, "_floyd_batches", lambda *args: calls.append(args))
        problem = pr.make_logreg(n=10_000, batch_size=5_000)
        np.testing.assert_array_equal(problem.sample_batches([294, 1], 0),
                                      reference_batches(problem, [294, 1], 0))
        assert calls == []

    def test_population_beyond_floyd_takes_the_reference(self):
        # Beyond 10,000 samples numpy shuffles a tail for a large batch instead.
        class Wide(pr.DifferentiableProblem):
            n_samples = 20_000
            batch_size = 1_000

        problem = Wide()
        np.testing.assert_array_equal(problem.sample_batches([1, 2**40], 3),
                                      reference_batches(problem, [1, 2**40], 3))

    def test_full_batch_problem_has_no_batches(self):
        assert pr.make_logreg().sample_batches([1, 2], 0) is None

    @pytest.mark.parametrize("n", [1, 2], ids=["one-sample-no-draws", "two-samples"])
    def test_smallest_populations_equal_sample_batch(self, n):
        # b == n: a lane of one sample takes no draw at all.
        problem = pr.LogisticRegression(np.ones((n, 1)), np.ones(n), batch_size=n)
        ts = [0, 5, 2**40]
        for seed in (0, 2**64 + 3):
            np.testing.assert_array_equal(problem.sample_batches(ts, seed),
                                          reference_batches(problem, ts, seed))


class TestTinyMLP:
    def test_dimensions_and_group_sizes(self):
        p = pr.make_tiny_mlp()
        assert p.dim == 57
        assert p.group_sizes == [40, 8, 8, 1]
        assert sum(p.group_sizes) == p.dim
        q = pr.make_tiny_mlp_classifier()
        assert q.dim == 51
        assert sum(q.group_sizes) == q.dim

    def test_gradient_matches_finite_differences(self):
        p = pr.make_tiny_mlp()
        rng = np.random.default_rng(9)
        theta = p.theta0 + 0.1 * rng.normal(size=p.dim)
        g = p.gradient(theta, None)
        fd = fd_gradient(lambda v: p.value(v), theta, h=1e-5)
        np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-6)

    def test_classifier_gradient_matches_finite_differences(self):
        p = pr.make_tiny_mlp_classifier()
        rng = np.random.default_rng(10)
        theta = p.theta0 + 0.1 * rng.normal(size=p.dim)
        g = p.gradient(theta, None)
        fd = fd_gradient(lambda v: p.value(v), theta, h=1e-5)
        np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-6)

    def test_hvp_matches_finite_difference_of_gradient(self):
        p = pr.make_tiny_mlp()
        rng = np.random.default_rng(11)
        theta = p.theta0 + 0.1 * rng.normal(size=p.dim)
        z = rng.normal(size=p.dim)
        z /= np.linalg.norm(z)
        h = 1e-5
        fd = (p.gradient(theta + h * z, None) - p.gradient(theta - h * z, None)) / (2 * h)
        np.testing.assert_allclose(p.hvp(theta, z, None), fd, rtol=1e-4, atol=1e-5)

    def test_initial_parameters_are_deterministic(self):
        a = pr.make_tiny_mlp()
        b = pr.make_tiny_mlp()
        np.testing.assert_array_equal(a.theta0, b.theta0)
        assert np.linalg.norm(a.theta0) > 0.0

    def test_minibatch_loss_differs_from_full_batch(self):
        p = pr.make_tiny_mlp()
        theta = p.theta0
        batch = np.arange(32)
        assert p.value(theta, batch) != pytest.approx(p.value(theta), rel=1e-12)


class TestSharedInterface:
    @pytest.mark.parametrize("name", pr.problem_names())
    def test_registry_problems_expose_consistent_shapes(self, name):
        p = pr.get_problem(name)
        assert p.dim >= 1
        assert p.theta0.shape == (p.dim,)
        assert sum(p.group_sizes) == p.dim
        loss, g = p.value_and_gradient(p.theta0, None)
        assert np.isfinite(loss)
        assert g.shape == (p.dim,)

    @pytest.mark.parametrize("name", pr.problem_names())
    def test_full_tape_agrees_with_separate_calls(self, name):
        p = pr.get_problem(name)
        rng = np.random.default_rng(12)
        theta = p.theta0 + 0.05 * rng.normal(size=p.dim)
        batch = p.sample_batch(t=1, seed=0)
        loss, g, hvp_fn = p.full_tape(theta, batch)
        assert loss == pytest.approx(p.value(theta, batch), rel=1e-12)
        np.testing.assert_allclose(g, p.gradient(theta, batch), atol=1e-12)
        z = rng.normal(size=p.dim)
        np.testing.assert_allclose(hvp_fn(z), p.hvp(theta, z, batch), atol=1e-12)

    def test_hvp_operator_reuses_one_tape(self):
        p = pr.make_fig1_quadratic()
        op = p.hvp_operator(np.array([1.0, 1.0]), None)
        np.testing.assert_allclose(op(np.array([1.0, 0.0])), [20.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(op(np.array([0.0, 1.0])), [0.0, 2.0], atol=1e-12)

    def test_dimension_mismatch_raises(self):
        p = pr.make_fig1_quadratic()
        with pytest.raises(ValueError):
            p.value(np.zeros(3))
        with pytest.raises(ValueError):
            p.hvp(np.zeros(2), np.zeros(3), None)
        with pytest.raises(ValueError):
            p.full_tape(np.zeros(2))[2](np.zeros(3))

    @pytest.mark.parametrize("name", pr.problem_names())
    def test_relu_inputs_are_the_hidden_pre_activations(self, name):
        p = pr.get_problem(name)
        theta = p.theta0 + 0.1
        got = p.relu_inputs(theta)
        if name != "tiny-mlp-relu":
            assert got.size == 0
            return
        w_shape, b_shape = p._shapes[:2]
        b_start = w_shape[0] * w_shape[1]
        W = theta[:b_start].reshape(w_shape)
        b = theta[b_start:b_start + b_shape[0]]
        np.testing.assert_allclose(got, (p.batch_arrays[0] @ W + b).ravel(), rtol=1e-14)

    @pytest.mark.parametrize("build", [
        lambda X, y: pr.LogisticRegression(X, y),
        lambda X, y: pr.TinyMLPRegression(X, y, [2, 3, 1], "mlp", None, 0),
        lambda X, y: pr.TinyMLPClassifier(X, y, [2, 3, 2], "mlp", None, 0),
    ], ids=["logreg", "tiny-mlp", "tiny-mlp-relu"])
    def test_data_problems_refuse_features_and_labels_of_different_lengths(self, build):
        with pytest.raises(ValueError, match="X and y must agree on sample count"):
            build(np.ones((4, 2)), np.zeros(3, dtype=np.int64))

    def test_unknown_problem_name_raises(self):
        with pytest.raises(KeyError):
            pr.get_problem("no-such-problem")

    def test_problem_params_are_forwarded(self):
        p = pr.get_problem("spd-quadratic", d=4, condition_number=3.0)
        assert p.dim == 4
        assert p.beta / p.alpha == pytest.approx(3.0, rel=1e-6)

    @pytest.mark.parametrize("name,params,needle", [
        ("logreg", {"n": 10_001}, "desk scale"),
        ("logreg", {"p": 101}, "desk scale"),
        ("tiny-mlp", {"n": 10_001}, "desk scale"),
        ("tiny-mlp-relu", {"n": 10_001}, "desk scale"),
        ("tiny-mlp", {"layers": [64, 1]}, "exceeds d = 64"),
        ("tiny-mlp-relu", {"layers": [4, 8, 3]}, "exceeds d = 64"),
        ("spd-quadratic", {"d": 65}, "limited to d <= 64"),
    ])
    def test_builders_check_the_caps_before_drawing(self, monkeypatch, name, params, needle):
        def unused(*args):
            raise AssertionError("a builder drew data before checking its caps")

        monkeypatch.setattr(np.random, "default_rng", unused)
        with pytest.raises(ValueError, match=needle):
            pr.get_problem(name, **params)


def test_a_finished_run_leaves_no_probe_chunk_alive(tmp_path, monkeypatch):
    # A sweep's problems, and so their tapes, outlive each run; a tape copies
    # each probe into its own buffer, so no chunk of drawn probes outlives
    # the run that drew it.
    chunks = []
    original = hutchinson._keyed_probes

    def spy(keys, n, d, out):
        chunks.append(weakref.ref(out.base))
        return original(keys, n, d, out)

    monkeypatch.setattr(hutchinson, "_keyed_probes", spy)
    config = harness.RunConfig(problem="logreg", problem_params={"batch_size": 32}, iters=6,
                               out=str(tmp_path), cost_ratio=False).validate()
    shared = harness._SeedPass(config.seed, {harness._SeedPass._key(config):
                                             harness._build_problem(config)}, [config])
    assert harness.run(config, write_files=False, _shared=shared).status == "ok"
    gc.collect()
    assert len(chunks) == 1 and chunks[0]() is None


@pytest.mark.parametrize("name,params", [
    ("tiny-mlp", {"batch_size": None}), ("logreg", {}), ("tiny-mlp-relu", {}),
])
def test_tapes_are_freed_without_the_cyclic_collector(name, params):
    # A problem keeps its recorded tapes and replays them in place, so calls
    # after the first add no Tensors, and the problem is the tapes' only
    # owner. exp and tanh VJPs need their own output node; holding it
    # strongly would make each tape a reference cycle that outlives its
    # problem until the cyclic collector runs.
    p = pr.get_problem(name, **params)
    z = rademacher(p.dim, probe_rng(0, 0))

    def calls(t):
        batch = p.sample_batch(t, 0)
        theta = p.theta0 + 0.01 * t
        p.value_and_gradient(theta, batch)
        _, _, hvp = p.full_tape(theta, batch)
        hvp(z)
        hvp(-z)

    def live_tensors():
        return sum(type(o) is ad.Tensor for o in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        before = live_tensors()
        calls(1)
        after_first = live_tensors()
        calls(2)
        calls(3)
        after_repeats = live_tensors()
        del p
        after_del = live_tensors()
    finally:
        gc.enable()
    assert after_first > before
    assert (after_repeats - after_first, after_del - before) == (0, 0)
