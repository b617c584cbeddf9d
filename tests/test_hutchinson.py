"""Tests for the stochastic diagonal-Hessian estimator and its schedule."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hessopt import hutchinson
from hessopt import problems as pr
from hessopt.hutchinson import (
    DiagEstimate,
    HutchinsonConfig,
    estimate_diag,
    probe_keys,
    probe_pass,
    probe_rng,
    rademacher,
    should_compute,
)


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = HutchinsonConfig()
        assert cfg.samples_per_estimate == 1
        assert cfg.frequency == 1
        assert cfg.warmup_steps == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"samples_per_estimate": 0},
            {"samples_per_estimate": -1},
            {"frequency": 0},
            {"warmup_steps": -1},
        ],
    )
    def test_rejects_nonpositive_settings(self, kwargs):
        with pytest.raises(ValueError):
            HutchinsonConfig(**kwargs)

    @pytest.mark.parametrize("name", ["samples_per_estimate", "frequency", "warmup_steps"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, False, "2"])
    def test_refuses_counts_that_are_not_ints(self, name, value):
        # frequency=2.5 would pick every fifth iteration, and a float
        # samples_per_estimate would fail only inside estimate_diag.
        with pytest.raises(TypeError, match=f"{name} must be an int"):
            HutchinsonConfig(**{name: value})

    @pytest.mark.parametrize("count", [2, np.int64(2), np.uint8(2)])
    def test_takes_int_counts(self, count):
        cfg = HutchinsonConfig(samples_per_estimate=count, frequency=count, warmup_steps=count)
        assert [should_compute(t, cfg) for t in range(1, 7)] == [True] * 3 + [False, True, False]

    def test_config_is_immutable(self):
        cfg = HutchinsonConfig()
        with pytest.raises(Exception):
            cfg.frequency = 3


class TestRademacher:
    def test_entries_are_plus_minus_one(self):
        z = rademacher(1000, probe_rng(0, 0))
        assert set(np.unique(z)) <= {-1.0, 1.0}
        np.testing.assert_allclose(z * z, np.ones(1000))

    def test_streams_are_deterministic(self):
        a = rademacher(64, probe_rng(5, 17))
        b = rademacher(64, probe_rng(5, 17))
        c = rademacher(64, probe_rng(5, 18))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_empirical_mean_is_near_zero(self):
        z = rademacher(100_000, probe_rng(1, 0))
        assert abs(z.mean()) < 0.02


def assert_batch_matches_one_probe_loop(n, d, seed, stream):
    """An (n, d) draw is n one-probe draws stacked, and leaves the same state."""
    g, g2 = probe_rng(seed, stream), probe_rng(seed, stream)
    batch = rademacher((n, d), g)
    loop = np.stack([rademacher(d, g2) for _ in range(n)])
    assert batch.shape == (n, d) and batch.dtype == np.float64
    np.testing.assert_array_equal(batch, loop)
    np.testing.assert_array_equal(rademacher(d, g), rademacher(d, g2))


class TestRademacherBatch:
    # Fixed cases: odd and even widths, and the 6, 8 and 57 that the oracle
    # and the problems draw.
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 64),
        d=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
        stream=st.integers(0, 2**16),
    )
    @example(n=100, d=1, seed=7, stream=0)
    @example(n=100, d=3, seed=7, stream=0)
    @example(n=100, d=6, seed=7, stream=0)
    @example(n=100, d=7, seed=7, stream=0)
    @example(n=100, d=8, seed=7, stream=0)
    @example(n=100, d=57, seed=7, stream=0)
    def test_rows_are_successive_one_probe_draws(self, n, d, seed, stream):
        assert_batch_matches_one_probe_loop(n, d, seed, stream)

    def test_mixed_call_sizes_share_one_stream(self):
        g, g2 = probe_rng(3, 1), probe_rng(3, 1)
        parts = [rademacher((4, 7), g), rademacher(7, g)[None], rademacher((2, 7), g)]
        loop = np.stack([rademacher(7, g2) for _ in range(7)])
        np.testing.assert_array_equal(np.concatenate(parts), loop)

    @pytest.mark.parametrize("shape", [0, -1, (0, 5), (5, 0), (0, 0), (-2, 3), (3,), (2, 2, 2)])
    def test_rejects_empty_or_malformed_shapes(self, shape):
        with pytest.raises(ValueError):
            rademacher(shape, probe_rng(0, 0))


def numpy_key(seed, stream):
    return np.random.SeedSequence([seed, stream]).generate_state(2, np.uint64)


def keyed_draw(n, d, key):
    return hutchinson._keyed_probes(np.reshape(key, (1, 2)), n, d, np.empty((1, n, d)))[0]


class TestProbeKeys:
    # Seeds up to 5 words (longer than the pool of 4); streams of 1 or 2 words.
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**130 - 1),
           streams=st.lists(st.integers(1, 2**33 - 1), min_size=1, max_size=6))
    @example(seed=0, streams=[1, 2**32 - 1, 2**32, 2**33 - 1])
    @example(seed=2**64 + 1, streams=[2**32 + 5, 7, 2**32, 1])
    @example(seed=2**129 + 3, streams=[5, 2**32 + 5])
    @example(seed=2**32 + 5, streams=[300])
    def test_equal_numpy_seed_sequence_keys(self, seed, streams):
        keys = probe_keys(seed, streams)
        assert keys.shape == (len(streams), 2) and keys.dtype == np.uint64
        np.testing.assert_array_equal(keys, [numpy_key(seed, s) for s in streams])

    def test_key_is_the_key_of_probe_rng(self):
        (key,) = probe_keys(5, [17])
        state = probe_rng(5, 17).bit_generator.state["state"]
        np.testing.assert_array_equal(key, state["key"])

    def test_stream_zero_and_no_streams(self):
        np.testing.assert_array_equal(probe_keys(3, [0, 4]), [numpy_key(3, 0), numpy_key(3, 4)])
        assert probe_keys(3, []).shape == (0, 2)

    def test_rejects_a_negative_seed(self):
        with pytest.raises(ValueError):
            probe_keys(-1, [1])


class TestKeyedDraw:
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 8), d=st.integers(1, 64), seed=st.integers(0, 2**65),
           stream=st.integers(0, 2**33))
    @example(n=1, d=1, seed=0, stream=1)
    @example(n=3, d=7, seed=0, stream=1)  # odd n * d: the last word's low half only
    @example(n=1, d=57, seed=11, stream=300)
    @example(n=8, d=64, seed=5, stream=2**32 + 5)
    def test_equals_rademacher_on_probe_rng(self, n, d, seed, stream):
        (key,) = probe_keys(seed, [stream])
        z = keyed_draw(n, d, key)
        assert z.shape == (n, d) and z.dtype == np.float64
        np.testing.assert_array_equal(z, rademacher((n, d), probe_rng(seed, stream)))

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 20), d=st.integers(1, 64), seed=st.integers(0, 2**40),
           streams=st.lists(st.integers(0, 2**33), min_size=1, max_size=5))
    @example(n=3, d=7, seed=0, streams=[1, 2, 2**32 + 5])
    def test_keys_drawn_together_equal_their_one_key_draws(self, n, d, seed, streams):
        keys = probe_keys(seed, streams)
        out = np.full((len(keys), n, d), np.nan)
        assert hutchinson._keyed_probes(keys, n, d, out) is out
        for z, key, stream in zip(out, keys, streams, strict=True):
            np.testing.assert_array_equal(z, keyed_draw(n, d, key))
            np.testing.assert_array_equal(z, rademacher((n, d), probe_rng(seed, stream)))


class TestProbePass:
    """The run's keyed pass: the probes of the iterations a schedule selects, in
    chunks of at most ``_BLOCK_ENTRIES`` entries."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(d=st.integers(1, 64), n=st.integers(1, 40), max_entries=st.integers(1, 600),
           seed=st.integers(0, 2**40), frequency=st.integers(1, 7),
           warmup=st.integers(0, 5), iters=st.integers(1, 40))
    @example(d=57, n=1, max_entries=1 << 16, seed=0, frequency=1, warmup=0, iters=40)
    @example(d=7, n=3, max_entries=21, seed=11, frequency=4, warmup=3, iters=30)
    @example(d=64, n=40, max_entries=8, seed=5, frequency=3, warmup=0, iters=9)
    def test_rows_equal_rademacher_on_probe_rng(self, d, n, max_entries, seed, frequency,
                                                warmup, iters):
        cfg = HutchinsonConfig(samples_per_estimate=n, frequency=frequency,
                               warmup_steps=warmup)
        ts = [t for t in range(1, iters + 1) if should_compute(t, cfg)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hutchinson, "_BLOCK_ENTRIES", max_entries)
            taken = 0
            # each row is checked before the next is asked for: a later chunk
            # overwrites the buffer an earlier one was drawn into
            for t, source in zip(ts, probe_pass(probe_keys(seed, ts), n, d), strict=True):
                if n * d > max_entries:  # the Generator of probe_rng(seed, t)
                    z = rademacher((n, d), source)
                else:
                    z = source
                assert z.shape == (n, d) and z.dtype == np.float64
                np.testing.assert_array_equal(z, rademacher((n, d), probe_rng(seed, t)))
                taken += 1
        assert taken == len(ts)

    def test_probes_past_one_block_are_drawn_by_their_key(self):
        keys = probe_keys(3, [4])
        (source,) = probe_pass(keys, 2, (1 << 15) + 1)
        assert isinstance(source, np.random.Generator)
        np.testing.assert_equal(source.bit_generator.state, probe_rng(3, 4).bit_generator.state)
        (z,) = probe_pass(keys, 2, 1 << 15)
        np.testing.assert_array_equal(z, rademacher((2, 1 << 15), probe_rng(3, 4)))

    def test_rejects_an_empty_probe(self):
        with pytest.raises(ValueError):
            next(probe_pass(probe_keys(0, [1]), 1, 0))

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_fewer_than_one_probe(self, n):
        with pytest.raises(ValueError, match="n must be >= 1"):
            next(probe_pass(probe_keys(0, [1]), n, 3))


class TestEstimateDiag:
    def test_probes_and_generator_give_the_same_estimate(self):
        A = np.array([[2.0, 1.0], [1.0, 3.0]])
        p = pr.QuadraticProblem(A, np.zeros(2), name="q")
        cfg = HutchinsonConfig(samples_per_estimate=5)
        probes = rademacher((5, 2), probe_rng(3, 9))
        given = estimate_diag(p, np.zeros(2), None, cfg, probes, hvp=A.__matmul__)
        numpy = estimate_diag(p, np.zeros(2), None, cfg, probe_rng(3, 9), hvp=A.__matmul__)
        np.testing.assert_array_equal(given.values, numpy.values)

    @pytest.mark.parametrize("source", [probe_keys(3, [9])[0], [[1.0, -1.0]], 3],
                             ids=["key", "list", "int"])
    def test_rejects_a_source_that_is_neither_probes_nor_a_generator(self, source):
        p = pr.make_fig1_quadratic()
        with pytest.raises(ValueError, match="expected 1 probes of length 2"):
            estimate_diag(p, p.theta0, None, HutchinsonConfig(), source)

    @pytest.mark.parametrize("shape", [(4, 2), (5, 3), (10, 1)])
    def test_rejects_probes_of_another_shape(self, shape):
        p = pr.make_fig1_quadratic()
        with pytest.raises(ValueError, match="expected 5 probes of length 2"):
            estimate_diag(p, p.theta0, None, HutchinsonConfig(samples_per_estimate=5),
                          np.ones(shape))

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 40), d=st.integers(1, 12), max_entries=st.integers(1, 100),
           stream=st.integers(0, 2**33))
    @example(n=17, d=7, max_entries=1, stream=1)  # one probe to a block
    @example(n=15, d=3, max_entries=10, stream=3)  # 3-row blocks of 9 entries
    @example(n=32_770, d=2, max_entries=1 << 16, stream=9)  # 32,768 rows, then 2
    def test_small_blocks_give_the_one_block_estimate(self, n, d, max_entries, stream):
        A = pr.make_random_spd_quadratic(max(d, 2), 10.0, 4).A[:d, :d]
        p = pr.QuadraticProblem(A, np.zeros(d), name="q")
        cfg = HutchinsonConfig(samples_per_estimate=n)
        whole = estimate_diag(p, np.zeros(d), None, cfg, rademacher((n, d), probe_rng(5, stream)),
                              hvp=A.__matmul__)
        shapes = []

        def recording(shape, rng):
            shapes.append(shape)
            return rademacher(shape, rng)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hutchinson, "_BLOCK_ENTRIES", max_entries)
            mp.setattr(hutchinson, "rademacher", recording)
            blocks = estimate_diag(p, np.zeros(d), None, cfg, probe_rng(5, stream),
                                   hvp=A.__matmul__)
        np.testing.assert_array_equal(blocks.values, whole.values)
        rows = max(1, max_entries // d)
        assert shapes == [(min(rows, n - start), d) for start in range(0, n, rows)]

    def test_diagonal_hessian_is_recovered_exactly_by_any_probe(self):
        # for diagonal H, z * (H z) = diag(H) regardless of the signs in z
        p = pr.make_fig1_quadratic()
        cfg = HutchinsonConfig(samples_per_estimate=1)
        for stream in range(5):
            est = estimate_diag(p, p.theta0, None, cfg, probe_rng(stream, 0))
            np.testing.assert_allclose(est.values, [20.0, 2.0], atol=1e-12)

    def test_negative_curvature_is_preserved(self):
        p = pr.QuadraticProblem(np.diag([-3.0, 5.0]), np.zeros(2), name="saddle")
        est = estimate_diag(p, np.ones(2), None, HutchinsonConfig(), probe_rng(0, 0))
        np.testing.assert_allclose(est.values, [-3.0, 5.0], atol=1e-12)

    def test_single_probe_on_nondiagonal_matrix(self):
        # z = (1, -1) on A = [[2,1],[1,3]]: z*(Az) = (1*(2-1), -1*(1-3)) = (1, 2)
        A = np.array([[2.0, 1.0], [1.0, 3.0]])
        p = pr.QuadraticProblem(A, np.zeros(2), name="q")
        z = np.array([1.0, -1.0])
        est = z * p.hvp(np.zeros(2), z, None)
        np.testing.assert_allclose(est, [1.0, 2.0], atol=1e-12)

    def test_average_over_all_sign_patterns_is_the_diagonal(self):
        # the four probes (+-1, +-1) average z*(Az) to exactly diag(A)
        A = np.array([[2.0, 1.0], [1.0, 3.0]])
        p = pr.QuadraticProblem(A, np.zeros(2), name="q")
        acc = np.zeros(2)
        for s0 in (-1.0, 1.0):
            for s1 in (-1.0, 1.0):
                z = np.array([s0, s1])
                acc += z * p.hvp(np.zeros(2), z, None)
        np.testing.assert_allclose(acc / 4.0, [2.0, 3.0], atol=1e-12)

    def test_estimates_are_bit_for_bit_reproducible(self):
        p = pr.make_logreg()
        theta = np.full(p.dim, 0.1)
        cfg = HutchinsonConfig(samples_per_estimate=3)
        a = estimate_diag(p, theta, None, cfg, probe_rng(9, 4))
        b = estimate_diag(p, theta, None, cfg, probe_rng(9, 4))
        np.testing.assert_array_equal(a.values, b.values)

    def test_multiple_samples_average_probe_estimates(self):
        A = np.array([[2.0, 1.0], [1.0, 3.0]])
        p = pr.QuadraticProblem(A, np.zeros(2), name="q")
        cfg = HutchinsonConfig(samples_per_estimate=4)
        rng = probe_rng(3, 0)
        est = estimate_diag(p, np.zeros(2), None, cfg, rng)
        rng2 = probe_rng(3, 0)
        acc = np.zeros(2)
        for _ in range(4):
            z = rademacher(2, rng2)
            acc += z * (A @ z)
        np.testing.assert_allclose(est.values, acc / 4.0, atol=1e-14)

    def test_reuses_supplied_hvp_closure(self):
        p = pr.make_fig1_quadratic()
        calls = []

        def hvp(z):
            calls.append(z.copy())
            return p.analytic_hvp(p.theta0, z)

        cfg = HutchinsonConfig(samples_per_estimate=2)
        est = estimate_diag(p, p.theta0, None, cfg, probe_rng(0, 0), hvp=hvp)
        assert len(calls) == 2
        np.testing.assert_allclose(est.values, [20.0, 2.0], atol=1e-12)

    def test_rejects_nonfinite_estimates(self):
        with pytest.raises(ValueError):
            DiagEstimate(np.array([1.0, np.nan]))


class TestSchedule:
    def test_every_iteration_when_frequency_one(self):
        cfg = HutchinsonConfig(frequency=1, warmup_steps=0)
        assert all(should_compute(t, cfg) for t in range(1, 20))

    def test_frequency_two_computes_on_odd_iterations(self):
        cfg = HutchinsonConfig(frequency=2, warmup_steps=0)
        computed = [t for t in range(1, 11) if should_compute(t, cfg)]
        assert computed == [1, 3, 5, 7, 9]

    def test_warmup_then_sparse_refresh(self):
        # warmup 3 with frequency 5: every step through t=4, then every 5th
        cfg = HutchinsonConfig(frequency=5, warmup_steps=3)
        computed = [t for t in range(1, 31) if should_compute(t, cfg)]
        assert computed == [1, 2, 3, 4, 9, 14, 19, 24, 29]

    def test_iterations_start_at_one(self):
        cfg = HutchinsonConfig()
        with pytest.raises(ValueError):
            should_compute(0, cfg)
