"""Tests for optimizers, block averaging, curvature momentum, schedules."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessopt import optim
from hessopt.optim import (
    AdaHessian,
    Adagrad,
    Adam,
    AdamW,
    BlockSpec,
    RMSProp,
    SGD,
    NumericError,
    ema_square_update,
    make_optimizer,
    make_schedule,
    spatial_average,
)


class TestBlockSpec:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            BlockSpec(0, [4])
        with pytest.raises(ValueError):
            BlockSpec(2, [4, 0])

    def test_blocks_do_not_straddle_group_boundaries(self):
        # groups [3, 2] with b=2 must split as (0,1), (2,), (3,4)
        spec = BlockSpec(2, [3, 2])
        D = np.array([1.0, 3.0, 10.0, 5.0, 9.0])
        out = spatial_average(D, spec)
        np.testing.assert_allclose(out, [2.0, 2.0, 10.0, 7.0, 7.0])

    def test_dim_is_total_group_size(self):
        assert BlockSpec(4, [5, 7, 1]).dim == 13


class TestSpatialAverage:
    def test_even_blocks(self):
        out = spatial_average(np.array([1.0, 2, 3, 4]), BlockSpec(2, [4]))
        np.testing.assert_allclose(out, [1.5, 1.5, 3.5, 3.5])

    def test_block_size_one_is_identity(self):
        D = np.array([3.0, -1.0, 7.0])
        out = spatial_average(D, BlockSpec(1, [3]))
        np.testing.assert_allclose(out, D)
        assert out is not D  # caller may mutate the result safely

    def test_partial_tail_block_averages_actual_entries(self):
        out = spatial_average(np.array([1.0, 2, 3, 4, 5]), BlockSpec(2, [5]))
        np.testing.assert_allclose(out, [1.5, 1.5, 3.5, 3.5, 5.0])

    def test_block_covering_whole_vector_gives_global_mean(self):
        out = spatial_average(np.array([1.0, 2, 3, 4]), BlockSpec(4, [4]))
        np.testing.assert_allclose(out, [2.5, 2.5, 2.5, 2.5])

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            spatial_average(np.zeros(3), BlockSpec(2, [4]))

    @settings(max_examples=50, deadline=None)
    @given(
        data=st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=40,
        ),
        block=st.integers(1, 8),
    )
    def test_property_block_means_and_sum_preservation(self, data, block):
        D = np.array(data)
        out = spatial_average(D, BlockSpec(block, [D.size]))
        # averaging preserves the total and is constant within each block
        np.testing.assert_allclose(out.sum(), D.sum(), rtol=1e-9, atol=1e-6)
        for start in range(0, D.size, block):
            chunk = D[start : start + block]
            np.testing.assert_allclose(
                out[start : start + block], chunk.mean(), rtol=1e-12, atol=1e-9
            )


class TestFirstOrderOptimizers:
    def test_sgd_momentum_buffer_recurrence(self):
        # constant gradient c: buffer is (1-m) * (c + m c + m^2 c + ...)
        c = np.array([1.0, -2.0])
        opt = SGD(dim=2, lr=0.5, momentum=0.9)
        theta = np.zeros(2)
        theta = opt.step(theta, c)
        np.testing.assert_allclose(opt.buffer, 0.1 * c, atol=1e-15)
        theta = opt.step(theta, c)
        np.testing.assert_allclose(opt.buffer, 0.19 * c, atol=1e-15)
        np.testing.assert_allclose(theta, -0.5 * (0.1 + 0.19) * c, atol=1e-15)

    def test_sgd_zero_momentum_is_plain_gradient_descent(self):
        opt = SGD(dim=2, lr=0.1, momentum=0.0)
        theta = opt.step(np.array([1.0, 1.0]), np.array([2.0, -4.0]))
        np.testing.assert_allclose(theta, [0.8, 1.4], atol=1e-15)

    def test_sgd_weight_decay_couples_into_gradient(self):
        opt = SGD(dim=1, lr=1.0, momentum=0.0, weight_decay=0.5)
        theta = opt.step(np.array([2.0]), np.array([0.0]))
        np.testing.assert_allclose(theta, [1.0], atol=1e-15)

    def test_sgd_rejects_momentum_one(self):
        with pytest.raises(ValueError):
            SGD(dim=1, lr=0.1, momentum=1.0)

    @pytest.mark.parametrize("cls,name", [
        (cls, name) for cls in optim.OPTIMIZERS.values()
        for name in ("lr", "eps", "weight_decay") if name in inspect.signature(cls).parameters
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 10**400],
                             ids=["nan", "inf", "huge-int"])
    def test_rejects_non_finite_hyperparameter(self, cls, name, value):
        # NaN passes every "x <= 0" check; a NaN weight decay used to mean none.
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            cls(dim=1, **{"lr": 0.1, name: value})

    def test_adagrad_first_step_normalizes_gradient(self):
        opt = Adagrad(dim=2, lr=0.2, eps=0.0)
        theta = opt.step(np.zeros(2), np.array([3.0, 4.0]))
        np.testing.assert_allclose(opt.accum, [9.0, 16.0], atol=1e-15)
        np.testing.assert_allclose(theta, [-0.2, -0.2], atol=1e-15)

    def test_adagrad_accumulator_never_decreases(self):
        opt = Adagrad(dim=3, lr=0.1)
        theta = np.zeros(3)
        prev = opt.accum.copy()
        rng = np.random.default_rng(0)
        for _ in range(20):
            theta = opt.step(theta, rng.normal(size=3))
            assert np.all(opt.accum >= prev)
            prev = opt.accum.copy()

    def test_rmsprop_matches_manual_recurrence(self):
        beta2, lr, eps = 0.9, 0.05, 1e-8
        opt = RMSProp(dim=2, lr=lr, beta2=beta2, eps=eps)
        theta = np.array([1.0, -1.0])
        v = np.zeros(2)
        rng = np.random.default_rng(1)
        for _ in range(10):
            g = rng.normal(size=2)
            v = beta2 * v + (1 - beta2) * g * g
            want = theta - lr * g / (np.sqrt(v) + eps)
            theta = opt.step(theta, g)
            np.testing.assert_allclose(theta, want, atol=1e-15)

    def test_adam_first_step_is_signlike(self):
        opt = Adam(dim=2, lr=0.1, eps=1e-12)
        theta = opt.step(np.zeros(2), np.array([100.0, -0.001]))
        np.testing.assert_allclose(theta, [-0.1, 0.1], rtol=1e-8)

    def test_adam_matches_manual_recurrence(self):
        beta1, beta2, lr, eps = 0.9, 0.999, 0.01, 1e-8
        opt = Adam(dim=3, lr=lr, beta1=beta1, beta2=beta2, eps=eps)
        theta = np.ones(3)
        m = np.zeros(3)
        v = np.zeros(3)
        rng = np.random.default_rng(2)
        for t in range(1, 16):
            g = rng.normal(size=3)
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g * g
            m_hat = m / (1 - beta1**t)
            v_hat = v / (1 - beta2**t)
            want = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
            theta = opt.step(theta, g)
            np.testing.assert_allclose(theta, want, atol=1e-15)

    def test_adamw_decay_is_decoupled_from_adaptive_scaling(self):
        lr, wd = 0.1, 0.5
        theta0 = np.array([2.0])
        g = np.array([1.0])
        opt = AdamW(dim=1, lr=lr, weight_decay=wd, eps=1e-12)
        theta = opt.step(theta0, g)
        # decay shrinks theta first, then the bias-corrected step is ~lr*sign(g)
        want = theta0 - lr * wd * theta0 - lr * g / (np.abs(g) + 1e-12)
        np.testing.assert_allclose(theta, want, rtol=1e-10)

    def test_adam_coupled_decay_differs_from_adamw(self):
        theta0 = np.array([2.0])
        g = np.array([1.0])
        a = Adam(dim=1, lr=0.1, weight_decay=0.5).step(theta0, g)
        w = AdamW(dim=1, lr=0.1, weight_decay=0.5).step(theta0, g)
        assert a[0] != pytest.approx(w[0], abs=1e-6)


def preconditioner_after_step(opt: AdaHessian, Ds: np.ndarray) -> np.ndarray:
    """Dbar_t of one ``step``, for an optimizer built with lr=1, k=1 and eps=0.

    A unit gradient every step keeps the bias-corrected momentum at 1, so the
    step from zero is -1 / Dbar_t.
    """
    return -1.0 / opt.step(np.zeros(opt.dim), np.ones(opt.dim), Ds=Ds)


class TestAdaHessian:
    def test_one_step_quadratic_with_exact_diagonal(self):
        # diag(20, 2) quadratic from theta=(1,1): exact diagonal, eps=0,
        # lr=1, k=1 lands on the minimizer in a single step
        opt = AdaHessian(dim=2, lr=1.0, k=1.0, eps=0.0)
        g = np.array([20.0, 2.0])
        Ds = np.array([20.0, 2.0])
        theta = opt.step(np.array([1.0, 1.0]), g, Ds=Ds)
        np.testing.assert_allclose(theta, [0.0, 0.0], atol=1e-15)

    def test_curvature_momentum_first_step_is_absolute_value(self):
        opt = AdaHessian(dim=2, lr=1.0, beta2=0.5, k=1.0, eps=0.0)
        Dbar = preconditioner_after_step(opt, np.array([-3.0, 4.0]))
        np.testing.assert_allclose(Dbar, [3.0, 4.0], atol=1e-14)

    def test_curvature_momentum_second_step_hand_value(self):
        # beta2=0.5, Ds1=(2,), Ds2=(0,): v = 0.5*(0.5*4) = 1,
        # bias correction 1 - 0.25 gives sqrt(4/3)
        opt = AdaHessian(dim=1, lr=1.0, beta2=0.5, k=1.0, eps=0.0)
        preconditioner_after_step(opt, np.array([2.0]))
        Dbar = preconditioner_after_step(opt, np.array([0.0]))
        np.testing.assert_allclose(Dbar, [np.sqrt(4.0 / 3.0)], rtol=1e-14)

    def test_constant_diagonal_is_a_fixed_point(self):
        opt = AdaHessian(dim=2, lr=1.0, beta2=0.9, k=1.0, eps=0.0)
        Ds = np.array([5.0, -7.0])
        for _ in range(25):
            Dbar = preconditioner_after_step(opt, Ds)
            np.testing.assert_allclose(Dbar, np.abs(Ds), rtol=1e-12)

    def test_momentum_off_uses_current_estimate_only(self):
        opt = AdaHessian(dim=1, lr=1.0, beta1=0.5, beta2=0.5, eps=0.0,
                         hessian_ema=False)
        theta = opt.step(np.array([0.0]), np.array([1.0]), Ds=np.array([4.0]))
        # m_hat = g, preconditioner |Ds|^1 = 4 regardless of EMA history
        np.testing.assert_allclose(theta, [-0.25], atol=1e-15)
        theta = opt.step(theta, np.array([1.0]), Ds=np.array([-8.0]))
        np.testing.assert_allclose(theta, [-0.25 - 1.0 / 8.0], atol=1e-15)

    def test_k_zero_reduces_to_momentum_sgd(self):
        # k=0 makes the preconditioner 1, leaving bias-corrected momentum
        opt = AdaHessian(dim=2, lr=0.3, beta1=0.9, k=0.0, eps=0.0)
        g = np.array([2.0, -1.0])
        theta = opt.step(np.zeros(2), g, Ds=np.array([100.0, 0.01]))
        np.testing.assert_allclose(theta, -0.3 * g, atol=1e-15)

    def test_k_half_takes_square_root_of_curvature(self):
        opt = AdaHessian(dim=1, lr=1.0, k=0.5, eps=0.0)
        theta = opt.step(np.zeros(1), np.array([1.0]), Ds=np.array([16.0]))
        np.testing.assert_allclose(theta, [-0.25], rtol=1e-14)

    def test_adam_reduction_with_gradient_as_diagonal(self):
        # Ds := g with k=1 and b=1 must reproduce Adam bit-for-bit
        rng = np.random.default_rng(3)
        dim = 4
        adam = Adam(dim=dim, lr=0.02, beta1=0.9, beta2=0.99, eps=1e-8)
        ada = AdaHessian(dim=dim, lr=0.02, beta1=0.9, beta2=0.99, k=1.0, eps=1e-8)
        ta = np.ones(dim)
        tb = np.ones(dim)
        for _ in range(100):
            g = rng.normal(size=dim)
            ta = adam.step(ta, g)
            tb = ada.step(tb, g, Ds=g)
            np.testing.assert_allclose(tb, ta, atol=1e-12)

    def test_first_step_scale_equivariance(self):
        # scaling the problem by c scales g and Ds by c; with eps=0 the
        # first preconditioned step is unchanged
        g = np.array([3.0, -1.0])
        Ds = np.array([6.0, 2.0])
        base = AdaHessian(dim=2, lr=0.5, eps=0.0)
        scaled = AdaHessian(dim=2, lr=0.5, eps=0.0)
        t1 = base.step(np.ones(2), g, Ds=Ds)
        t2 = scaled.step(np.ones(2), 100.0 * g, Ds=100.0 * Ds)
        np.testing.assert_allclose(t2, t1, atol=1e-12)

    def test_stationary_point_stays_put(self):
        opt = AdaHessian(dim=2, lr=1.0, eps=1e-8)
        theta0 = np.array([0.3, -0.4])
        theta = opt.step(theta0, np.zeros(2), Ds=np.array([5.0, 5.0]))
        np.testing.assert_array_equal(theta, theta0)

    def test_skipped_iterations_reuse_last_estimate(self):
        opt = AdaHessian(dim=1, lr=1.0, beta1=0.5, beta2=0.5, eps=0.0)
        opt.step(np.zeros(1), np.array([1.0]), Ds=np.array([2.0]))
        assert opt.last_Ds is not None
        before = opt.v_raw.copy()
        opt.step(np.zeros(1), np.array([1.0]))  # Ds=None reuses (2.0)
        np.testing.assert_allclose(opt.v_raw, 0.5 * before + 0.5 * 4.0)

    def test_first_step_without_estimate_raises(self):
        opt = AdaHessian(dim=1, lr=1.0)
        with pytest.raises(ValueError):
            opt.step(np.zeros(1), np.array([1.0]))

    def test_spatial_averaging_applies_block_means(self):
        spec = BlockSpec(2, [4])
        opt = AdaHessian(dim=4, lr=1.0, block_spec=spec)
        out = opt.average_diagonal(np.array([1.0, 3.0, 5.0, 7.0]))
        np.testing.assert_allclose(out, [2.0, 2.0, 6.0, 6.0])

    def test_block_spec_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            AdaHessian(dim=4, lr=1.0, block_spec=BlockSpec(2, [6]))

    def test_weight_decay_is_decoupled(self):
        opt = AdaHessian(dim=1, lr=0.1, weight_decay=0.5, eps=0.0)
        theta = opt.step(np.array([2.0]), np.array([1.0]), Ds=np.array([1.0]))
        # shrink: 2 - 0.1*0.5*2 = 1.9, then step 0.1 * 1/1
        np.testing.assert_allclose(theta, [1.8], atol=1e-14)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_update_raises_with_coordinate(self):
        opt = AdaHessian(dim=2, lr=1.0, eps=0.0)
        with pytest.raises(NumericError, match="coordinate"):
            opt.step(np.zeros(2), np.array([1.0, 1.0]), Ds=np.array([0.0, 1.0]))

    def test_rejects_out_of_range_k(self):
        with pytest.raises(ValueError):
            AdaHessian(dim=1, lr=0.1, k=1.5)
        with pytest.raises(ValueError):
            AdaHessian(dim=1, lr=0.1, k=-0.1)


class TestEmaSeam:
    def test_ema_square_update_is_exact(self):
        prev = np.array([1.0, 4.0])
        val = np.array([2.0, -3.0])
        np.testing.assert_array_equal(
            ema_square_update(prev, val, 0.75), 0.75 * prev + 0.25 * val * val
        )

    def test_curvature_track_resolves_through_module_seam(self):
        # AdaHessian must read the module-level name at call time, so the
        # verification suite can inject a fault there and see it surface
        assert optim.hessian_ema_square_update is ema_square_update
        original = optim.hessian_ema_square_update
        try:
            optim.hessian_ema_square_update = lambda prev, val, b2: prev + val * val
            opt = AdaHessian(dim=1, lr=1.0, beta2=0.5, k=1.0, eps=0.0)
            Dbar = preconditioner_after_step(opt, np.array([2.0]))
            np.testing.assert_allclose(Dbar, [np.sqrt(8.0)], rtol=1e-14)
        finally:
            optim.hessian_ema_square_update = original


class TestStateDicts:
    def test_make_optimizer_unknown_kind_raises(self):
        with pytest.raises(KeyError):
            make_optimizer("newton", 2, lr=0.1)

    def test_make_optimizer_translates_block_size(self):
        opt = make_optimizer("adahessian", 4, group_sizes=[2, 2], lr=0.1, block_size=2)
        assert opt.block_spec.block_size == 2
        assert opt.block_spec.group_sizes == [2, 2]


class TestSchedules:
    def test_constant_factor_is_one(self):
        assert make_schedule("constant")(1) == 1.0
        assert make_schedule("constant")(10_000) == 1.0

    def test_step_decay_milestones(self):
        params = {"milestones": [80, 120], "factor": 0.1}
        assert make_schedule("step_decay", **params)(79) == pytest.approx(1.0)
        assert make_schedule("step_decay", **params)(80) == pytest.approx(0.1)
        assert make_schedule("step_decay", **params)(100) == pytest.approx(0.1)
        assert make_schedule("step_decay", **params)(120) == pytest.approx(0.01)
        assert make_schedule("step_decay", **params)(500) == pytest.approx(0.01)

    def test_linear_warmup_then_decay(self):
        params = {"warmup_steps": 4000, "total_steps": 8000}
        assert make_schedule("linear_warmup_then_decay", **params)(2000) == pytest.approx(0.5)
        assert make_schedule("linear_warmup_then_decay", **params)(4000) == pytest.approx(1.0)
        assert make_schedule("linear_warmup_then_decay", **params)(6000) == pytest.approx(0.5)
        assert make_schedule("linear_warmup_then_decay", **params)(8000) == pytest.approx(0.0)

    def test_schedules_are_one_based(self):
        with pytest.raises(ValueError):
            make_schedule("constant")(0)

    def test_unknown_schedule_raises(self):
        with pytest.raises(KeyError):
            make_schedule("cosine")

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            make_schedule("step_decay", milestones=[0], factor=0.1)
        with pytest.raises(ValueError):
            make_schedule("step_decay", milestones=[10], factor=1.5)
        with pytest.raises(ValueError):
            make_schedule("linear_warmup_then_decay", warmup_steps=10, total_steps=10)

    @pytest.mark.parametrize("params", [
        {"milestones": [float("inf")]},
        {"milestones": [float("nan")]},
        {"milestones": [2.5]},
        {"milestones": ["3"]},
        {"milestones": "12"},
        {"milestones": [True]},
    ], ids=["inf", "nan", "fraction", "string", "string-of-digits", "bool"])
    def test_step_decay_rejects_milestone_that_is_not_a_whole_number(self, params):
        with pytest.raises(ValueError, match="milestone must be a whole number"):
            make_schedule("step_decay", **params)

    @pytest.mark.parametrize("params,name", [
        ({"warmup_steps": 5, "total_steps": float("inf")}, "total_steps"),
        ({"warmup_steps": float("nan"), "total_steps": 10}, "warmup_steps"),
        ({"warmup_steps": 2.5, "total_steps": 10}, "warmup_steps"),
    ], ids=["inf-total", "nan-warmup", "fractional-warmup"])
    def test_warmup_schedule_rejects_steps_that_are_not_whole_numbers(self, params, name):
        with pytest.raises(ValueError, match=f"{name} must be a whole number"):
            make_schedule("linear_warmup_then_decay", **params)

    def test_whole_number_floats_and_numpy_ints_are_iterations(self):
        schedule = make_schedule("step_decay", milestones=[np.int64(3), 5.0], factor=0.5)
        assert [schedule(t) for t in (2, 3, 5)] == [1.0, 0.5, 0.25]
