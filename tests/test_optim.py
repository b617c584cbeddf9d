"""Tests for optimizers, block averaging, curvature momentum, schedules."""

import inspect
import tracemalloc

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

    @pytest.mark.parametrize("make,name", [
        (lambda: BlockSpec(2.7, [4]), "block_size"),
        (lambda: BlockSpec(2.0, [4]), "block_size"),
        (lambda: BlockSpec(True, [3]), "block_size"),
        (lambda: BlockSpec(2, [3.7, 2]), r"group_sizes\[0\]"),
        (lambda: BlockSpec(2, [3, False]), r"group_sizes\[1\]"),
        (lambda: SGD(2.9, lr=0.1), "dim"),
        (lambda: AdaHessian(True, lr=0.1), "dim"),
        (lambda: make_optimizer("adahessian", 4, lr=0.1, block_size=2.5), "block_size"),
        (lambda: make_optimizer("adam", 4.0, lr=0.1), "dim"),
    ], ids=["fractional-block", "float-block", "bool-block", "fractional-group", "bool-group",
            "fractional-dim", "bool-dim", "make-fractional-block", "make-float-dim"])
    def test_refuses_sizes_that_are_not_ints(self, make, name):
        # Refused, never truncated: 2.7 is not a block size of 2.
        with pytest.raises(TypeError, match=f"^{name} must be an int, got "):
            make()

    def test_takes_numpy_integers(self):
        spec = BlockSpec(np.int64(2), [np.int32(3), np.int64(2)])
        assert (spec.block_size, spec.group_sizes) == (2, [3, 2])
        assert SGD(np.int64(3), lr=0.1).dim == 3

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

    def test_a_reused_estimate_is_the_one_passed_not_the_callers_array(self):
        # The caller may write into its estimate after the step; a step that
        # reuses it must still see the values it was given.
        theta, g = np.array([1.0, -2.0, 0.5]), np.array([1.0, -1.0, 1.0])
        D = np.array([1.0, 2.0, 4.0])
        opt = AdaHessian(3, lr=0.01, eps=0.0)
        twin = AdaHessian(3, lr=0.01, eps=0.0)
        theta_1 = opt.step(theta, g, Ds=D)
        twin.step(theta, g, Ds=D.copy())
        D[:] = 1e6
        theta_2 = opt.step(theta_1, g)
        assert theta_2.tobytes() == twin.step(theta_1, g).tobytes()
        np.testing.assert_allclose(theta_2, [0.98, -1.99, 0.495], rtol=1e-12)

    def test_first_step_without_estimate_raises(self):
        opt = AdaHessian(dim=1, lr=1.0)
        with pytest.raises(ValueError):
            opt.step(np.zeros(1), np.array([1.0]))

    def test_block_size_one_passes_the_estimate_through_to_the_step_copy(self):
        # Averaging is the identity at block size 1; the step's copy is the only one.
        D = np.array([1.0, 2.0, 4.0])
        opt = AdaHessian(3, lr=0.01)
        Ds = opt.average_diagonal(D)
        assert Ds is D
        opt.step(np.zeros(3), np.ones(3), Ds=Ds)
        assert opt.last_Ds is not D and opt.last_Ds.tobytes() == D.tobytes()

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


# Each optimizer's step written out of place, as its docstring states it.
# The optimizers compute the same operations in place, so each step must
# match these byte for byte.


def sgd_formula(theta, grads, factors, lr, momentum, weight_decay):
    buffer, thetas = np.zeros_like(theta), []
    for g, f in zip(grads, factors):
        if weight_decay > 0:
            g = g + weight_decay * theta
        if momentum > 0:
            buffer = momentum * buffer + (1.0 - momentum) * g
            g = buffer
        theta = theta - lr * f * g
        thetas.append(theta)
    return thetas, {"buffer": buffer}


def adagrad_formula(theta, grads, factors, lr, weight_decay, eps):
    accum, thetas = np.zeros_like(theta), []
    for g, f in zip(grads, factors):
        if weight_decay > 0:
            g = g + weight_decay * theta
        accum = accum + g * g
        theta = theta - lr * f * g / (np.sqrt(accum) + eps)
        thetas.append(theta)
    return thetas, {"accum": accum}


def rmsprop_formula(theta, grads, factors, lr, beta2, weight_decay, eps):
    v, thetas = np.zeros_like(theta), []
    for g, f in zip(grads, factors):
        if weight_decay > 0:
            g = g + weight_decay * theta
        v = beta2 * v + (1.0 - beta2) * g * g
        theta = theta - lr * f * g / (np.sqrt(v) + eps)
        thetas.append(theta)
    return thetas, {"v": v}


def adam_formula(theta, grads, factors, lr, beta1, beta2, weight_decay, eps, decoupled):
    m, v, thetas = np.zeros_like(theta), np.zeros_like(theta), []
    for t, (g, f) in enumerate(zip(grads, factors), start=1):
        eff_lr = lr * f
        if weight_decay > 0:
            if decoupled:
                theta = theta - eff_lr * weight_decay * theta
            else:
                g = g + weight_decay * theta
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        theta = theta - eff_lr * m_hat / (np.sqrt(v_hat) + eps)
        thetas.append(theta)
    return thetas, {"m": m, "v": v}


def adahessian_formula(theta, grads, estimates, factors, lr, beta1, beta2, k,
                       weight_decay, eps, hessian_ema):
    m, v_raw, Ds, thetas = np.zeros_like(theta), np.zeros_like(theta), None, []
    for t, (g, estimate, f) in enumerate(zip(grads, estimates, factors), start=1):
        Ds = Ds if estimate is None else estimate
        eff_lr = lr * f
        if weight_decay > 0:
            theta = theta - eff_lr * weight_decay * theta
        m = beta1 * m + (1.0 - beta1) * g
        v_raw = beta2 * v_raw + (1.0 - beta2) * Ds * Ds
        Dbar = np.sqrt(v_raw / (1.0 - beta2**t)) if hessian_ema else np.abs(Ds)
        m_hat = m / (1.0 - beta1**t)
        theta = theta - eff_lr * m_hat / (Dbar**k + eps)
        thetas.append(theta)
    return thetas, {"m": m, "v_raw": v_raw}


_rate = st.floats(1e-4, 2.0)
_beta = st.floats(0.01, 0.999)
_decay = st.one_of(st.just(0.0), st.floats(1e-6, 0.5))
_eps = st.one_of(st.just(1e-8), st.just(0.0), st.floats(1e-12, 1e-2))


def draw_run(seed: int, estimates: bool = False):
    """theta, then per step a gradient, a diagonal estimate (None: reuse
    the last) and an lr factor, with entries spread over six decades."""
    rng = np.random.default_rng(seed)
    dim, steps = int(rng.integers(1, 9)), int(rng.integers(1, 7))

    def vector():
        return rng.standard_normal(dim) * 10.0 ** rng.uniform(-3, 3, size=dim)

    theta = vector()
    grads = [vector() for _ in range(steps)]
    diag = [vector() if t == 0 or rng.random() < 0.5 else None for t in range(steps)]
    factors = [float(rng.choice([1.0, rng.uniform(0.0, 1.0)])) for _ in range(steps)]
    return (theta, grads, diag, factors) if estimates else (theta, grads, factors)


def assert_steps_match(opt, theta, steps, expected_thetas, expected_state):
    """Each of ``opt``'s steps byte-equals the formula's, its state ends
    where the formula's does, and no step writes into its inputs."""
    for (*arrays, factor), expected in zip(steps, expected_thetas):
        inputs = [x for x in (theta, *arrays) if x is not None]
        before = [x.tobytes() for x in inputs]
        theta_next = opt.step(theta, *arrays, lr_factor=factor)
        assert [x.tobytes() for x in inputs] == before
        assert theta_next.tobytes() == expected.tobytes()
        theta = theta_next
    for name, value in expected_state.items():
        assert getattr(opt, name).tobytes() == value.tobytes(), name


class TestStepsEqualTheirFormulas:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), _rate, st.one_of(st.just(0.0), st.floats(0.0, 0.999)),
           _decay)
    def test_sgd(self, seed, lr, momentum, weight_decay):
        theta, grads, factors = draw_run(seed)
        expected = sgd_formula(theta, grads, factors, lr, momentum, weight_decay)
        opt = SGD(theta.size, lr, momentum=momentum, weight_decay=weight_decay)
        assert_steps_match(opt, theta, list(zip(grads, factors)), *expected)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), _rate, _decay, _eps)
    def test_adagrad(self, seed, lr, weight_decay, eps):
        theta, grads, factors = draw_run(seed)
        expected = adagrad_formula(theta, grads, factors, lr, weight_decay, eps)
        opt = Adagrad(theta.size, lr, weight_decay=weight_decay, eps=eps)
        assert_steps_match(opt, theta, list(zip(grads, factors)), *expected)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), _rate, _beta, _decay, _eps)
    def test_rmsprop(self, seed, lr, beta2, weight_decay, eps):
        theta, grads, factors = draw_run(seed)
        expected = rmsprop_formula(theta, grads, factors, lr, beta2, weight_decay, eps)
        opt = RMSProp(theta.size, lr, beta2=beta2, weight_decay=weight_decay, eps=eps)
        assert_steps_match(opt, theta, list(zip(grads, factors)), *expected)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), _rate, _beta, _beta, _decay, _eps, st.booleans())
    def test_adam_and_adamw(self, seed, lr, beta1, beta2, weight_decay, eps, decoupled):
        theta, grads, factors = draw_run(seed)
        expected = adam_formula(theta, grads, factors, lr, beta1, beta2, weight_decay, eps,
                                decoupled)
        opt = (AdamW if decoupled else Adam)(theta.size, lr, beta1=beta1, beta2=beta2,
                                             weight_decay=weight_decay, eps=eps)
        assert_steps_match(opt, theta, list(zip(grads, factors)), *expected)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2**32 - 1), _rate, _beta, _beta,
           st.one_of(st.sampled_from([1.0, 0.5, 0.0]), st.floats(0.0, 1.0)), _decay, _eps,
           st.booleans())
    def test_adahessian(self, seed, lr, beta1, beta2, k, weight_decay, eps, hessian_ema):
        theta, grads, estimates, factors = draw_run(seed, estimates=True)
        expected = adahessian_formula(theta, grads, estimates, factors, lr, beta1, beta2, k,
                                      weight_decay, eps, hessian_ema)
        opt = AdaHessian(theta.size, lr, beta1=beta1, beta2=beta2, k=k,
                         weight_decay=weight_decay, eps=eps, hessian_ema=hessian_ema)
        assert_steps_match(opt, theta, list(zip(grads, estimates, factors)), *expected)


# Each optimizer with weight decay off and on, and AdaHessian without the
# curvature average and off numpy's power fast paths.
CONFIGS = [(kind, hyper) for kind in optim.optimizer_names()
           for hyper in ({}, {"weight_decay": 0.1})]
CONFIGS += [("sgd", {"momentum": 0.0}), ("adahessian", {"hessian_ema": False}),
            ("adahessian", {"k": 0.3, "weight_decay": 0.1})]
CONFIG_IDS = [kind + "".join(f"-{k}={v}" for k, v in hyper.items()) for kind, hyper in CONFIGS]
# AdaHessian's steps with a fresh estimate and with a reused one.
ALLOC_CASES = [pytest.param(kind, hyper, reuse, id=f"{name}-reused-Ds" if reuse else name)
               for (kind, hyper), name in zip(CONFIGS, CONFIG_IDS)
               for reuse in ((False, True) if kind == "adahessian" else (False,))]
# The arrays a step keeps: the theta it returns, and the second moment
# ema_square_update returns.
KEPT = {"sgd": 1, "adagrad": 1, "rmsprop": 2, "adam": 2, "adamw": 2, "adahessian": 2}


class TestStepsInPlace:
    @pytest.mark.parametrize("kind,hyper,reuse", ALLOC_CASES)
    def test_a_step_allocates_only_the_arrays_it_keeps(self, kind, hyper, reuse):
        dim = 100_000
        theta, grad, Ds = np.random.default_rng(0).standard_normal((3, dim))
        opt = make_optimizer(kind, dim, lr=0.01, **hyper)
        extra = {"Ds": Ds} if kind == "adahessian" else {}
        opt.step(theta, grad, **extra)  # the first step, and the constants' cache
        if reuse:
            extra = {}
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            opt.step(theta, grad, **extra)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before <= KEPT[kind] * theta.nbytes + 2**16

    @pytest.mark.parametrize("kind,hyper", CONFIGS, ids=CONFIG_IDS)
    def test_returned_thetas_share_no_memory(self, kind, hyper):
        # Callers keep earlier thetas: none may be state, scratch, an input
        # or another return, and none may change after it is returned.
        rng = np.random.default_rng(4)
        opt = make_optimizer(kind, 5, lr=0.01, **hyper)
        theta, returned = rng.standard_normal(5), []
        for t in range(4):
            grad = rng.standard_normal(5)
            extra = {"Ds": rng.standard_normal(5)} if kind == "adahessian" and t % 2 == 0 else {}
            new = opt.step(theta, grad, **extra)
            arrays = [x for x in vars(opt).values() if isinstance(x, np.ndarray)]
            for other in (*arrays, *(kept for kept, _ in returned), theta, grad,
                          *extra.values()):
                assert not np.shares_memory(new, other)
            returned.append((new, new.copy()))
            theta = new
        assert all(x.tobytes() == copy.tobytes() for x, copy in returned)


def _refusals():
    """(kind, warm, args, extra) of calls a step must refuse, on a fresh
    optimizer and, but for the missing first estimate, after a valid step."""
    ok, short = np.ones(3), np.ones(2)
    cases = [pytest.param("adahessian", False, (ok, ok), {}, id="adahessian-no-first-estimate")]
    for warm in (False, True):
        suffix = "-after-a-step" if warm else ""
        cases.append(pytest.param("adahessian", warm, (ok, ok), {"Ds": short},
                                  id=f"adahessian-Ds-shape{suffix}"))
        for kind in optim.optimizer_names():
            extra = {"Ds": ok} if kind == "adahessian" else {}
            for name, args in (("theta", (short, ok)), ("grad", (ok, short))):
                cases.append(pytest.param(kind, warm, args, extra,
                                          id=f"{kind}-{name}-shape{suffix}"))
    return cases


def _state(opt) -> dict:
    return {name: value.tobytes() if isinstance(value, np.ndarray) else value
            for name, value in vars(opt).items()}


class TestRefusedSteps:
    @pytest.mark.parametrize("kind,warm,args,extra", _refusals())
    def test_a_refused_step_changes_no_state(self, kind, warm, args, extra):
        theta, grad, Ds = np.random.default_rng(2).standard_normal((3, 3))
        valid = {"Ds": Ds} if kind == "adahessian" else {}
        opt, twin = (make_optimizer(kind, 3, lr=0.1, weight_decay=0.1) for _ in range(2))
        if warm:
            for o in (opt, twin):
                o.step(theta, grad, **valid)
        before = _state(opt)
        with pytest.raises(ValueError):
            opt.step(*args, **extra)
        assert _state(opt) == before  # t, the moments and last_Ds among them
        after = opt.step(theta, grad, **valid)
        assert after.tobytes() == twin.step(theta, grad, **valid).tobytes()


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
