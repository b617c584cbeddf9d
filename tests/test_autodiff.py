"""Tests for the reverse-mode tape: gradients, double backprop, stability."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hessopt import autodiff as ad
from hessopt.problems import DifferentiableProblem, get_problem, problem_names


def numeric_grad(f, x, h=1e-6):
    """Central-difference gradient of a scalar function of a flat vector."""
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def grad_of(build, x):
    t = ad.variable(x)
    (g,) = ad.backward(build(t), [t])
    return g.data


@pytest.mark.parametrize(
    "build",
    [
        lambda t: ad.tsum(ad.exp(ad.mul(t, ad.constant(0.3)))),
        lambda t: ad.tsum(ad.log(ad.add(ad.square(t), ad.constant(1.5)))),
        lambda t: ad.tsum(ad.mul(ad.tanh(t), ad.sin(t))),
        lambda t: ad.tsum(ad.mul(ad.cos(t), t)),
        lambda t: ad.tsum(ad.power(ad.add(ad.square(t), ad.constant(0.5)), 0.7)),
        lambda t: ad.tsum(ad.softplus(t)),
        lambda t: ad.dot(t, ad.constant(np.arange(1.0, 6.0))),
        lambda t: ad.mean(ad.square(t)),
    ],
    ids=["exp", "log", "tanh-sin", "cos-x", "pow0.7", "softplus", "dot", "mean-square"],
)
def test_elementwise_gradients_match_finite_differences(build):
    rng = np.random.default_rng(0)
    x = rng.normal(size=5)
    got = grad_of(build, x)
    want = numeric_grad(lambda v: build(ad.constant(v)).item(), x)
    np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-8)


def test_variable_and_constant_flags():
    v = ad.variable([1.0, 2.0])
    c = ad.constant([1.0, 2.0])
    assert v.needs_grad and not c.needs_grad
    assert ad.add(v, c).needs_grad
    assert not ad.add(c, c).needs_grad


def test_backward_requires_scalar_output():
    v = ad.variable([1.0, 2.0])
    with pytest.raises(ValueError):
        ad.backward(ad.square(v), [v])


def test_cotangent_seed_equals_backpropagating_the_dot():
    # The Hessian-vector product of sum(tanh(v)^3) both ways, with -0.0 in z.
    v = ad.variable([0.3, -1.2, 0.0, 2.5])
    (g,) = ad.backward(ad.tsum(ad.power(ad.tanh(v), 3.0)), [v])
    z = ad.constant([1.0, -0.0, -2.0, 0.5])
    (via_dot,) = ad.backward(ad.dot(g, z), [v])
    (seeded,) = ad.backward(g, [v], cotangent=z)
    assert seeded.data.tobytes() == via_dot.data.tobytes()


def test_backward_from_several_outputs_equals_backpropagating_their_dots():
    # The gradients of a two-layer tanh network's weights share its hidden
    # layer, so one pass from both accumulates several cotangents into
    # shared nodes: the order it visits them in must be the dots'.
    rng = np.random.default_rng(0)
    X = ad.constant(rng.normal(size=(5, 3)))
    w1, w2 = ad.variable(rng.normal(size=12)), ad.variable(rng.normal(size=8))
    hidden = ad.tanh(ad.matmul(X, ad.reshape(w1, (3, 4))))
    g1, g2 = ad.backward(ad.tsum(ad.square(ad.matmul(hidden, ad.reshape(w2, (4, 2))))),
                         [w1, w2])
    z1, z2 = ad.constant(rng.normal(size=12)), ad.constant(rng.normal(size=8))
    via_dots = ad.backward(ad.add(ad.dot(g1, z1), ad.dot(g2, z2)), [w1, w2])
    seeded = ad.backward([g1, g2], [w1, w2], [z1, z2])
    assert [h.data.tobytes() for h in seeded] == [h.data.tobytes() for h in via_dots]


def test_backward_seeds_an_output_listed_twice_with_both_cotangents():
    # add hands its cotangent to both inputs, so a and b share one gradient node.
    a, b = ad.variable([0.5, -1.5]), ad.variable([2.0, 0.25])
    ga, gb = ad.backward(ad.tsum(ad.power(ad.add(a, b), 3.0)), [a, b])
    assert ga is gb
    za, zb = ad.constant([1.0, -2.0]), ad.constant([0.5, 3.0])
    via_dots = ad.backward(ad.add(ad.dot(ga, za), ad.dot(gb, zb)), [a, b])
    seeded = ad.backward([ga, gb], [a, b], [za, zb])
    assert [h.data.tobytes() for h in seeded] == [h.data.tobytes() for h in via_dots]


def test_backward_unreachable_leaf_gets_zero_cotangent():
    a = ad.variable([1.0, 2.0])
    b = ad.variable([3.0, 4.0])
    ga, gb = ad.backward(ad.tsum(ad.square(a)), [a, b])
    np.testing.assert_allclose(ga.data, [2.0, 4.0])
    np.testing.assert_allclose(gb.data, [0.0, 0.0])


def test_broadcast_add_reduces_cotangent():
    M = ad.variable(np.arange(6.0).reshape(2, 3))
    b = ad.variable(np.array([10.0, 20.0, 30.0]))
    out = ad.tsum(ad.mul(ad.add(M, b), ad.constant(np.array([[1.0, 2, 3], [4, 5, 6]]))))
    gM, gb = ad.backward(out, [M, b])
    np.testing.assert_allclose(gM.data, [[1, 2, 3], [4, 5, 6]])
    np.testing.assert_allclose(gb.data, [5.0, 7.0, 9.0])


@pytest.mark.parametrize("shapes", [((3, 4), (4, 2)), ((3, 4), (4,))])
def test_matmul_gradients(shapes):
    rng = np.random.default_rng(1)
    A = rng.normal(size=shapes[0])
    B = rng.normal(size=shapes[1])
    w = rng.normal(size=np.matmul(A, B).shape)

    def loss(a_val, b_val):
        return float(np.sum(np.matmul(a_val, b_val) * w))

    ta, tb = ad.variable(A), ad.variable(B)
    out = ad.tsum(ad.mul(ad.matmul(ta, tb), ad.constant(w)))
    ga, gb = ad.backward(out, [ta, tb])

    fa = numeric_grad(lambda v: loss(v.reshape(A.shape), B), A.ravel()).reshape(A.shape)
    fb = numeric_grad(lambda v: loss(A, v.reshape(B.shape)), B.ravel()).reshape(B.shape)
    np.testing.assert_allclose(ga.data, fa, rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(gb.data, fb, rtol=1e-6, atol=1e-8)


def test_matmul_rejects_unsupported_ranks():
    for shapes in [(3,), (3,)], [(3,), (3, 5)]:
        with pytest.raises(ValueError, match="matmul supports"):
            ad.matmul(*(ad.constant(np.zeros(shape)) for shape in shapes))


def _laid_out(rng, shape, layout):
    """A float64 array of ``shape`` in ``layout``, with entries of either sign
    and magnitude 1e-3 to 1e3."""
    def draw(size):
        return rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-3.0, 3.0, size)

    if len(shape) == 1:  # "strided" takes every third entry
        return draw(shape) if layout == "c" else draw(3 * shape[0])[::3]
    m, n = shape
    if layout == "c":
        return draw(shape)
    if layout == "transposed":
        return draw((n, m)).T
    if layout == "row-sliced":  # a row range: C-ordered inside a larger array
        return draw((m + 3, n))[1 : 1 + m]
    return draw((n + 3, m))[1 : 1 + n].T  # a row range, transposed: F-ordered


def _documented_layout(x: np.ndarray) -> bool:
    """What ``matmul``'s kernel is documented to take: any 1-D operand, and
    2-D operands that are C- or F-ordered."""
    return x.ndim == 1 or x.flags.c_contiguous or x.flags.f_contiguous


_LAYOUTS_2D = st.sampled_from(["c", "transposed", "row-sliced", "row-sliced-transposed"])
_SIDES = st.one_of(st.just(1), st.integers(1, 40))  # k = 1 is an outer product


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["2x2", "2x1"]), m=_SIDES, k=_SIDES, n=_SIDES,
       layouts=st.tuples(_LAYOUTS_2D, _LAYOUTS_2D, st.sampled_from(["c", "strided"])),
       seed=st.integers(0, 2**32 - 1))
@example(kind="2x2", m=256, k=1, n=8, layouts=("c", "c", "c"), seed=0)  # tiny-mlp's outer products
@example(kind="2x2", m=8, k=1, n=256, layouts=("c", "c", "c"), seed=0)
def test_dot_kernel_equals_matmul_bit_for_bit(kind, m, k, n, layouts, seed):
    rng = np.random.default_rng(seed)
    first, second, vector = layouts
    if kind == "2x2":
        a, b = _laid_out(rng, (m, k), first), _laid_out(rng, (k, n), second)
    else:
        a, b = _laid_out(rng, (m, k), first), _laid_out(rng, (k,), vector)
    assert _documented_layout(a) and _documented_layout(b)
    expected = np.matmul(a, b)
    assert a.dot(b).tobytes() == expected.tobytes()
    assert ad.matmul(ad.constant(a), ad.constant(b)).data.tobytes() == expected.tobytes()


_PRODUCT_CASES = [(name, None) for name in problem_names()] + [
    (name, 32) for name in ("logreg", "tiny-mlp", "tiny-mlp-relu")]


@pytest.mark.parametrize("name,batch_size", _PRODUCT_CASES,
                         ids=[f"{n}-{'full' if b is None else 'batch'}" for n, b in _PRODUCT_CASES])
def test_recorded_products_call_dot_on_documented_layouts(name, batch_size):
    """Every product a recorded gradient or probe program replays calls
    ``c_dot``, the C function behind ``np.dot``, into its node's array, never
    ``np.matmul``, on operands of the layout under which the two agree bit
    for bit."""
    problem = get_problem(name) if batch_size is None else get_problem(name, batch_size=batch_size)
    rng = np.random.default_rng(3)
    for t in (1, 2):  # records, then replays at another point and batch
        theta = problem.theta0 + 0.1 * rng.standard_normal(problem.dim)
        problem.full_tape(theta, problem.sample_batch(t, 5))[2](rng.standard_normal(problem.dim))
    (tape,) = problem._tapes.values()
    steps = tape.program.steps + tape.probe[0].steps
    # A product is only ever the c_dot kernel: no other step computes one.
    assert not any(f is np.matmul or f is np.ndarray.dot or f is np.dot
                   for kernel, args in steps for f in (kernel, *args))
    products = [args for kernel, args in steps if kernel is ad.c_dot]
    assert bool(products) == (name != "noisy-parabola")
    for a, b, out in products:
        assert _documented_layout(a) and _documented_layout(b), (a.strides, b.strides)
        assert out.flags.c_contiguous
        assert not (np.may_share_memory(out, a) or np.may_share_memory(out, b))


def test_narrow_embed_roundtrip_gradient():
    x = ad.variable(np.arange(8.0))
    middle = ad.narrow(x, 2, 3)  # picks indices 2..4
    out = ad.tsum(ad.mul(ad.square(middle), ad.constant(np.array([1.0, 2.0, 3.0]))))
    (g,) = ad.backward(out, [x])
    want = np.zeros(8)
    want[2:5] = 2 * np.arange(2.0, 5.0) * np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(g.data, want)


def test_relu_derivative_is_zero_at_zero_and_masks_negatives():
    x = ad.variable(np.array([-2.0, 0.0, 3.0]))
    (g,) = ad.backward(ad.tsum(ad.relu(x)), [x])
    np.testing.assert_allclose(g.data, [0.0, 0.0, 1.0])


def test_softplus_is_stable_and_has_sigmoid_derivative():
    x = ad.variable(np.array([-800.0, -1.0, 0.0, 1.0, 800.0]))
    sp = ad.softplus(x)
    assert np.all(np.isfinite(sp.data))
    np.testing.assert_allclose(sp.data[2], np.log(2.0), rtol=1e-15)
    np.testing.assert_allclose(sp.data[4], 800.0, rtol=1e-15)
    (g,) = ad.backward(ad.tsum(sp), [x])
    sig = 1.0 / (1.0 + np.exp(-np.clip(x.data, -700, 700)))
    np.testing.assert_allclose(g.data, sig, rtol=1e-12, atol=1e-15)


def test_logsumexp_rows_stable_and_gradient_is_softmax():
    L = ad.variable(np.array([[1000.0, 1001.0], [-3.0, 2.0]]))
    lse = ad.logsumexp_rows(L)
    assert np.all(np.isfinite(lse.data))
    np.testing.assert_allclose(lse.data[0], 1001.0 + np.log(1 + np.exp(-1.0)), rtol=1e-12)
    (g,) = ad.backward(ad.tsum(lse), [L])
    np.testing.assert_allclose(g.data.sum(axis=1), [1.0, 1.0], rtol=1e-12)
    assert np.all(g.data >= 0)


def test_second_backward_gives_exact_quadratic_hvp():
    rng = np.random.default_rng(2)
    M = rng.normal(size=(6, 6))
    A = 0.5 * (M + M.T)
    x0 = rng.normal(size=6)
    z = rng.normal(size=6)

    x = ad.variable(x0)
    f = ad.mul(ad.constant(0.5), ad.dot(x, ad.matmul(ad.constant(A), x)))
    (g,) = ad.backward(f, [x])
    np.testing.assert_allclose(g.data, A @ x0, atol=1e-12)
    (hz,) = ad.backward(ad.dot(g, ad.constant(z)), [x])
    np.testing.assert_allclose(hz.data, A @ z, atol=1e-12)


def test_second_backward_matches_analytic_second_derivative():
    # f(x) = sum(tanh(x)^2): f'' = 2(1 - t^2)(1 - 3t^2) with t = tanh(x)
    x0 = np.array([0.3, -1.2, 0.0])
    x = ad.variable(x0)
    f = ad.tsum(ad.square(ad.tanh(x)))
    (g,) = ad.backward(f, [x])
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1.0
        (hz,) = ad.backward(ad.dot(g, ad.constant(e)), [x])
        t = np.tanh(x0[i])
        want = 2 * (1 - t * t) * (1 - 3 * t * t)
        np.testing.assert_allclose(hz.data[i], want, rtol=1e-12)


def test_third_backward_of_cubic():
    # f(x) = x^3: f''' = 6 everywhere, via three chained backward passes
    x = ad.variable(np.array(2.0).reshape(()))
    x1 = ad.reshape(x, (1,))
    f = ad.tsum(ad.power(x1, 3.0))
    (g,) = ad.backward(f, [x])
    (h,) = ad.backward(ad.tsum(g), [x])
    (third,) = ad.backward(ad.tsum(h), [x])
    np.testing.assert_allclose(third.data, 6.0, rtol=1e-12)


def test_deep_chain_does_not_hit_recursion_limit():
    x = ad.variable(np.array([1.0]))
    y = x
    for _ in range(5000):
        y = ad.add(y, ad.constant(np.array([1.0])))
    (g,) = ad.backward(ad.tsum(y), [x])
    np.testing.assert_allclose(g.data, [1.0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_check_finite_names_the_offending_op():
    x = ad.variable(np.array([-1.0]))
    bad = ad.tsum(ad.log(x))  # log of a negative number
    with pytest.raises(ad.NumericError, match="log"):
        ad.check_finite(bad, "test loss")


def test_find_nonfinite_returns_none_for_healthy_graph():
    x = ad.variable(np.array([1.0, 2.0]))
    out = ad.tsum(ad.exp(x))
    assert ad.find_nonfinite(out) is None


def test_a_failing_vjp_raises_and_later_passes_still_record_a_graph():
    x = ad.variable(np.array(2.0).reshape(()))

    def failing_vjp(cot):
        raise RuntimeError("vjp failed")

    broken = ad.Tensor(np.positive, x, None, (failing_vjp,), "broken")
    with pytest.raises(RuntimeError, match="vjp failed"):
        ad.backward(broken, [x])
    assert ad.add(x, ad.constant(1.0)).needs_grad
    f = ad.tsum(ad.power(ad.reshape(x, (1,)), 3.0))
    (g,) = ad.backward(f, [x])
    (h,) = ad.backward(ad.tsum(g), [x])
    (third,) = ad.backward(ad.tsum(h), [x])
    np.testing.assert_allclose([g.data, h.data, third.data], [12.0, 12.0, 6.0], rtol=1e-12)


class _SqrtProblem(DifferentiableProblem):
    """sum(theta ** exponent): finite at 0, with an infinite derivative there."""

    name = "sqrt"
    dim = 2

    def __init__(self, exponent):
        super().__init__()
        self.exponent = exponent

    def loss(self, params):
        (theta,) = params
        return ad.tsum(ad.power(theta, self.exponent))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_gradient_under_finite_loss_names_its_op():
    problem = _SqrtProblem(0.5)
    assert problem.value(np.zeros(2)) == 0.0
    with pytest.raises(ad.NumericError, match=r"sqrt gradient \(produced by op 'pow-0.5'\)"):
        problem.value_and_gradient(np.zeros(2))
    # x^1.5 has a finite value and gradient at 0 but an infinite second
    # derivative, so the tape records and the probe raises.
    problem = _SqrtProblem(1.5)
    _, g, hvp = problem.full_tape(np.zeros(2))
    assert np.all(g == 0.0)
    with pytest.raises(ad.NumericError, match=r"sqrt hvp \(produced by op 'pow-0.5'\)"):
        hvp(np.ones(2))


_SPECIAL = [np.inf, -np.inf, np.nan, 0.0, -0.0, 1e308, -1e308, 1e200, 1.5e154]


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=6),
                  elements=st.one_of(st.sampled_from(_SPECIAL),
                                     st.floats(-1e308, 1e308, allow_nan=False))))
@example(np.array(1e308))  # a square that overflows though the entry is finite
@example(np.array([1e200, -1e200]))
@example(np.full((2, 3), 1.5e154))  # each square is finite, their sum is not
@example(np.array([1e308, np.nan]))
@example(np.empty((0, 3)))
@example(np.full((3, 8), -1e200)[:, ::2])  # strided, and its sum of squares overflows
def test_all_finite_is_the_entrywise_test(x):
    """Also warns of no overflow: pytest makes a ``RuntimeWarning`` an error."""
    expected = bool(np.isfinite(x).all())
    assert ad.all_finite(x) is expected
    if x.ndim == 2:
        assert ad.all_finite(x.T) is expected  # a layout ravel must copy
