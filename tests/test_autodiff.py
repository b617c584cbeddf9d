"""Tests for the reverse-mode tape: gradients, double backprop, stability."""

import numpy as np
import pytest

from hessopt import autodiff as ad
from hessopt.problems import DifferentiableProblem, get_problem


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


@pytest.mark.parametrize("create_graph", [True, False])
def test_cotangent_seed_equals_backpropagating_the_dot(create_graph):
    # The Hessian-vector product of sum(tanh(v)^3) both ways, with -0.0 in z.
    v = ad.variable([0.3, -1.2, 0.0, 2.5])
    (g,) = ad.backward(ad.tsum(ad.power(ad.tanh(v), 3.0)), [v])
    z = ad.constant([1.0, -0.0, -2.0, 0.5])
    (via_dot,) = ad.backward(ad.dot(g, z), [v], create_graph)
    (seeded,) = ad.backward(g, [v], create_graph, cotangent=z)
    assert seeded.data.tobytes() == via_dot.data.tobytes()


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


@pytest.mark.parametrize("shapes", [((3, 4), (4, 2)), ((3, 4), (4,)), ((3,), (3, 5))])
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
    with pytest.raises(ValueError):
        ad.matmul(ad.constant(np.zeros(3)), ad.constant(np.zeros(3)))


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


def test_operator_sugar_matches_functions():
    a = ad.variable(np.array([1.0, 2.0]))
    b = ad.constant(np.array([3.0, 4.0]))
    np.testing.assert_allclose((a + b).data, [4.0, 6.0])
    np.testing.assert_allclose((a * b).data, [3.0, 8.0])
    np.testing.assert_allclose((a - b).data, [-2.0, -2.0])
    np.testing.assert_allclose((-a).data, [-1.0, -2.0])
    np.testing.assert_allclose((a / b).data, [1 / 3, 0.5])
    np.testing.assert_allclose((a**2).data, [1.0, 4.0])
    np.testing.assert_allclose((2.0 * a).data, [2.0, 4.0])


def _mlp_hvp_tapes(create_graph):
    """Gradient and one HVP of tiny-mlp-relu's loss, the HVP pass with ``create_graph``."""
    problem = get_problem("tiny-mlp-relu")
    z = np.random.default_rng(5).choice([-1.0, 1.0], size=problem.dim)
    t = ad.variable(problem.theta0 + 0.1)
    loss = problem.build_loss(t, problem.sample_batch(1, 0))
    (g,) = ad.backward(loss, [t])
    (hz,) = ad.backward(ad.dot(g, ad.constant(z)), [t], create_graph=create_graph)
    (g_again,) = ad.backward(loss, [t], create_graph=create_graph)
    return g_again.data, hz.data


def test_no_graph_backward_is_bitwise_equal_to_default():
    for got, want in zip(_mlp_hvp_tapes(False), _mlp_hvp_tapes(True)):
        assert got.tobytes() == want.tobytes()

    def gradient(create_graph):
        x = ad.variable(np.array([0.3, -1.2, 2.0]))
        f = ad.tsum(ad.mul(ad.tanh(x), ad.softplus(ad.power(ad.square(x), 0.7))))
        return ad.backward(f, [x], create_graph=create_graph)[0].data

    assert gradient(False).tobytes() == gradient(True).tobytes()


def test_no_graph_backward_records_no_parents(monkeypatch):
    x = ad.variable(np.array([0.5, -1.0, 2.0]))
    loss = ad.tsum(ad.mul(ad.exp(x), ad.matmul(ad.constant(np.eye(3)), ad.tanh(x))))
    built = []
    plain_init = ad.Tensor.__init__

    def spy(self, *args, **kwargs):
        plain_init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(ad.Tensor, "__init__", spy)
    (g,) = ad.backward(loss, [x], create_graph=False)
    assert built and g in built
    assert all(n.parents == () and n.vjps == () and not n.needs_grad for n in built)
    del built[:]
    ad.backward(loss, [x])
    assert any(n.parents for n in built)


def test_graph_recording_resumes_after_a_no_graph_pass():
    x = ad.variable(np.array(2.0).reshape(()))
    f = ad.tsum(ad.power(ad.reshape(x, (1,)), 3.0))
    ad.backward(f, [x], create_graph=False)
    (g,) = ad.backward(f, [x])
    (h,) = ad.backward(ad.tsum(g), [x])
    (third,) = ad.backward(ad.tsum(h), [x])
    np.testing.assert_allclose([g.data, h.data, third.data], [12.0, 12.0, 6.0], rtol=1e-12)

    def failing_vjp(cot):
        raise RuntimeError("vjp failed")

    broken = ad.Tensor(x.data, (x,), (failing_vjp,), "broken")
    with pytest.raises(RuntimeError, match="vjp failed"):
        ad.backward(broken, [x], create_graph=False)
    assert ad.add(x, 1.0).needs_grad


class _SqrtProblem(DifferentiableProblem):
    """sum(theta ** exponent): finite at 0, with an infinite derivative there."""

    name = "sqrt"
    dim = 2

    def __init__(self, exponent):
        super().__init__()
        self.exponent = exponent

    def build_loss(self, theta, batch):
        return ad.tsum(ad.power(theta, self.exponent))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_gradient_under_finite_loss_names_its_op():
    problem = _SqrtProblem(0.5)
    assert problem.value(np.zeros(2)) == 0.0
    with pytest.raises(ad.NumericError, match=r"sqrt gradient \(produced by op 'pow-0.5'\)"):
        problem.value_and_gradient(np.zeros(2))
    # The HVP probe's own pass records no graph either; x^1.5 has a finite
    # value and gradient at 0 but an infinite second derivative.
    problem = _SqrtProblem(1.5)
    _, g, hvp = problem.full_tape(np.zeros(2))
    assert np.all(g == 0.0)
    with pytest.raises(ad.NumericError, match=r"sqrt hvp \(produced by op 'pow-0.5'\)"):
        hvp(np.ones(2))
