"""Recorded tapes replayed at new points against fresh eager tapes.

A problem records one tape and its probe program once per batch shape and
afterwards replays them. A replay must leave every output
bit for bit equal to what a fresh eager tape over the parameter tensors at
the same point gives, signed zeros included, after the optimizations applied
when a recording ends, and with the cheaper kernels the ops call; where an
output is not finite, it must raise the NumericError a fresh recording
raises, without building a tape.
"""

import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hessopt import autodiff as ad
from hessopt.oracle import fd_gradient, fd_hvp
from hessopt.problems import DifferentiableProblem, get_problem, problem_names

DATA_PROBLEMS = ("logreg", "tiny-mlp", "tiny-mlp-relu")
CASES = [(name, False) for name in problem_names()] + [(name, True) for name in DATA_PROBLEMS]
SEEDS = st.integers(0, 2**32 - 1)


def eager(problem, theta, batch, probes=()):
    """Loss and gradient of a fresh eager tape, one variable per parameter
    tensor, and its HVP for each probe: the gradient backpropagated through
    the sum of each part's dot with its slice of the probe."""
    cuts = np.cumsum(problem.group_sizes)[:-1]
    params = [ad.variable(part) for part in np.split(theta, cuts)]
    loss = problem.loss(params, *map(ad.constant, problem.batch_inputs(batch)))
    grads = ad.backward(loss, params)

    def hvp(z):
        dots = [ad.dot(g, ad.constant(part)) for g, part in zip(grads, np.split(z, cuts))]
        return np.concatenate([h.data for h in ad.backward(functools.reduce(ad.add, dots),
                                                           params)])

    return loss.data, np.concatenate([g.data for g in grads]), [hvp(z) for z in probes]


def as_bytes(*arrays):
    return [np.asarray(a, dtype=np.float64).tobytes() for a in arrays]


def make_problem(name: str, batched: bool):
    if name in DATA_PROBLEMS:
        return get_problem(name, batch_size=32 if batched else None)
    return get_problem(name)


@pytest.mark.parametrize("name,batched", CASES,
                         ids=[f"{n}-{'batch' if b else 'full'}" for n, b in CASES])
@settings(max_examples=15, deadline=None)
@given(theta_seed=SEEDS, probe_seed=SEEDS, batch_seed=SEEDS)
def test_replays_equal_a_fresh_eager_tape(name, batched, theta_seed, probe_seed, batch_seed):
    problem = make_problem(name, batched)
    rng = np.random.default_rng(theta_seed)
    probes = np.random.default_rng(probe_seed).standard_normal((3, problem.dim))
    # The first calls record, at their own point and batch; the rest replay.
    problem.value_and_gradient(problem.theta0, problem.sample_batch(0, batch_seed))
    problem.full_tape(problem.theta0, problem.sample_batch(0, batch_seed))[2](probes[0])
    for t in (1, 2):
        theta = problem.theta0 + 0.5 * rng.standard_normal(problem.dim)
        batch = problem.sample_batch(t, batch_seed)
        loss, g, hvps = eager(problem, theta, batch, probes[1:])
        assert as_bytes(*problem.value_and_gradient(theta, batch)) == as_bytes(loss, g)
        tape_loss, tape_g, hvp = problem.full_tape(theta, batch)
        assert as_bytes(tape_loss, tape_g) == as_bytes(loss, g)
        assert as_bytes(*[hvp(z) for z in probes[1:]]) == as_bytes(*hvps)


def test_an_earlier_hvp_keeps_its_own_point():
    problem = get_problem("tiny-mlp")
    rng = np.random.default_rng(5)
    z = rng.standard_normal(problem.dim)
    points = [(problem.theta0 + 0.3 * rng.standard_normal(problem.dim),
               problem.sample_batch(t, 0)) for t in (1, 2, 3)]
    hvps = [problem.full_tape(theta, batch)[2] for theta, batch in points[:2]]
    hvps[0](z)
    hvps.append(problem.full_tape(*points[2])[2])
    # Every full_tape call after the first replayed the same recorded tape.
    for hvp, (theta, batch) in zip(hvps, points):
        want = as_bytes(*eager(problem, theta, batch, [z, -z])[2])
        assert as_bytes(hvp(z), hvp(-z)) == want


@pytest.mark.parametrize("name", problem_names())
def test_a_tape_keeps_its_own_copy_of_theta(name):
    # Changing theta in place after full_tape changes nothing the hvp reads:
    # its first probe, replayed after the change, is still the HVP at the
    # tape's point.
    problem = get_problem(name)
    rng = np.random.default_rng(7)
    theta = problem.theta0 + 0.3 * rng.standard_normal(problem.dim)
    z = rng.standard_normal(problem.dim)
    want = get_problem(name).hvp(theta, z)
    _, _, hvp = problem.full_tape(theta)
    theta += 1.0
    assert as_bytes(hvp(z)) == as_bytes(want)


def test_a_stale_hvp_replays_back_to_its_own_copies_of_theta_and_batch():
    problem = get_problem("tiny-mlp")
    rng = np.random.default_rng(8)
    theta = problem.theta0 + 0.3 * rng.standard_normal(problem.dim)
    batch = problem.sample_batch(1, 0)
    z = rng.standard_normal(problem.dim)
    want = get_problem("tiny-mlp").hvp(theta, z, batch)
    _, _, hvp = problem.full_tape(theta, batch)
    # The caller reuses both arrays for another point, which moves the tape.
    theta += 1.0
    batch[:] = problem.sample_batch(2, 0)
    problem.gradient(theta, batch)
    assert as_bytes(hvp(z)) == as_bytes(want)


class _Power(DifferentiableProblem):
    """sum(theta ** exponent)."""

    name = "sqrt"
    dim = 2

    def __init__(self, exponent):
        super().__init__()
        self.exponent = exponent

    def loss(self, params):
        (theta,) = params
        return ad.tsum(ad.power(theta, self.exponent))


def no_tape_built():
    """Make any backward pass, which every tape built has, fail the test."""
    return mock.patch.object(ad, "backward", side_effect=AssertionError("a tape was built"))


class _TwoTensors(DifferentiableProblem):
    """Two parameter tensors, each taken through a curve and dotted with a
    vector holding -0.0."""

    name = "two-tensors"
    dim = 4

    def __init__(self):
        super().__init__()
        self.group_sizes = [2, 2]

    def loss(self, params):
        c = ad.constant([-0.0, 1.5])
        return ad.add(ad.dot(ad.tanh(params[0]), c), ad.dot(ad.square(params[1]), c))


def test_joined_parts_keep_their_signed_zeros():
    # The first entry of each part of the gradient and of the HVP is -0.0;
    # joining the parts keeps every one of them, as the eager tape over the
    # parameter tensors has them.
    problem = _TwoTensors()
    z = np.array([1.0, -1.0, 0.5, 2.0])
    for theta in (np.array([-0.3, -0.2, 0.7, 1.1]), np.array([-0.4, 0.9, 0.5, -2.0])):
        loss, g, hvps = eager(problem, theta, None, [z])
        tape_loss, tape_g, hvp = problem.full_tape(theta)
        hz = hvp(z)
        assert as_bytes(tape_loss, tape_g, hz) == as_bytes(loss, g, *hvps)
        assert np.signbit(tape_g[[0, 2]]).all() and np.signbit(hz[[0, 2]]).all()


@pytest.mark.parametrize("name", problem_names())
def test_no_call_narrows_a_flat_theta(name):
    # Every tape, recorded or eager, reads the parameter tensors as leaves of
    # their own.
    problem = get_problem(name)
    theta = problem.theta0 + 0.1
    batch = problem.sample_batch(1, 0)
    with mock.patch.object(ad, "narrow", side_effect=AssertionError("theta was narrowed")):
        problem.value(theta, batch)
        problem.value_and_gradient(theta, batch)
        problem.full_tape(theta, batch)[2](np.ones(problem.dim))
        problem.relu_inputs(theta, batch)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_replays_raise_naming_the_op():
    problem = _Power(0.5)
    with pytest.raises(ad.NumericError, match=r"sqrt gradient \(produced by op 'pow-0.5'\)"):
        problem.value_and_gradient(np.zeros(2))
    # The failed recording was not kept: this call records afresh.
    assert problem.value_and_gradient(np.ones(2))[0] == 2.0
    with no_tape_built(), pytest.raises(
            ad.NumericError, match=r"sqrt gradient \(produced by op 'pow-0.5'\)"):
        problem.value_and_gradient(np.zeros(2))
    np.testing.assert_array_equal(problem.gradient(np.full(2, 4.0)), [0.25, 0.25])

    # x^1.5 has a finite value and gradient at 0 but an infinite second
    # derivative: the replayed tape is finite and the replayed probe is not.
    problem = _Power(1.5)
    problem.full_tape(np.ones(2))[2](np.ones(2))
    _, g, hvp = problem.full_tape(np.zeros(2))
    assert np.all(g == 0.0)
    with no_tape_built(), pytest.raises(
            ad.NumericError, match=r"sqrt hvp \(produced by op 'pow-0.5'\)"):
        hvp(np.ones(2))
    np.testing.assert_array_equal(problem.full_tape(np.full(2, 4.0))[2](np.ones(2)),
                                  [0.375, 0.375])


def test_a_gradient_where_the_hvp_is_singular_warns_of_nothing():
    # x^1.5 has a finite gradient at 0 and an infinite second derivative.
    # The tape records its probe with the gradient, at z = 0, where the
    # probe divides by zero; no RuntimeWarning reaches a first-order call,
    # and a probe that runs still warns and raises naming the op.
    problem = _Power(1.5)
    loss, g = problem.value_and_gradient(np.zeros(2))
    assert loss == 0.0 and np.all(g == 0.0)
    _, _, hvp = problem.full_tape(np.zeros(2))
    with pytest.warns(RuntimeWarning, match="divide by zero"), pytest.raises(
            ad.NumericError, match=r"sqrt hvp \(produced by op 'pow-0.5'\)"):
        hvp(np.ones(2))


# Random compositions of smooth ops. Every op keeps its input clear of its
# singularities (log sees 1 + e^2, powers see tanh(e)^2 + 0.5), and no op
# grows faster than linearly, so values stay small enough for finite
# differences at the oracle's tolerances.
D = 4
MIX = ad.constant(np.linspace(-0.6, 0.6, D * D).reshape(D, D))
WEIGHTS = ad.constant(np.linspace(0.5, 1.5, D))
ROWS = np.linspace(-1.0, 1.0, 3 * D).reshape(3, D)

UNARY = {
    "tanh": ad.tanh,
    "sin": ad.sin,
    "cos": ad.cos,
    "exp-sin": lambda e: ad.exp(ad.sin(e)),
    "softplus": ad.softplus,
    "neg": ad.neg,
    "scale": lambda e: ad.mul(e, 0.7),
    "log1p-square": lambda e: ad.log(ad.add(ad.square(e), 1.0)),
    "square-tanh": lambda e: ad.square(ad.tanh(e)),
    "mix": lambda e: ad.matmul(MIX, e),
    "shift": lambda e: ad.embed(ad.narrow(e, 1, D - 1), 0, D),
    # Slices of e put back by embeds that tile it, in two orders: the
    # forward sum, and the cotangent of e, are add chains of embeds.
    "tile": lambda e: ad.add(ad.add(ad.embed(ad.tanh(ad.narrow(e, 0, 1)), 0, D),
                                    ad.embed(ad.narrow(e, 1, 2), 1, D)),
                             ad.embed(ad.sin(ad.narrow(e, 3, 1)), 3, D)),
    "tile-reversed": lambda e: ad.add(ad.embed(ad.narrow(e, 2, 2), 2, D),
                                      ad.embed(ad.mul(ad.narrow(e, 0, 2), -0.0), 0, D)),
    # Axis-0 sums of a C-contiguous (3, D) matrix, forward and backward.
    "rows": lambda e: ad.tsum(ad.mul(ad.constant(ROWS), ad.reshape(e, (1, D))), axis=0),
    # Constants made in the recording: a step folded from them, and one
    # made twice so that both products are one merged step.
    "fold": lambda e: ad.mul(e, ad.exp(ad.tanh(ad.constant(0.4)))),
    "twice": lambda e: ad.add(ad.mul(e, 0.5), ad.mul(e, 0.5)),
    **{f"pow{p:g}": (lambda p: lambda e: ad.power(ad.add(ad.square(ad.tanh(e)), 0.5), p))(p)
       for p in (0.5, -1.0, 1.5, 0.7)},
}
BINARY = {
    "add": ad.add,
    "sub": ad.sub,
    "mul": lambda a, b: ad.mul(ad.tanh(a), b),
    "div": lambda a, b: ad.div(a, ad.add(ad.square(b), 1.0)),
}
REDUCE = {
    "sum": ad.tsum,
    "mean": ad.mean,
    "dot": lambda e: ad.dot(e, WEIGHTS),
    "logsumexp": lambda e: ad.tsum(ad.logsumexp_rows(ad.reshape(e, (2, D // 2)))),
}

EXPRESSIONS = st.recursive(
    st.just("x"),
    lambda inner: (st.tuples(st.sampled_from(sorted(UNARY)), inner)
                   | st.tuples(st.sampled_from(sorted(BINARY)), inner, inner)),
    max_leaves=5,
)
POINTS = st.lists(st.floats(-2.0, 2.0), min_size=D, max_size=D).map(np.array)


def evaluate(expr, x):
    if expr == "x":
        return x
    if len(expr) == 2:
        return UNARY[expr[0]](evaluate(expr[1], x))
    return BINARY[expr[0]](evaluate(expr[1], x), evaluate(expr[2], x))


class _Composed(DifferentiableProblem):
    name = "composed"
    dim = D

    def __init__(self, expr, reduce):
        super().__init__()
        self.expr, self.reduce = expr, reduce

    def loss(self, params):
        (theta,) = params
        return REDUCE[self.reduce](evaluate(self.expr, theta))


@settings(max_examples=80, deadline=None)
@given(expr=EXPRESSIONS, reduce=st.sampled_from(sorted(REDUCE)),
       first=POINTS, second=POINTS, third=POINTS, probe_seed=SEEDS)
# The gradient's first two entries are -0.0 in every embed, +0.0 once summed.
@example(expr=("tile-reversed", "x"), reduce="sum", first=np.ones(D), second=np.ones(D),
         third=np.ones(D), probe_seed=0)
def test_random_compositions_replay_bit_for_bit_and_match_finite_differences(
        expr, reduce, first, second, third, probe_seed):
    problem = _Composed(expr, reduce)
    probes = np.random.default_rng(probe_seed).standard_normal((3, D))
    problem.value_and_gradient(first)
    problem.full_tape(first)
    for theta in (third, second):
        loss, g, hvps = eager(problem, theta, None, probes[1:])
        assert as_bytes(*problem.value_and_gradient(theta)) == as_bytes(loss, g)
        tape_loss, tape_g, hvp = problem.full_tape(theta)
        assert (as_bytes(tape_loss, tape_g, *[hvp(z) for z in probes[1:]])
                == as_bytes(loss, g, *hvps))
    # The oracle's tolerances: absolute for gradients, relative for HVPs.
    assert np.abs(g - fd_gradient(problem, second)).max() <= 1e-5
    fd = fd_hvp(problem, second, probes[1])
    assert np.abs(hvps[0] - fd).max() <= 1e-5 * max(1.0, np.abs(hvps[0]).max())


def test_equal_constants_merge_only_with_equal_bits():
    # x * 0.0 and x * -0.0 differ where x < 0; one must not replace the other.
    program = ad.Program()
    x = ad.constant(np.array([-1.0, 2.0]))
    with program.recording():
        plus, minus = ad.mul(x, 0.0), ad.mul(x, -0.0)
        again = ad.mul(x, 0.0)
    x.data[...] = [3.0, -4.0]
    program.replay()
    assert as_bytes(plus.data, minus.data, again.data) == as_bytes(
        [0.0, -0.0], [-0.0, 0.0], [0.0, -0.0])
    assert [kernel for kernel, _ in program.steps].count(np.multiply) == 2


def test_a_later_program_of_a_recording_reuses_the_first_ones_steps():
    x = ad.constant(np.array([0.3, -0.7]))
    tape = ad.Program()
    with tape.recording() as next_program:
        y = ad.tanh(x)
        probe = next_program()
        out = ad.mul(ad.tanh(x), y)
    # The second program takes the tanh from the first and replays after it.
    assert [kernel for kernel, _ in tape.steps] == [np.tanh]
    assert [kernel for kernel, _ in probe.steps] == [np.multiply]
    x.data[...] = [1.5, 2.0]
    tape.replay()
    probe.replay()
    assert out.data.tobytes() == (np.tanh(x.data) * np.tanh(x.data)).tobytes()


@pytest.mark.parametrize("name,counts", [("tiny-mlp", (19, 26)), ("logreg", (19, 14)),
                                         ("tiny-mlp-relu", (29, 29))])
def test_optimized_programs_keep_their_step_counts(name, counts):
    """Steps left to replay on the full batch: the tape and its probe. A
    rewrite that stops firing shows here before it shows as time."""
    problem = get_problem(name, batch_size=None)
    problem.value_and_gradient(problem.theta0)
    problem.full_tape(problem.theta0)[2](np.ones(problem.dim))
    tape = problem._tapes[None]
    assert (len(tape.program.steps), len(tape.probe[0].steps)) == counts


def test_one_tape_per_batch_shape():
    problem = get_problem("tiny-mlp", batch_size=32)
    z = np.ones(problem.dim)
    for batch in (problem.sample_batch(1, 0), None, problem.sample_batch(2, 0)):
        problem.value_and_gradient(problem.theta0, batch)
        problem.full_tape(problem.theta0, batch)[2](z)
    assert sorted(problem._tapes, key=str) == [(32,), None]
    assert all(tape.probe is not None for tape in problem._tapes.values())


def recorded_tape(problem, batch_seed=0):
    """The problem's tape for its batch shape, recorded with its probe."""
    batch = problem.sample_batch(0, batch_seed)
    problem.full_tape(problem.theta0, batch)[2](np.ones(problem.dim))
    return problem._tapes[None if batch is None else batch.shape]


def reachable(outputs):
    """Every node the outputs were computed from, by their parents."""
    seen, stack = set(), list(outputs)
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(node.parents)
    return seen


DATA_CASES = [(name, batched) for name in DATA_PROBLEMS for batched in (False, True)]
DATA_IDS = [f"{n}-{'batch' if b else 'full'}" for n, b in DATA_CASES]


@pytest.mark.parametrize("name,batched", DATA_CASES, ids=DATA_IDS)
def test_replays_keep_every_node_array_and_equal_eager(name, batched):
    # A replay writes into the arrays its recording made: no node of the
    # loss, the gradient or the HVP is handed another array.
    problem = make_problem(name, batched)
    tape = recorded_tape(problem)
    nodes = reachable([tape.loss, *tape.grads, *tape.probe[1]])
    arrays = {node: node.data for node in nodes}
    rng = np.random.default_rng(12)
    z = rng.standard_normal(problem.dim)
    for t in (1, 2):
        theta = problem.theta0 + 0.5 * rng.standard_normal(problem.dim)
        batch = problem.sample_batch(t, 3)
        loss, g, hvps = eager(problem, theta, batch, [z])
        assert as_bytes(*problem.value_and_gradient(theta, batch)) == as_bytes(loss, g)
        tape_loss, tape_g, hvp = problem.full_tape(theta, batch)
        assert as_bytes(tape_loss, tape_g, hvp(z)) == as_bytes(loss, g, *hvps)
        assert all(node.data is array for node, array in arrays.items())


def written(kernel, args):
    """The array a replayed step writes into."""
    if type(kernel) is functools.partial:
        return kernel.keywords["out"]
    arrays = [arg for arg in args if isinstance(arg, np.ndarray)]
    return arrays[0] if kernel in (ad.c_copyto, ad._copy_into) else arrays[-1]


@pytest.mark.parametrize("name,batched", CASES,
                         ids=[f"{n}-{'batch' if b else 'full'}" for n, b in CASES])
def test_no_replayed_step_remakes_a_view_or_an_alias(name, batched):
    # Views and merged repeats are bound once when a recording ends. Every
    # step left writes an array of its own that none of its inputs shares,
    # and at full batch none reads only the batch arrays, which never change
    # there (the transposes of X were rerun on every call).
    tape = recorded_tape(make_problem(name, batched))
    steps = tape.program.steps + tape.probe[0].steps
    outs = [written(kernel, args) for kernel, args in steps]
    assert len(set(map(id, outs))) == len(outs)
    for (kernel, args), out in zip(steps, outs):
        assert kernel is not ad._copy_into, args[1]
        inputs = [arg for arg in args if isinstance(arg, np.ndarray) and arg is not out]
        assert not any(np.may_share_memory(out, x) for x in inputs), kernel
        if not batched:
            assert not all(any(np.may_share_memory(x, leaf.data) for leaf in tape.inputs)
                           for x in inputs), kernel


@pytest.mark.parametrize("batched", [False, True], ids=["full", "batch"])
def test_an_hvp_keeps_its_point_across_a_gradient_on_the_same_tape(batched):
    problem = make_problem("tiny-mlp", batched)
    rng = np.random.default_rng(9)
    z = rng.standard_normal(problem.dim)
    theta1, theta2 = (problem.theta0 + 0.3 * rng.standard_normal(problem.dim)
                      for _ in range(2))
    batch1, batch2 = problem.sample_batch(1, 0), problem.sample_batch(2, 0)
    problem.full_tape(theta2, batch2)[2](z)  # record the tape and its probe
    hvp = problem.full_tape(theta1, batch1)[2]
    # This replays the tape that hvp reads at theta2 and batch2.
    problem.value_and_gradient(theta2, batch2)
    want = as_bytes(*eager(problem, theta1, batch1, [z])[2])
    with no_tape_built():  # hvp replays the tape back to theta1 and batch1
        assert as_bytes(hvp(z)) == want


def outcomes(problem, theta, z):
    """The bytes of ``value_and_gradient`` and then of an HVP at ``theta``,
    or the message and phase of the NumericError each raised."""
    results = []
    for call in (lambda: problem.value_and_gradient(theta),
                 lambda: [problem.full_tape(theta)[2](z)]):
        try:
            results.append(as_bytes(*call()))
        except ad.NumericError as exc:
            results.append((str(exc), exc.phase))
    return results


# Finite points and points where ops overflow: exp at 710, squares at 1e155
# and 1e300, and infinities.
EXTREMES = [s * v for v in (710.0, 1e155, 1e300, np.inf) for s in (1.0, -1.0)]
EXTREME_POINTS = st.lists(st.floats(-2.0, 2.0) | st.sampled_from(EXTREMES),
                          min_size=D, max_size=D).map(np.array)


@settings(max_examples=80, deadline=None)
@given(expr=EXPRESSIONS, reduce=st.sampled_from(sorted(REDUCE)), first=POINTS,
       points=st.lists(EXTREME_POINTS, min_size=1, max_size=3), probe_seed=SEEDS)
# One failure of each phase: the loss, the gradient, and the HVP.
@example(expr=("log1p-square", "x"), reduce="sum", first=np.zeros(D),
         points=[np.array([1e155, 0.0, 0.0, 0.0])], probe_seed=0)
@example(expr=("div", "x", ("log1p-square", "x")), reduce="dot", first=np.zeros(D),
         points=[np.array([0.0, 0.0, 0.0, 1e155])], probe_seed=0)
@example(expr=("div", "x", "x"), reduce="sum", first=np.zeros(D),
         points=[np.array([1e155, 0.0, 0.0, 0.0])], probe_seed=0)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_replay_names_the_op_as_a_fresh_recording_does(expr, reduce, first, points,
                                                        probe_seed):
    replayed = _Composed(expr, reduce)
    replayed.full_tape(first)[2](np.ones(D))  # record the tape and its probe
    z = np.random.default_rng(probe_seed).standard_normal(D)
    for theta in points:
        assert outcomes(replayed, theta, z) == outcomes(_Composed(expr, reduce), theta, z)


# Arrays with every kind of float64: signed zeros, infinities, NaN,
# subnormals and magnitudes across the whole range.
FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True, width=64)
# numpy's scalar-power fast paths, and exponents that take np.power.
POWERS = (2.0, -1.0, 0.5, 1.0, 0.0, -2.0, 1.5)
# Minibatch-sized inputs, where a row sum adds 32 or 256 rows.
_wide = np.random.default_rng(5)
BATCHES = [_wide.standard_normal((rows, 3)) * 10.0 ** _wide.uniform(-3, 3, (rows, 3))
           for rows in (32, 256)]


@settings(max_examples=200, deadline=None)
@given(x=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, max_side=5),
                    elements=FLOATS))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_power_kernels_equal_the_operator_bit_for_bit(x):
    for p, ufunc in ad._POWER_UFUNCS.items():
        assert ufunc(x).tobytes() == (x**p).tobytes()
    for p in POWERS:
        assert ad.power(ad.constant(x), p).data.tobytes() == np.asarray(x**p).tobytes()


@settings(max_examples=200, deadline=None)
@given(x=hnp.arrays(np.float64, st.tuples(st.integers(0, 40), st.integers(2, 9)),
                    elements=FLOATS),
       layout=st.sampled_from(["C", "F", "strided", "transposed"]))
@example(x=BATCHES[0], layout="C")
@example(x=BATCHES[0], layout="F")
@example(x=BATCHES[1], layout="C")
@example(x=BATCHES[1], layout="transposed")
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_row_sum_kernel_equals_sum_bit_for_bit(x, layout):
    if layout == "F":
        x = np.asfortranarray(x)
    elif layout == "strided":
        x = np.repeat(x, 2, axis=1)[:, ::2]
    elif layout == "transposed":
        x = np.ascontiguousarray(x.T).T
    want = x.sum(axis=0).tobytes()
    if x.flags.c_contiguous:
        assert ad._sum_rows(x).tobytes() == want
        assert np.einsum("ij->j", x).tobytes() == want
    else:
        # einsum's bits differ on these layouts; the kernel must keep sum.
        with mock.patch.object(ad, "c_einsum", side_effect=AssertionError("einsum called")):
            assert ad._sum_rows(x).tobytes() == want
    assert ad.tsum(ad.constant(x), axis=0).data.tobytes() == want


def laid_out(x: np.ndarray, layout: str) -> np.ndarray:
    """``x``'s values in a C-ordered, F-ordered or strided array."""
    if layout == "F":
        return np.asfortranarray(x)
    if layout == "strided":
        wide = np.empty((x.shape[0], 2 * x.shape[1]))
        wide[:, ::2] = x
        return wide[:, ::2]
    return np.ascontiguousarray(x)


def step_calls(x: np.ndarray, y: np.ndarray):
    """Each step function an op records, with inputs shaped as the op gives
    them, over the (r, c) arrays x and y."""
    r, c = x.shape
    unary = [np.negative, np.exp, np.log, np.tanh, np.sin, np.cos, ad._positive,
             ad._clip_negative, ad._row_max, ad._sum_rows, ad._summer(None), ad._summer((0,)),
             ad._summer((1,)), ad._broadcaster((2, r, c)), ad._reshaper((c, r)),
             *map(ad._power_kernel, POWERS)]
    scalar_x, scalar_y = np.asarray(x[0, 0]), np.asarray(y[-1, -1])
    return ([(fn, (x,)) for fn in unary]
            + [(fn, (x, y)) for fn in (np.add, np.subtract, np.multiply)]
            + [(np.multiply, (scalar_x, scalar_y)), (np.log, (scalar_x,)),
               (ad._embedder(1, c + 2), (x[0],)), (np.ndarray.dot, (x, y.T)),
               (np.ndarray.dot, (x, y[0])), (np.ndarray.dot, (x[:, 0], y))])


SPECIALS = np.array([[-0.0, np.inf, -np.inf], [np.nan, 0.0, -2.5]])


@settings(max_examples=150, deadline=None)
@given(x=hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(2, 4)),
                    elements=FLOATS),
       layout=st.sampled_from(["C", "F", "strided"]))
@example(x=SPECIALS, layout="C")
@example(x=SPECIALS, layout="F")
@example(x=SPECIALS, layout="strided")
@example(x=BATCHES[0], layout="C")
@example(x=BATCHES[0], layout="F")
@example(x=BATCHES[1], layout="C")
@example(x=BATCHES[1], layout="strided")
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_in_place_kernels_equal_their_step_functions_bit_for_bit(x, layout):
    x, y = laid_out(x, layout), laid_out(x[::-1, ::-1] * -0.5, layout)
    for fn, inputs in step_calls(x, y):
        want = np.asarray(fn(*inputs), dtype=np.float64)  # what a node holds
        out = np.full_like(want, 7.0)
        kernel, args = ad._kernel(fn, out, *(*inputs, None)[:2])
        kernel(*args)
        assert out.tobytes() == want.tobytes(), fn


@pytest.mark.parametrize("name,batched", CASES,
                         ids=[f"{n}-{'batch' if b else 'full'}" for n, b in CASES])
def test_no_replayed_kernel_takes_a_python_float(name, batched):
    # numpy converts a Python float operand on every call; a 0-d array
    # holding the same value gives the same bits without that cost.
    tape = recorded_tape(make_problem(name, batched))
    for kernel, args in tape.program.steps + tape.probe[0].steps:
        if type(kernel) is functools.partial:
            args = (*kernel.args, *kernel.keywords.values(), *args)
        assert not any(type(arg) is float for arg in args), kernel


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_views_bound_once_follow_their_input(layout):
    # Transposes, reshapes (a view, or a copy for a strided input), slices
    # and the row max's first column, over a leaf rewritten in place.
    leaf = ad.constant(laid_out(np.arange(6.0).reshape(2, 3), layout))

    def views(x):
        flat = ad.reshape(x, (6,))
        return [ad.transpose(x), ad.reshape(ad.transpose(x), (2, 3)), flat,
                ad.narrow(flat, 1, 4), ad.logsumexp_rows(x)]

    program = ad.Program()
    with program.recording():
        outputs = views(leaf)
    leaf.data[...] = SPECIALS
    program.replay()
    want = views(ad.constant(leaf.data.copy()))
    assert as_bytes(*[o.data for o in outputs]) == as_bytes(*[w.data for w in want])


def test_a_view_of_a_merged_repeat_follows_the_first():
    # The views were recorded over the repeat's own array; they are bound
    # again over the first's, and the repeat's step is gone.
    leaf = ad.constant(np.arange(6.0).reshape(2, 3))
    program = ad.Program()
    with program.recording():
        first, repeat = ad.tanh(leaf), ad.tanh(leaf)
        views = [ad.transpose(repeat), ad.reshape(repeat, (6,))]
    assert [kernel for kernel, _ in program.steps] == [np.tanh]
    leaf.data[...] = SPECIALS
    program.replay()
    assert repeat.data is first.data
    want = np.tanh(SPECIALS)
    assert as_bytes(*[v.data for v in views]) == as_bytes(want.T, want.reshape(6))
