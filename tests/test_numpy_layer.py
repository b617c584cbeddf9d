"""The paths hessopt repeats call numpy's C entry points, not its Python layer.

``np.dot``, ``np.vdot``, ``np.copyto`` and ``np.concatenate`` are dispatchers:
each call runs a Python function before the C one, and ``ndarray.sum``,
``.max`` and ``np.diag`` are Python wrappers. On every path that runs once
per iteration, replay or descent check, hessopt calls the C function itself.
A profile hook counts the numpy Python functions a call enters; on those
paths it must count none. The C functions must give the public calls' bits.
"""

import os
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hessopt import autodiff as ad
from hessopt import oracle
from hessopt.harness import _iterate
from hessopt.hutchinson import HutchinsonConfig, probe_keys, probe_pass
from hessopt.optim import BlockSpec, make_optimizer, make_schedule
from hessopt.problems import get_problem, make_random_spd_quadratic, problem_names

NUMPY_DIR = os.path.dirname(np.__file__) + os.sep
DATA_PROBLEMS = ("logreg", "tiny-mlp", "tiny-mlp-relu")
CASES = [(name, None) for name in problem_names()] + [(name, 32) for name in DATA_PROBLEMS]
IDS = [f"{n}-{'full' if b is None else 'batch'}" for n, b in CASES]


def numpy_frames(call) -> list[str]:
    """Run ``call()`` and return the names of the numpy Python functions it entered."""
    entered = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(NUMPY_DIR):
            entered.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return entered


def make_problem(name: str, batch_size: int | None):
    if name in DATA_PROBLEMS:
        return get_problem(name, batch_size=batch_size)
    return get_problem(name)


@pytest.mark.parametrize("name,batch_size", CASES, ids=IDS)
def test_a_replayed_gradient_and_probe_enter_no_numpy_python(name, batch_size):
    problem = make_problem(name, batch_size)
    rng = np.random.default_rng(5)
    points = [problem.theta0 + 0.1 * rng.standard_normal(problem.dim) for _ in range(2)]
    batches = [problem.sample_batch(t, 0) for t in (1, 2)]
    z = rng.standard_normal(problem.dim)
    problem.full_tape(points[0], batches[0])[2](z)  # records the tape and its probe

    def replay():
        problem.value_and_gradient(points[0], batches[0])
        problem.full_tape(points[1], batches[1])[2](z)

    assert numpy_frames(replay) == []


@pytest.mark.parametrize("name,batch_size,block_size",
                         [("tiny-mlp", None, 4), ("tiny-mlp-relu", 32, 2), ("logreg", 32, 1)])
def test_optimizer_iterations_enter_no_numpy_python(name, batch_size, block_size):
    problem = make_problem(name, batch_size)
    schedule = make_schedule("constant")
    theta = problem.theta0
    cfg = HutchinsonConfig(samples_per_estimate=2)
    due = [True, True, False]
    probes = (cfg, due, probe_pass(probe_keys(0, [1, 2]), 2, problem.dim))
    ada = make_optimizer("adahessian", problem.dim, group_sizes=problem.group_sizes, lr=0.01,
                         block_size=block_size)
    sgd = make_optimizer("sgd", problem.dim, lr=0.01, momentum=0.9)
    batches = [problem.sample_batch(t, 0) for t in (1, 2, 3)]
    state = {"ada": theta, "sgd": theta}

    def ada_step(t):
        state["ada"] = _iterate(problem, ada, schedule, probes, state["ada"], batches[t - 1], t)[0]

    def sgd_step(t):
        state["sgd"] = _iterate(problem, sgd, schedule, None, state["sgd"], batches[t - 1], t)[0]

    ada_step(1)  # records the tapes and draws the probes of both estimates
    sgd_step(1)
    assert numpy_frames(lambda: ada_step(2)) == []  # estimates
    assert numpy_frames(lambda: ada_step(3)) == []  # reuses the estimate
    assert numpy_frames(lambda: sgd_step(2)) == []


def test_descent_and_monte_carlo_paths_enter_no_numpy_python():
    q = make_random_spd_quadratic(8, 50.0, seed=3)
    w = np.random.default_rng(4).standard_normal(8)
    rows = np.random.default_rng(6).standard_normal((40, 8))
    total = rows[0].copy()
    calls = {
        "analytic_value": lambda: q.analytic_value(w),
        "_rows_sum": lambda: oracle._rows_sum(total, rows),
        "BlockSpec": lambda: BlockSpec(3, [5, 8, 1]),
        "slack-diag": lambda: oracle._DescentPoint(q, w).slack(0.5, "diag"),
        "slack-block": lambda: oracle._DescentPoint(q, w).slack(1.0, "block", 4),
    }
    assert {name: numpy_frames(call) for name, call in calls.items()} == {
        name: [] for name in calls}


# The resolver, on both of its branches.

RESOLVED = ["dot", "vdot", "copyto", "concatenate"]  # autodiff binds each as c_<name>


@pytest.mark.parametrize("name", RESOLVED)
def test_each_entry_resolves_to_a_c_function_not_its_dispatcher(name):
    public, resolved = getattr(np, name), getattr(ad, f"c_{name}")
    assert isinstance(resolved, types.BuiltinFunctionType)
    assert resolved is not public
    assert ad.c_function(public) is resolved
    assert ad.c_function(resolved) is resolved
    assert numpy_frames(lambda: resolved(*_sample_args(name))) == []
    assert numpy_frames(lambda: public(*_sample_args(name))) != []


def _sample_args(name):
    x = np.arange(6.0)
    return {"dot": (x, x), "vdot": (x, x), "copyto": (np.empty(6), x),
            "concatenate": ([x, x],)}[name]


@pytest.mark.skipif(not hasattr(np, "_core"), reason="numpy 1.x has only the fallback")
def test_the_numpy_1_import_of_c_einsum_gives_the_c_einsum_bits():
    # Hiding numpy._core.multiarray sends autodiff down its numpy 1.x import,
    # which numpy 2 serves through its deprecated numpy.core alias.
    probe = (
        "import sys, numpy as np\n"
        "reference = np._core.multiarray.c_einsum\n"
        "sys.modules['numpy._core.multiarray'] = None\n"
        "from hessopt import autodiff\n"
        "assert 'numpy.core.multiarray' in sys.modules\n"
        "x = np.random.default_rng(0).standard_normal((37, 8))\n"
        "assert x.flags.c_contiguous\n"
        "got, want = autodiff.c_einsum('ij->j', x), reference('ij->j', x)\n"
        "assert got.tobytes() == want.tobytes(), (got, want)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(ad.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-W", "ignore::DeprecationWarning", "-c", probe],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("f", [np.add, len, lambda x: x],
                         ids=["ufunc", "builtin", "lambda"])
def test_a_function_without_an_implementation_resolves_to_itself(f):
    assert not hasattr(f, "_implementation")
    assert ad.c_function(f) is f


SPECIALS = st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e308, -1e-308])
ELEMENTS = st.one_of(SPECIALS, st.floats(-1e3, 1e3))
LAYOUTS = st.sampled_from(["C", "F", "strided"])


def laid_out(x: np.ndarray, layout: str) -> np.ndarray:
    """``x``'s values (at least 1-D) in a C-ordered, F-ordered or strided array."""
    if layout == "F":
        return np.asfortranarray(x)
    if layout == "strided":
        wide = np.empty(x.shape[:-1] + (2 * x.shape[-1],))
        wide[..., ::2] = x
        return wide[..., ::2]
    return np.ascontiguousarray(x)


def matrices(rows, cols):
    return hnp.arrays(np.float64, (rows, cols), elements=ELEMENTS)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data(), m=st.integers(1, 9), k=st.integers(1, 9), n=st.integers(1, 9),
       layouts=st.tuples(LAYOUTS, LAYOUTS, LAYOUTS))
@example(data=None, m=3, k=2, n=4, layouts=("C", "F", "strided"))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf * 0 and overflow, in both calls
def test_resolved_dot_and_vdot_give_the_public_bits(data, m, k, n, layouts):
    if data is None:
        a = np.array([[np.nan, -0.0], [np.inf, 1.0], [-np.inf, 2.0]])
        b = np.array([[1.0, -0.0, 3.0, np.nan], [0.0, np.inf, -1.0, 2.0]])
    else:
        a, b = data.draw(matrices(m, k)), data.draw(matrices(k, n))
    a, b = laid_out(a, layouts[0]), laid_out(b, layouts[1])
    v = laid_out(b[:, 0].copy().reshape(1, -1), layouts[2])[0]
    for x, y in ((a, b), (a, v), (v, b), (v, v)):
        assert ad.c_dot(x, y).tobytes() == np.dot(x, y).tobytes()
        shape = np.dot(x, y).shape
        out_c, out_p = np.empty(shape), np.empty(shape)
        ad.c_dot(x, y, out_c)
        np.dot(x, y, out_p)
        assert out_c.tobytes() == out_p.tobytes()
    for x in (a, b, v):
        assert np.float64(ad.c_vdot(x, x)).tobytes() == np.float64(np.vdot(x, x)).tobytes()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(x=hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6)),
                    elements=ELEMENTS),
       layouts=st.tuples(LAYOUTS, LAYOUTS), source=st.sampled_from(["same", "row", "scalar"]))
def test_resolved_copyto_and_concatenate_give_the_public_bits(x, layouts, source):
    src = np.array(x[0, 0]) if source == "scalar" else laid_out(
        x if source == "same" else x[:1], layouts[0])
    dst_c, dst_p = laid_out(np.zeros(x.shape), layouts[1]), laid_out(np.zeros(x.shape), layouts[1])
    ad.c_copyto(dst_c, src)  # a broadcast unless source is "same"
    np.copyto(dst_p, src)
    assert dst_c.tobytes() == dst_p.tobytes()
    parts = [laid_out(row.copy().reshape(1, -1), layout)[0]
             for row, layout in zip(x, layouts * x.shape[0])]
    assert ad.c_concatenate(parts).tobytes() == np.concatenate(parts).tobytes()

