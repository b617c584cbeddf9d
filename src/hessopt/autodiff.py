"""Reverse-mode automatic differentiation with double-backpropagation support.

The graph is built eagerly: every operation returns a new :class:`Tensor` node
holding a float64 numpy array together with one VJP closure per parent. The
VJP closures are themselves written in terms of these taped operations, so the
backward pass extends the graph instead of leaving it. That is what makes
second derivatives possible: the gradient returned by :func:`backward` is a
graph node, and backpropagating the scalar ``dot(gradient, z)`` a second time
yields the exact Hessian-vector product ``H @ z``; so does backpropagating
the gradient itself seeded with z, which skips the dot. A pass can start at
several outputs at once, each with its own seed: the gradients of several
parameter tensors probed by one vector. Every backward pass records its
graph. Nodes that cannot reach a :func:`variable`
(``needs_grad`` false) record no parents: no backward pass visits them.

Every op makes its node the same way: :class:`Tensor` calls the op's step
function (a numpy function of the inputs' data) and keeps the inputs as the
node's parents. Inside ``Program.recording()`` the constructor also appends
that step to the program: the node, the step function and the input nodes.
When the recording ends, each step becomes a kernel that writes into the
array the recording made for its node, and :meth:`Program.replay` reruns the
kernels in order after new values are written into the leaves' arrays in
place. No node's array is ever replaced, so a view of one (a transpose, a
reshape) is bound once and never remade. The same numpy operations then run
on the same operands in the same order, and the cotangent accumulation order
is the one fixed at recording, so every node ends up bit for bit where a
fresh tape at the new leaves would put it. Only the leaves a caller rewrites
change between replays; every other leaf is baked into the program. So any
data an op derives from its inputs (``relu``'s mask, ``softplus``'s shift,
``logsumexp_rows``'s row max) is made by a step of its own, never captured
as a constant leaf. Outside a recording the ops only build an eager tape,
for one-off evaluations. :func:`check_finite` names the op behind a
non-finite value on a replayed tape as on a fresh one.

When a recording ends, its steps are optimized once, so that a replay runs
only numpy work whose result can change (``_optimize``): steps computed from
constants made inside the recording are folded, a step repeating an earlier
one is merged into it (also from a probe into the gradient recorded with
it), and views are bound once. Each rewrite is exact; the docstring
of ``_optimize`` says why. Some ops call cheaper kernels that compute the
same bits: the ufuncs numpy's scalar-power fast paths call (``np.square``,
``np.reciprocal``, ``np.sqrt``, ``np.positive``), the C function behind
``einsum`` for axis-0 sums of C-contiguous matrices (``_power_kernel``,
``_sum_rows``), ``np.add.reduce``, the call behind ``ndarray.sum``, for
other sums, and ``ndarray.dot``, or in a replay the C function behind
``np.dot`` (``c_dot``, see :func:`c_function`), for products. A replay
enters no Python function of numpy: its kernels are ufuncs, their
``reduce`` methods and the C functions behind ``np.dot``, ``np.copyto`` and
``np.einsum``. ``ndarray.dot`` makes the BLAS call ``np.matmul`` makes
without its gufunc dispatch, and for float64 the two agree bit for bit when
every 2-D operand is C- or F-ordered; a 1-D operand may have any stride. (A
unit stride on one axis is not enough: rows ``x[::2]`` can differ.) Every
product a loss here takes has such operands: node outputs, their
transposes, reshapes of parameter leaves and batch arrays.

Conventions:
  - all data is float64; ops take :class:`Tensor` inputs only
  - ``relu`` is treated as exactly linear away from 0. Its derivative at 0 is
    taken to be 0, and its second derivative is 0 almost everywhere.
  - constants (datasets, probe vectors, scalars such as 0.5) enter only
    through :func:`constant` and never receive cotangents; neither do the
    masks and shifts an op computes from its input, which are steps of their
    own
"""

from __future__ import annotations

import math
import weakref
from contextlib import contextmanager
from functools import cache, partial
from operator import itemgetter, methodcaller
from typing import Callable, Sequence

import numpy as np

try:  # the C function np.einsum calls when optimize is off
    from numpy._core.multiarray import c_einsum
except ImportError:  # numpy 1.x
    from numpy.core.multiarray import c_einsum


def c_function(f):
    """The C function behind a numpy function, or ``f`` if it has none.

    ``np.dot`` and its kin are dispatchers: each call first runs a Python
    function that lists the arguments to offer ``__array_function__``, and
    then the C function kept as ``_implementation``. Called on ndarrays,
    which override nothing, the C function does the same work and gives the
    same bits, about 0.2 µs sooner.
    """
    return getattr(f, "_implementation", f)


c_dot, c_vdot, c_copyto, c_concatenate = map(
    c_function, (np.dot, np.vdot, np.copyto, np.concatenate))

__all__ = [
    "Tensor",
    "NumericError",
    "Program",
    "as_float64",
    "variable",
    "constant",
    "backward",
    "add",
    "sub",
    "mul",
    "neg",
    "power",
    "square",
    "exp",
    "log",
    "tanh",
    "sin",
    "cos",
    "relu",
    "matmul",
    "transpose",
    "reshape",
    "broadcast_to",
    "tsum",
    "mean",
    "dot",
    "narrow",
    "embed",
    "softplus",
    "logsumexp_rows",
    "find_nonfinite",
    "all_finite",
]


class NumericError(RuntimeError):
    """A computation produced a non-finite (NaN/Inf) value.

    ``phase`` names the part of an optimizer iteration that failed (``loss``,
    ``gradient``, ``hvp`` or ``step``), or is None where none applies.
    """

    def __init__(self, message: str, phase: str | None = None):
        super().__init__(message)
        self.phase = phase


_FLOAT64 = np.dtype(np.float64)
# The step list of the Program being recorded, or None; see Program.recording.
# Module-level because the ops are module-level functions.
_steps: list | None = None


class Tensor:
    """A node in the computation graph: ``fn(a.data)`` or ``fn(a.data, b.data)``.

    Every op makes its node here from its step function ``fn`` and its input
    nodes, the node's parents; inside a recording the same call appends that
    step to the program. ``vjps`` holds one closure per parent; each maps the
    cotangent of this node to the cotangent contribution for that parent,
    expressed with taped operations so it can be differentiated again. A VJP
    that needs the node itself (``exp``, ``tanh``) holds it by weak reference:
    a VJP only runs while its node is alive, and a strong one would make every
    tape a reference cycle that outlives its call until the cyclic collector
    runs. ``needs_grad`` marks whether any :func:`variable` leaf is reachable
    (an op passes False for data no cotangent flows through); backward skips
    everything else, so a node without it keeps ``parents`` and ``vjps`` empty.
    """

    __slots__ = ("data", "parents", "vjps", "needs_grad", "op", "__weakref__")

    def __init__(self, fn: Callable[..., np.ndarray], a: "Tensor", b: "Tensor | None" = None,
                 vjps: tuple[Callable[["Tensor"], "Tensor"], ...] = (), op: str = "op",
                 needs_grad: bool | None = None):
        data = fn(a.data) if b is None else fn(a.data, b.data)
        if type(data) is not np.ndarray or data.dtype is not _FLOAT64:
            data = np.asarray(data, dtype=np.float64)
        self.data = data
        self.op = op
        if needs_grad is None:
            needs_grad = a.needs_grad or (b is not None and b.needs_grad)
        self.needs_grad = needs_grad
        if needs_grad:
            self.parents = (a,) if b is None else (a, b)
            self.vjps = vjps
        else:
            self.parents = self.vjps = ()
        if _steps is not None:
            _steps.append((self, fn, a, b))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(op={self.op!r}, shape={self.data.shape})"


def as_float64(x) -> np.ndarray:
    """``np.asarray(x, dtype=np.float64)``, returning a float64 ndarray as is.

    np.asarray costs about a microsecond per call even when it returns its
    argument, and every optimizer step and replay converts a few vectors.
    """
    if type(x) is np.ndarray and x.dtype is _FLOAT64:
        return x
    return np.asarray(x, dtype=np.float64)


def _check_int(name: str, value, expected: str = "an int") -> None:
    """``value`` is an int and not a bool, or a TypeError names ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be {expected}, got {value!r}")


def _leaf(data, op: str, needs_grad: bool) -> Tensor:
    node = Tensor.__new__(Tensor)
    node.data = as_float64(data)
    node.op = op
    node.needs_grad = needs_grad
    node.parents = node.vjps = ()
    return node


def variable(data) -> Tensor:
    """Leaf tensor that receives a cotangent in :func:`backward`."""
    return _leaf(data, "variable", True)


def constant(data) -> Tensor:
    """Leaf tensor excluded from differentiation.

    Made inside a recording, it is a constant of the program (see
    :class:`Program`): a leaf a caller rewrites must be made before, and is
    rewritten in place, through ``leaf.data[...]``, never rebound.
    """
    out = _leaf(data, "constant", False)
    if _steps is not None:
        _steps.append((out, None, None, None))
    return out


def _sum_to(t: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Reduce ``t`` back to ``shape`` by summing broadcast axes."""
    if t.data.shape == shape:
        return t
    extra = t.data.ndim - len(shape)
    axes = tuple(range(extra)) + tuple(
        extra + i for i, n in enumerate(shape) if n == 1 and t.data.shape[extra + i] != 1
    )
    out = tsum(t, axis=axes) if axes else t
    if out.data.shape != shape:
        out = reshape(out, shape)
    return out


def _derived(fn, a: Tensor) -> Tensor:
    """Constant ``fn(a.data)``, such as a mask or a shift.

    No cotangent flows through it, but it is a step of its own, so a replay
    recomputes it from ``a``'s new data instead of keeping the old result.
    """
    return Tensor(fn, a, None, (), "constant", False)


def add(a, b) -> Tensor:
    vjps = (lambda cot: _sum_to(cot, a.data.shape), lambda cot: _sum_to(cot, b.data.shape))
    return Tensor(np.add, a, b, vjps, "add")


def neg(a) -> Tensor:
    return Tensor(np.negative, a, None, (lambda cot: neg(cot),), "neg")


def sub(a, b) -> Tensor:
    vjps = (
        lambda cot: _sum_to(cot, a.data.shape),
        lambda cot: neg(_sum_to(cot, b.data.shape)),
    )
    return Tensor(np.subtract, a, b, vjps, "sub")


def mul(a, b) -> Tensor:
    vjps = (
        lambda cot: _sum_to(mul(cot, b), a.data.shape),
        lambda cot: _sum_to(mul(cot, a), b.data.shape),
    )
    return Tensor(np.multiply, a, b, vjps, "mul")


# The ufuncs numpy's scalar-power fast paths call for ``x ** p`` at these p.
_POWER_UFUNCS = {2.0: np.square, -1.0: np.reciprocal, 0.5: np.sqrt, 1.0: np.positive}


def _pow(p: float, x: np.ndarray) -> np.ndarray:
    return x**p


@cache
def _power_kernel(p: float):
    """What ``x ** p`` computes: the fast path's ufunc, which gives the same
    bits without the operator dispatch, or ``np.power``."""
    return _POWER_UFUNCS.get(p) or partial(_pow, p)


def power(a, exponent: float) -> Tensor:
    """Elementwise ``a ** exponent`` for a constant real exponent."""
    p = float(exponent)
    if p == 2.0:
        vjp = lambda cot: mul(cot, mul(a, constant(2.0)))  # noqa: E731
    else:
        vjp = lambda cot: mul(cot, mul(power(a, p - 1.0), constant(p)))  # noqa: E731
    return Tensor(_power_kernel(p), a, None, (vjp,), f"pow{p:g}")


def square(a) -> Tensor:
    return power(a, 2.0)


def exp(a) -> Tensor:
    out = Tensor(np.exp, a, None, (), "exp")
    if out.needs_grad:
        ref = weakref.ref(out)
        out.vjps = (lambda cot: mul(cot, ref()),)
    return out


def log(a) -> Tensor:
    return Tensor(np.log, a, None, (lambda cot: mul(cot, power(a, -1.0)),), "log")


def tanh(a) -> Tensor:
    out = Tensor(np.tanh, a, None, (), "tanh")
    if out.needs_grad:
        ref = weakref.ref(out)
        out.vjps = (lambda cot: mul(cot, sub(constant(1.0), square(ref()))),)
    return out


def sin(a) -> Tensor:
    return Tensor(np.sin, a, None, (lambda cot: mul(cot, cos(a)),), "sin")


def cos(a) -> Tensor:
    return Tensor(np.cos, a, None, (lambda cot: neg(mul(cot, sin(a))),), "cos")


def _positive(x: np.ndarray) -> np.ndarray:
    return (x > 0.0).astype(np.float64)


def _clip_negative(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu(a) -> Tensor:
    # The mask is derived data: zero curvature almost everywhere, and
    # derivative 0 at exactly 0.
    mask = _derived(_positive, a)
    return Tensor(_clip_negative, a, None, (lambda cot: mul(cot, mask),), "relu")


def transpose(a) -> Tensor:
    if a.data.ndim != 2:
        raise ValueError("transpose expects a 2-D tensor")
    return Tensor(np.ndarray.transpose, a, None, (lambda cot: transpose(cot),), "transpose")


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    vjp = lambda cot: reshape(cot, a.data.shape)  # noqa: E731
    return Tensor(_reshaper(shape), a, None, (vjp,), "reshape")


# The step functions of ops with parameters are made once per parameter
# value, so two steps of the same op with the same parameters share one
# function: that is how Program.recording recognizes a repeated step.
_reshaper = cache(lambda shape: methodcaller("reshape", shape))
_slicer = cache(lambda start, stop: itemgetter(slice(start, stop)))
# ``x.sum(axis)`` is this call, without the method's Python wrapper.
_summer = cache(lambda axis: partial(np.add.reduce, axis=axis))


def _broadcast(shape: tuple[int, ...], x: np.ndarray) -> np.ndarray:
    """What :func:`broadcast_to` computes, as a step."""
    data = np.empty(shape)
    data[...] = x
    return data


_broadcaster = cache(lambda shape: partial(_broadcast, shape))


def broadcast_to(a, shape: tuple[int, ...]) -> Tensor:
    vjp = lambda cot: _sum_to(cot, a.data.shape)  # noqa: E731
    return Tensor(_broadcaster(shape), a, None, (vjp,), "broadcast")


def _sum_rows(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=0)`` of a 2-D array with at least 2 columns, bit for bit.

    numpy sums axis 0 of a C-contiguous array one row at a time, in order,
    and so does ``einsum``, with less overhead. ``c_einsum`` is the C
    function ``np.einsum`` calls when ``optimize`` is off, so it gives
    einsum's bits without its Python wrapper; it was the fastest of the
    three at 32 rows and at 256. On other layouts the two differ in the last
    bits, so those keep ``sum``.
    """
    if x.flags.c_contiguous:
        return c_einsum("ij->j", x)
    return x.sum(axis=0)


def tsum(a, axis=None) -> Tensor:
    """Sum over ``axis`` (int, tuple, or None for all axes)."""
    if axis is None:
        axes = tuple(range(a.data.ndim))
    elif isinstance(axis, int):
        axes = (axis,)
    else:
        axes = tuple(axis)
    kept = tuple(1 if i in axes else n for i, n in enumerate(a.data.shape))

    def vjp(cot):
        return broadcast_to(reshape(cot, kept), a.data.shape)

    if axes == (0,) and a.data.ndim == 2 and a.data.shape[1] >= 2:
        kernel = _sum_rows
    else:
        kernel = _summer(axes or None)
    return Tensor(kernel, a, None, (vjp,), "sum")


def mean(a) -> Tensor:
    """Mean of every entry."""
    return mul(tsum(a), constant(1.0 / a.data.size))


def dot(a, b) -> Tensor:
    """Inner product of two 1-D tensors."""
    return tsum(mul(a, b))


def matmul(a, b) -> Tensor:
    """Matrix product of a 2-D ``a`` with a 2-D or 1-D ``b``.

    The VJPs of these two cases are products of the same two kinds, so every
    derivative of a product stays within them.
    """
    an, bn = a.data.ndim, b.data.ndim
    if an == 2 and bn == 2:
        vjps = (
            lambda cot: matmul(cot, transpose(b)),
            lambda cot: matmul(transpose(a), cot),
        )
    elif an == 2 and bn == 1:
        n, p = a.data.shape
        vjps = (
            lambda cot: matmul(reshape(cot, (n, 1)), reshape(b, (1, p))),
            lambda cot: matmul(transpose(a), cot),
        )
    else:
        raise ValueError(f"matmul supports 2-D @ 2-D and 2-D @ 1-D; got {an}-D @ {bn}-D")
    return Tensor(np.ndarray.dot, a, b, vjps, "matmul")


def narrow(a, start: int, length: int) -> Tensor:
    """Contiguous 1-D slice ``a[start:start+length]``."""
    if a.data.ndim != 1:
        raise ValueError("narrow expects a 1-D tensor")
    total = a.data.shape[0]
    vjp = lambda cot: embed(cot, start, total)  # noqa: E731
    return Tensor(_slicer(start, start + length), a, None, (vjp,), "narrow")


def _embedded(start: int, total: int, x: np.ndarray) -> np.ndarray:
    """What :func:`embed` computes, as a step."""
    data = np.zeros(total)
    data[start : start + x.shape[0]] = x
    return data


_embedder = cache(lambda start, total: partial(_embedded, start, total))


def embed(a, start: int, total: int) -> Tensor:
    """Place a 1-D tensor into a zero vector of length ``total`` at ``start``."""
    length = a.data.shape[0]
    vjp = lambda cot: narrow(cot, start, length)  # noqa: E731
    return Tensor(_embedder(start, total), a, None, (vjp,), "embed")


def softplus(a) -> Tensor:
    """Numerically stable ``log(1 + exp(a))``.

    Uses a shift ``m = max(a, 0)``, a derived constant, so both exponentials
    stay in (0, 1]; since no cotangent flows through the shift, derivatives of
    every order match the smooth function exactly (first derivative is the
    logistic sigmoid).
    """
    m = _derived(_clip_negative, a)
    return add(m, log(add(exp(neg(m)), exp(sub(a, m)))))


def _row_max(x: np.ndarray) -> np.ndarray:
    return np.max(x, axis=1, keepdims=True)


def _first_column(x: np.ndarray) -> np.ndarray:
    return x[:, 0]


def logsumexp_rows(a) -> Tensor:
    """Row-wise ``log(sum(exp(a), axis=1))`` for a 2-D tensor, stably."""
    m = _derived(_row_max, a)
    shifted = sub(a, m)
    return add(_derived(_first_column, m), log(tsum(exp(shifted), axis=1)))


class Program:
    """The numpy steps that built a tape, in order, rerun on new leaf data.

    Inside :meth:`recording` every op appends one step: the node it made,
    the numpy function that computed the node's data, and its input nodes;
    :func:`constant` marks the constants made there. When the recording
    ends, ``steps`` holds ``(kernel, args)`` pairs over the nodes' arrays,
    each fixed from then on. The caller keeps the leaves it means to
    rewrite, made before the recording, and writes new values (of the
    recorded shapes) into their arrays in place, never binding a new array
    to a leaf's ``data``; :meth:`replay` then leaves in each node's array
    what a fresh tape would hold.
    """

    __slots__ = ("steps",)

    def __init__(self):
        self.steps: list = []

    @contextmanager
    def recording(self):
        """Record the steps of every op run inside the block, then optimize
        them once (see :func:`_optimize`).

        The block gets a function that starts the next program of the same
        recording and returns it: a probe over a gradient tape, replayed
        after it and reading its nodes. The programs are optimized together,
        so a step the later one repeats of the earlier is computed once.
        Steps of a block that raises are discarded.
        """
        global _steps
        recorded, programs, starts = [], [self], [0]

        def next_program() -> Program:
            programs.append(Program())
            starts.append(len(recorded))
            return programs[-1]

        previous, _steps = _steps, recorded
        try:
            yield next_program
        finally:
            _steps = previous
        for program, steps in zip(programs, _optimize(recorded, starts)):
            program.steps = steps

    def replay(self) -> None:
        """Run every step's kernel, in order, over the arrays it was bound to."""
        for kernel, args in self.steps:
            kernel(*args)


def _optimize(recorded: list, starts: list[int]) -> list[list]:
    """The steps of ``recorded`` that replay must run, rewritten once into
    ``(kernel, args)`` pairs over arrays that never change: one list for
    each program, the one starting at each index of ``starts``.

    Every rewrite leaves each node's data bit for bit what the recorded step
    would compute:

    - a step whose inputs are all fixed (constants made inside the
      recording, and steps folded from them) is folded: its node keeps the
      data the recording computed and the step is dropped;
    - a step that repeats an earlier one (same step function, which ops make
      once per parameter value, and the same input nodes), in its own
      program or an earlier one, is merged into it. Equal 0-d constants
      count as one input. Later steps read the earlier node, and the
      repeat's node is bound to the earlier node's array, so every node
      still holds current data for whatever reads the tape from outside:
      the loss, the gradient, a later program, or :func:`find_nonfinite`;
    - a step whose result views its input (a transpose, a slice, most
      reshapes) is bound once, over its input's own array, and dropped;
    - every other step writes into its node's own array, the one the
      recording made, with the same operation on the same operands
      (:func:`_kernel`).

    Merged nodes are bound last, so a view of one is still recognized by the
    array it was recorded over.
    """
    # steps maps a step's (function, inputs) to the node it computes; merged
    # maps a repeat to that node; scalars maps a 0-d constant's bytes to the
    # first constant holding them.
    steps, merged, fixed, scalars = {}, {}, set(), {}
    programs, repeats = [], []
    for start, stop in zip(starts, [*starts[1:], len(recorded)]):
        kernels = []
        programs.append(kernels)
        for node, fn, a, b in recorded[start:stop]:
            if fn is None:  # a constant made in the recording
                fixed.add(node)
                if not node.data.ndim:
                    first = scalars.setdefault(node.data.tobytes(), node)
                    if first is not node:
                        merged[node] = first
                continue
            x = merged.get(a, a)
            y = merged.get(b, b)
            first = steps.setdefault((fn, x, y), node)
            if first is not node:
                merged[node] = first
                repeats.append(node)
                if first in fixed:
                    fixed.add(node)
            elif x in fixed and (y is None or y in fixed):
                fixed.add(node)
            elif b is None and np.may_share_memory(node.data, a.data):
                node.data = fn(x.data)
            else:
                kernels.append(_kernel(fn, node.data, x.data, None if y is None else y.data))
    for node in repeats:
        node.data = merged[node].data
    return programs


_ZERO = np.zeros(())
_ZERO.flags.writeable = False


def _kernel(fn, out: np.ndarray, x: np.ndarray, y: np.ndarray | None) -> tuple:
    """``(kernel, args)`` such that ``kernel(*args)`` writes ``fn(x)``, or
    ``fn(x, y)``, into ``out``, the array the recording made for the step.

    Each is the call ``fn`` makes, given ``out`` positionally where numpy
    takes it so: a ufunc, ``c_dot`` (the C function behind ``np.dot``) for
    ``ndarray.dot``, ``np.add.reduce`` for a sum, ``np.maximum.reduce`` for
    the row max, ``c_copyto`` for a broadcast. None runs a line of numpy's
    Python: its dispatchers and wrappers cost more than the work at these
    sizes. ``np.maximum`` takes ``out=`` by keyword, since numpy deprecates
    a positional one for it, and so does ``c_einsum``. A scalar operand
    (relu's 0, an exponent off the fast paths) is bound as a 0-d array,
    which gives the bits the Python float gives without numpy converting it
    on every replay. A step without such a kernel (a reshape that copies, an
    embed) copies its result into ``out`` with ``c_copyto``.
    """
    if isinstance(fn, np.ufunc):
        return fn, (x, out) if y is None else (x, y, out)
    if fn is np.ndarray.dot:
        return c_dot, (x, y, out)
    if fn is _positive:
        return np.greater, (x, _ZERO, out)
    if fn is _clip_negative:
        return partial(np.maximum, out=out), (x, _ZERO)
    if fn is _row_max:
        return np.maximum.reduce, (x, 1, None, out, True)
    if fn is _sum_rows:
        if x.flags.c_contiguous:
            return partial(c_einsum, "ij->j", out=out), (x,)
        return np.add.reduce, (x, 0, None, out)
    if type(fn) is partial and fn.func == np.add.reduce:
        return np.add.reduce, (x, fn.keywords["axis"], None, out)
    if type(fn) is partial and fn.func is _pow:
        return np.power, (x, np.array(fn.args[0]), out)
    if type(fn) is partial and fn.func is _broadcast:
        return c_copyto, (out, x)
    return _copy_into, (out, fn, x) if y is None else (out, fn, x, y)


def _copy_into(out: np.ndarray, fn, *inputs: np.ndarray) -> None:
    c_copyto(out, fn(*inputs))


def _outputs(output: Tensor | Sequence[Tensor]) -> list[Tensor]:
    return [output] if type(output) is Tensor else list(output)


def _toposort(outputs: list[Tensor]) -> list[Tensor]:
    """Iterative topological order of the needs_grad subgraph ending at outputs.

    A ``None`` pushed above a node marks it as expanded: popping the marker
    emits the node beneath it. The last output is expanded first, as the
    second input of an ``add`` is.
    """
    topo: list[Tensor] = []
    visited: set[Tensor] = set()
    stack: list[Tensor | None] = list(outputs)
    while stack:
        node = stack.pop()
        if node is None:
            topo.append(stack.pop())
            continue
        if node in visited:
            continue
        visited.add(node)
        stack.append(node)
        stack.append(None)
        for parent in node.parents:
            if parent.needs_grad and parent not in visited:
                stack.append(parent)
    return topo


def backward(output: Tensor | Sequence[Tensor], wrt: Sequence[Tensor],
             cotangent: Tensor | Sequence[Tensor | None] | None = None) -> list[Tensor]:
    """Reverse-mode pass from a scalar ``output`` to the ``wrt`` leaves.

    Returns one cotangent tensor per entry of ``wrt``. The cotangents are
    graph nodes built from taped operations, so they can be fed back into
    ``backward``; this is how Hessian-vector products are formed. Leaves not
    reachable from ``output`` get a zero cotangent.

    ``cotangent``, a tensor of ``output``'s shape, seeds the pass at a
    non-scalar ``output`` instead of 1.0: a vector-Jacobian product.
    Backpropagating ``dot(output, z)`` reaches ``output`` with ``1.0 * z``,
    which is z bit for bit, so ``cotangent=z`` gives the same cotangents
    without computing the dot.

    ``output`` may be a list, with one cotangent (or None) per output. One
    pass from them all visits the nodes as backpropagating the chain
    ``add(add(dot(g1, z1), dot(g2, z2)), ...)`` does, so it gives its bits.
    """
    outputs = _outputs(output)
    seeds = [cotangent] if type(output) is Tensor else cotangent or [None] * len(outputs)
    cotangents: dict[Tensor, Tensor] = {}
    for out, seed in zip(outputs, seeds):
        if seed is None:
            if out.data.ndim != 0:
                raise ValueError("backward requires a scalar output")
            seed = constant(1.0)
        prev = cotangents.get(out)
        cotangents[out] = seed if prev is None else add(prev, seed)
    for node in reversed(_toposort(outputs)):
        cot = cotangents[node]
        for parent, vjp in zip(node.parents, node.vjps):
            if not parent.needs_grad:
                continue
            contribution = vjp(cot)
            prev = cotangents.get(parent)
            cotangents[parent] = contribution if prev is None else add(prev, contribution)
    results = []
    for w in wrt:
        cot = cotangents.get(w)
        results.append(cot if cot is not None else constant(np.zeros_like(w.data)))
    return results


def find_nonfinite(output: Tensor | Sequence[Tensor]) -> Tensor | None:
    """First node (in forward order) ending at ``output``(s) that is not finite, if any."""
    for node in _toposort(_outputs(output)):
        if not all_finite(node.data):
            return node
    return None


def all_finite(x: np.ndarray) -> bool:
    """``bool(np.isfinite(x).all())``, mostly from one dot product.

    ``np.vdot(x, x)`` is the sum of squares of the flattened ``x``. It cannot
    cancel, so it is finite only when every entry is: a finite sum answers at
    once. A sum that is not finite comes from a NaN or an infinite entry, or
    from finite entries large enough to overflow it, so only then does the
    exact entrywise test run. Unlike ``dot``, ``vdot`` warns of no overflow.
    It is called as ``c_vdot``, the C function behind ``np.vdot``, since the
    check runs on every gradient, HVP and optimizer update.
    """
    return math.isfinite(c_vdot(x, x)) or bool(np.isfinite(x).all())


def check_finite(output: Tensor | Sequence[Tensor], context: str,
                 phase: str | None = None) -> None:
    """Raise :class:`NumericError` naming the offending op if ``output``, or
    an output of a list, is non-finite."""
    if all(all_finite(out.data) for out in _outputs(output)):
        return
    bad = find_nonfinite(output)
    op = bad.op if bad is not None else "unknown"
    raise NumericError(f"non-finite value in {context} (produced by op '{op}')", phase)
