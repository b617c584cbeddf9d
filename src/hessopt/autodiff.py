"""Reverse-mode automatic differentiation with double-backpropagation support.

The graph is built eagerly: every operation returns a new :class:`Tensor` node
holding a float64 numpy array together with one VJP closure per parent. The
VJP closures are themselves written in terms of these taped operations, so the
backward pass extends the graph instead of leaving it. That is what makes
second derivatives possible: the gradient returned by :func:`backward` is a
graph node, and backpropagating the scalar ``dot(gradient, z)`` a second time
yields the exact Hessian-vector product ``H @ z``; so does backpropagating
the gradient itself seeded with z, which skips the dot. Every backward pass
records its graph. Nodes that cannot reach a :func:`variable`
(``needs_grad`` false) record no parents: no backward pass visits them.

Every op makes its node the same way: :class:`Tensor` calls the op's step
function (a numpy function of the inputs' data) and keeps the inputs as the
node's parents. Inside ``Program.recording()`` the constructor also appends
that step to the program: the node, the step function and the input nodes.
:meth:`Program.replay` reruns the steps in order after new arrays are
written into the leaves' ``data``. The same numpy functions then run on the
same operands in the same order, and the cotangent accumulation order is the
one fixed at recording, so every node ends up bit for bit where a fresh tape
at the new leaves would put it: eager and replayed data come from the same
call. Only the leaves a caller rewrites change between replays; every other
leaf is baked into the program. So any data an op derives from its inputs
(``relu``'s mask, ``softplus``'s shift, ``logsumexp_rows``'s row max) is made
by a step of its own, never captured as a constant leaf. Outside a recording
the ops only build an eager tape, for one-off evaluations. :func:`check_finite`
names the op behind a non-finite value on a replayed tape as on a fresh one.

When a recording ends, its steps are optimized once, so that a replay runs
only numpy work whose result can change (``_optimize``): steps computed from
constants made inside the recording are folded, a step repeating an earlier
one is merged into it (also across a probe program and the tape it
extends), and each ``add`` chain of ``embed``s that assembles a flat
parameter's cotangent becomes one ``np.concatenate``. Each rewrite is exact;
the docstrings of ``_optimize`` and ``_fuse_assembly`` say why. Some ops
call cheaper kernels that compute the same bits: ``np.square`` and
``np.reciprocal`` for the powers 2 and -1, and ``einsum`` for axis-0 sums of
C-contiguous matrices (``_power_kernel``, ``_sum_rows``).

Conventions:
  - all data is float64; inputs are coerced on construction
  - ``relu`` is treated as exactly linear away from 0. Its derivative at 0 is
    taken to be 0, and its second derivative is 0 almost everywhere.
  - constants (datasets, probe vectors) enter through :func:`constant` and
    never receive cotangents; neither do the masks and shifts an op computes
    from its input, which are steps of their own
"""

from __future__ import annotations

import weakref
from collections import Counter
from contextlib import contextmanager
from functools import cache, partial
from operator import itemgetter, methodcaller
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "NumericError",
    "Program",
    "as_float64",
    "variable",
    "constant",
    "as_tensor",
    "backward",
    "add",
    "sub",
    "mul",
    "div",
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

    # Arithmetic sugar; all routed through the module-level ops.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __neg__(self):
        return neg(self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __matmul__(self, other):
        return matmul(self, other)


def as_float64(x) -> np.ndarray:
    """``np.asarray(x, dtype=np.float64)``, returning a float64 ndarray as is.

    np.asarray costs about a microsecond per call even when it returns its
    argument, and every optimizer step and replay converts a few vectors.
    """
    if type(x) is np.ndarray and x.dtype is _FLOAT64:
        return x
    return np.asarray(x, dtype=np.float64)


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
    :class:`Program`): a leaf a caller rewrites must be made before.
    """
    out = _leaf(data, "constant", False)
    if _steps is not None:
        _steps.append((out, None, None, None))
    return out


def as_tensor(value) -> Tensor:
    if type(value) is Tensor:
        return value
    return constant(value)


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
    a, b = as_tensor(a), as_tensor(b)
    vjps = (lambda cot: _sum_to(cot, a.data.shape), lambda cot: _sum_to(cot, b.data.shape))
    return Tensor(np.add, a, b, vjps, "add")


def neg(a) -> Tensor:
    a = as_tensor(a)
    return Tensor(np.negative, a, None, (lambda cot: neg(cot),), "neg")


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    vjps = (
        lambda cot: _sum_to(cot, a.data.shape),
        lambda cot: neg(_sum_to(cot, b.data.shape)),
    )
    return Tensor(np.subtract, a, b, vjps, "sub")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    vjps = (
        lambda cot: _sum_to(mul(cot, b), a.data.shape),
        lambda cot: _sum_to(mul(cot, a), b.data.shape),
    )
    return Tensor(np.multiply, a, b, vjps, "mul")


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return mul(a, power(b, -1.0))


@cache
def _power_kernel(p: float):
    """What ``x ** p`` computes: for p = 2 and p = -1 numpy's own scalar-power
    fast path calls ``np.square`` and ``np.reciprocal``, so calling them
    directly gives the same bits without the operator dispatch."""
    if p == 2.0:
        return np.square
    if p == -1.0:
        return np.reciprocal
    return lambda x: x**p


def power(a, exponent: float) -> Tensor:
    """Elementwise ``a ** exponent`` for a constant real exponent."""
    a = as_tensor(a)
    p = float(exponent)
    if p == 2.0:
        vjp = lambda cot: mul(cot, mul(a, constant(2.0)))  # noqa: E731
    else:
        vjp = lambda cot: mul(cot, mul(power(a, p - 1.0), constant(p)))  # noqa: E731
    return Tensor(_power_kernel(p), a, None, (vjp,), f"pow{p:g}")


def square(a) -> Tensor:
    return power(a, 2.0)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.exp, a, None, (), "exp")
    if out.needs_grad:
        ref = weakref.ref(out)
        out.vjps = (lambda cot: mul(cot, ref()),)
    return out


def log(a) -> Tensor:
    a = as_tensor(a)
    return Tensor(np.log, a, None, (lambda cot: div(cot, a),), "log")


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.tanh, a, None, (), "tanh")
    if out.needs_grad:
        ref = weakref.ref(out)
        out.vjps = (lambda cot: mul(cot, sub(constant(1.0), square(ref()))),)
    return out


def sin(a) -> Tensor:
    a = as_tensor(a)
    return Tensor(np.sin, a, None, (lambda cot: mul(cot, cos(a)),), "sin")


def cos(a) -> Tensor:
    a = as_tensor(a)
    return Tensor(np.cos, a, None, (lambda cot: neg(mul(cot, sin(a))),), "cos")


def _positive(x: np.ndarray) -> np.ndarray:
    return (x > 0.0).astype(np.float64)


def _clip_negative(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu(a) -> Tensor:
    a = as_tensor(a)
    # The mask is derived data: zero curvature almost everywhere, and
    # derivative 0 at exactly 0.
    mask = _derived(_positive, a)
    return Tensor(_clip_negative, a, None, (lambda cot: mul(cot, mask),), "relu")


def transpose(a) -> Tensor:
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise ValueError("transpose expects a 2-D tensor")
    return Tensor(np.ndarray.transpose, a, None, (lambda cot: transpose(cot),), "transpose")


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = as_tensor(a)
    vjp = lambda cot: reshape(cot, a.data.shape)  # noqa: E731
    return Tensor(_reshaper(shape), a, None, (vjp,), "reshape")


# The step functions of ops with parameters are made once per parameter
# value, so two steps of the same op with the same parameters share one
# function: that is how Program.recording recognizes a repeated step.
_reshaper = cache(lambda shape: methodcaller("reshape", shape))
_slicer = cache(lambda start, stop: itemgetter(slice(start, stop)))
_summer = cache(lambda axis: methodcaller("sum", axis=axis))


def _broadcast(shape: tuple[int, ...], x: np.ndarray) -> np.ndarray:
    """What :func:`broadcast_to` computes, as a step."""
    data = np.empty(shape)
    data[...] = x
    return data


_broadcaster = cache(lambda shape: partial(_broadcast, shape))


def broadcast_to(a, shape: tuple[int, ...]) -> Tensor:
    a = as_tensor(a)
    vjp = lambda cot: _sum_to(cot, a.data.shape)  # noqa: E731
    return Tensor(_broadcaster(shape), a, None, (vjp,), "broadcast")


def _sum_rows(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=0)`` of a 2-D array with at least 2 columns, bit for bit.

    numpy sums axis 0 of a C-contiguous array one row at a time, in order,
    and so does ``einsum``, with less overhead. On other layouts the two
    differ in the last bits, so those keep ``sum``.
    """
    if x.flags.c_contiguous:
        return np.einsum("ij->j", x)
    return x.sum(axis=0)


def tsum(a, axis=None) -> Tensor:
    """Sum over ``axis`` (int, tuple, or None for all axes)."""
    a = as_tensor(a)
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


def mean(a, axis=None) -> Tensor:
    a = as_tensor(a)
    total = tsum(a, axis=axis)
    count = a.data.size // max(total.data.size, 1)
    return mul(total, constant(1.0 / count))


def dot(a, b) -> Tensor:
    """Inner product of two 1-D tensors."""
    return tsum(mul(a, b))


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
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
    elif an == 1 and bn == 2:
        p, m = b.data.shape
        vjps = (
            lambda cot: matmul(b, cot),
            lambda cot: matmul(reshape(a, (p, 1)), reshape(cot, (1, m))),
        )
    else:
        raise ValueError(f"matmul supports 2Dx2D, 2Dx1D, 1Dx2D; got {an}D @ {bn}D")
    return Tensor(np.matmul, a, b, vjps, "matmul")


def narrow(a, start: int, length: int) -> Tensor:
    """Contiguous 1-D slice ``a[start:start+length]``."""
    a = as_tensor(a)
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
    a = as_tensor(a)
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
    a = as_tensor(a)
    m = _derived(_clip_negative, a)
    return add(m, log(add(exp(neg(m)), exp(sub(a, m)))))


def _row_max(x: np.ndarray) -> np.ndarray:
    return np.max(x, axis=1, keepdims=True)


def _first_column(x: np.ndarray) -> np.ndarray:
    return x[:, 0]


def logsumexp_rows(a) -> Tensor:
    """Row-wise ``log(sum(exp(a), axis=1))`` for a 2-D tensor, stably."""
    a = as_tensor(a)
    m = _derived(_row_max, a)
    shifted = sub(a, m)
    return add(_derived(_first_column, m), log(tsum(exp(shifted), axis=1)))


class _Table:
    """What a recording learned about its nodes, for the programs after it.

    ``steps`` maps a step's (function, inputs) to the node it computes;
    ``merged`` maps a node whose step repeated an earlier one to that one's
    node; ``fixed`` holds the nodes whose data never changes: constants made
    inside a recording and the steps folded from them. ``scalars`` maps the
    bytes of a 0-d constant to the first constant holding them, so that equal
    constants made by separate ops count as one input.
    """

    __slots__ = ("steps", "merged", "fixed", "scalars")

    def __init__(self):
        self.steps: dict = {}
        self.merged: dict = {}
        self.fixed: set = set()
        self.scalars: dict = {}


class Program:
    """The numpy steps that built a tape, in order, rerun on new leaf data.

    Inside :meth:`recording` every op appends one step: the node it made,
    the numpy function that computed the node's data, and its input nodes;
    :func:`constant` marks the constants made there. The caller keeps the
    leaves it means to rewrite, made before the recording; after writing
    new arrays (float64, of the recorded shapes) into their ``data``,
    :meth:`replay` stores in each node what a fresh tape would hold.

    A program recorded with ``extends`` continues that program's tape (a
    probe over a gradient tape): it is replayed after it, reads its nodes,
    and takes over the table of what the earlier recording learned, so steps
    repeated across the two are shared. A program can be extended by one
    program; a second one shares nothing, and is just as exact.
    """

    __slots__ = ("steps", "_extends", "_table")

    def __init__(self, extends: "Program | None" = None):
        self.steps: list = []
        self._extends = extends
        self._table: _Table | None = None

    @contextmanager
    def recording(self):
        """Record the steps of every op run inside the block, then optimize
        them once (see :func:`_optimize`).

        Steps of a block that raises are discarded.
        """
        global _steps
        previous, _steps = _steps, []
        try:
            yield self
            recorded = _steps
        finally:
            _steps = previous
        parent, self._extends = self._extends, None
        table = _Table()
        if parent is not None and parent._table is not None:
            table, parent._table = parent._table, None
        self.steps = _optimize(recorded, table)
        self._table = table

    def replay(self) -> None:
        for node, fn, a, b in self.steps:
            node.data = fn(a.data) if b is None else fn(a.data, b.data)


def _optimize(recorded: list, table: _Table) -> list:
    """The steps of ``recorded`` that replay must run, rewritten once.

    Every rewrite leaves each node's data bit for bit what the recorded step
    would compute:

    - a step whose inputs are all fixed is folded: its node keeps the data
      the recording computed and the step is dropped;
    - a step that repeats an earlier one (same step function, which ops make
      once per parameter value, and the same input nodes) is merged into it.
      Later steps read the earlier node, and the repeat becomes an alias
      step that hands it the earlier node's array, so every node still holds
      current data for whatever reads the tape from outside: the loss, the
      gradient, a program extending this one, or :func:`find_nonfinite`;
    - gradient assembly is fused (see :func:`_fuse_assembly`).

    A step that makes a 0-d node coerces its result to an array as
    :class:`Tensor` does, since numpy hands back a scalar there.
    """
    steps = []
    merged, fixed = table.merged, table.fixed
    for node, fn, a, b in recorded:
        if fn is None:  # a constant made in the recording
            fixed.add(node)
            if not node.data.ndim:
                first = table.scalars.setdefault(node.data.tobytes(), node)
                if first is not node:
                    merged[node] = first
            continue
        a = merged.get(a, a)
        b = merged.get(b, b)
        first = table.steps.setdefault((fn, a, b), node)
        if first is not node:
            merged[node] = first
            if first in fixed:
                fixed.add(node)
            else:
                steps.append((node, _same, first, None))
        elif a in fixed and (b is None or b in fixed):
            fixed.add(node)
        else:
            steps.append((node, fn, a, b))
    return [(node, fn if node.data.ndim or fn is _same else _as_array(fn), a, b)
            for node, fn, a, b in _fuse_assembly(steps, table)]


def _same(x):
    return x


def _as_array(fn):
    return lambda *args: np.asarray(fn(*args), dtype=np.float64)


class _Parts:
    """The input of a fused assembly step: its parts' current arrays."""

    __slots__ = ("nodes",)

    def __init__(self, nodes: tuple[Tensor, ...]):
        self.nodes = nodes

    @property
    def data(self) -> list[np.ndarray]:
        return [node.data for node in self.nodes]


def _assembled(parts: list[np.ndarray]) -> np.ndarray:
    out = np.concatenate(parts)
    out += 0.0
    return out


def _fuse_assembly(steps: list, table: _Table) -> list:
    """Join each ``add`` chain of ``embed``s that tile a vector into one step.

    A flat parameter's cotangent is assembled from one ``embed`` per slice
    read of it, added up in a chain. At each position one embed holds the
    slice's value x and every other holds +0.0, so the chain computes
    ``x + 0.0`` there, whatever its order: x itself, except that -0.0
    becomes +0.0. ``np.concatenate`` of the slices followed by ``+= 0.0``
    computes the same. The embeds and partial sums of a fused chain are
    read by nothing but the chain (VJPs of ``add`` and ``embed`` read only
    their shapes), so they are no longer computed, and their steps leave
    the table so that no later program reads their stale data.
    """
    made = {node: i for i, (node, _, _, _) in enumerate(steps)}
    uses = Counter(x for _, _, a, b in steps for x in (a, b))
    dropped: set[int] = set()
    for i in reversed(range(len(steps))):
        head, fn, a, b = steps[i]
        if fn is not np.add or i in dropped:
            continue
        slices, chain, pending = [], [], [a, b]
        while pending:
            x = pending.pop()
            j = made.get(x)
            if j is None or uses[x] != 1:
                break
            _, f, xa, xb = steps[j]
            if f is np.add:
                pending += (xa, xb)
            elif type(f) is partial and f.func is _embedded:
                slices.append((f.args[0], xa))
            else:
                break
            chain.append(j)
        else:
            slices.sort(key=itemgetter(0))
            if _tiles(slices, head.data.shape[0]):
                steps[i] = (head, _assembled, _Parts(tuple(x for _, x in slices)), None)
                dropped.update(chain)
                for j in chain:
                    _, f, xa, xb = steps[j]
                    del table.steps[f, xa, xb]
    return [step for i, step in enumerate(steps) if i not in dropped]


def _tiles(slices: list, length: int) -> bool:
    """Whether the (start, node) slices, sorted by start, cover [0, length)
    exactly once."""
    end = 0
    for start, x in slices:
        if start != end:
            return False
        end += x.data.shape[0]
    return end == length


def _toposort(output: Tensor) -> list[Tensor]:
    """Iterative topological order of the needs_grad subgraph ending at output.

    A ``None`` pushed above a node marks it as expanded: popping the marker
    emits the node beneath it.
    """
    topo: list[Tensor] = []
    visited: set[Tensor] = set()
    stack: list[Tensor | None] = [output]
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


def backward(output: Tensor, wrt: Sequence[Tensor],
             cotangent: Tensor | None = None) -> list[Tensor]:
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
    """
    if cotangent is None and output.data.ndim != 0:
        raise ValueError("backward requires a scalar output")
    cotangents: dict[Tensor, Tensor] = {
        output: constant(1.0) if cotangent is None else cotangent}
    for node in reversed(_toposort(output)):
        cot = cotangents.get(node)
        if cot is None:
            continue
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


def find_nonfinite(output: Tensor) -> Tensor | None:
    """First node (in forward order) holding a non-finite value, if any."""
    for node in _toposort(output):
        if not np.isfinite(node.data).all():
            return node
    return None


def check_finite(output: Tensor, context: str, phase: str | None = None) -> None:
    """Raise :class:`NumericError` naming the offending op if non-finite."""
    if np.isfinite(output.data).all():
        return
    bad = find_nonfinite(output)
    op = bad.op if bad is not None else "unknown"
    raise NumericError(f"non-finite value in {context} (produced by op '{op}')", phase)
