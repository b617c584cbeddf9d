"""Reverse-mode automatic differentiation with double-backpropagation support.

The graph is built eagerly: every operation returns a new :class:`Tensor` node
holding a float64 numpy array together with one VJP closure per parent. The
VJP closures are themselves written in terms of these taped operations, so the
backward pass extends the graph instead of leaving it. That is what makes
second derivatives possible: the gradient returned by :func:`backward` is a
graph node, and backpropagating the scalar ``dot(gradient, z)`` a second time
yields the exact Hessian-vector product ``H @ z``.

A pass that will not be differentiated again can skip the graph:
``backward(output, wrt, create_graph=False)`` computes the same cotangents,
bit for bit, but the nodes it builds record no parents or VJP closures. The
switch is a module-level recording flag, set for the duration of the pass
and restored in ``finally``, so the tape is not safe to share between
threads. Nodes that cannot reach a :func:`variable` (``needs_grad`` false)
never record parents either, whatever the flag: no backward pass visits
them. In ``hessopt.problems`` only the gradient that Hessian-vector products
are taken through records a graph; plain gradients and each HVP probe's own
backward pass do not.

Conventions:
  - all data is float64; inputs are coerced on construction
  - ``relu`` is treated as exactly linear away from 0. Its derivative at 0 is
    taken to be 0, and its second derivative is 0 almost everywhere.
  - constants (datasets, probe vectors, masks) enter through :func:`constant`
    and never receive cotangents
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "NumericError",
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
    """A computation produced a non-finite (NaN/Inf) value."""


_FLOAT64 = np.dtype(np.float64)
# Whether new nodes record parents and VJPs; cleared by backward(create_graph=False).
_recording = True


class Tensor:
    """A node in the computation graph.

    ``vjps`` holds one closure per parent; each maps the cotangent of this
    node to the cotangent contribution for that parent, expressed with taped
    operations so it can be differentiated again. ``needs_grad`` marks whether
    any :func:`variable` leaf is reachable; backward skips everything else, so
    a node without it keeps ``parents`` and ``vjps`` empty.
    """

    __slots__ = ("data", "parents", "vjps", "needs_grad", "op")

    def __init__(
        self,
        data,
        parents: tuple["Tensor", ...] = (),
        vjps: tuple[Callable[["Tensor"], "Tensor"] | None, ...] = (),
        op: str = "leaf",
        needs_grad: bool | None = None,
    ):
        if type(data) is not np.ndarray or data.dtype is not _FLOAT64:
            data = np.asarray(data, dtype=np.float64)
        self.data = data
        self.op = op
        if needs_grad is None:
            needs_grad = False
            if _recording:
                for parent in parents:
                    if parent.needs_grad:
                        needs_grad = True
                        break
        self.needs_grad = needs_grad
        if needs_grad:
            self.parents = parents
            self.vjps = vjps
        else:
            self.parents = self.vjps = ()

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


def variable(data) -> Tensor:
    """Leaf tensor that receives a cotangent in :func:`backward`."""
    return Tensor(data, op="variable", needs_grad=True)


def constant(data) -> Tensor:
    """Leaf tensor excluded from differentiation."""
    return Tensor(data, op="constant", needs_grad=False)


def as_tensor(value) -> Tensor:
    if type(value) is Tensor:
        return value
    return Tensor(value, op="constant", needs_grad=False)


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


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(
        a.data + b.data,
        (a, b),
        (lambda cot: _sum_to(cot, a.data.shape), lambda cot: _sum_to(cot, b.data.shape)),
        "add",
    )


def neg(a) -> Tensor:
    a = as_tensor(a)
    return Tensor(-a.data, (a,), (lambda cot: neg(cot),), "neg")


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(
        a.data - b.data,
        (a, b),
        (
            lambda cot: _sum_to(cot, a.data.shape),
            lambda cot: neg(_sum_to(cot, b.data.shape)),
        ),
        "sub",
    )


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(
        a.data * b.data,
        (a, b),
        (
            lambda cot: _sum_to(mul(cot, b), a.data.shape),
            lambda cot: _sum_to(mul(cot, a), b.data.shape),
        ),
        "mul",
    )


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return mul(a, power(b, -1.0))


def power(a, exponent: float) -> Tensor:
    """Elementwise ``a ** exponent`` for a constant real exponent."""
    a = as_tensor(a)
    p = float(exponent)
    if p == 2.0:
        vjp = lambda cot: mul(cot, mul(a, constant(2.0)))  # noqa: E731
    else:
        vjp = lambda cot: mul(cot, mul(power(a, p - 1.0), constant(p)))  # noqa: E731
    return Tensor(a.data**p, (a,), (vjp,), f"pow{p:g}")


def square(a) -> Tensor:
    return power(a, 2.0)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.exp(a.data), (a,), (), "exp")
    if out.needs_grad:
        out.vjps = (lambda cot: mul(cot, out),)
    return out


def log(a) -> Tensor:
    a = as_tensor(a)
    return Tensor(np.log(a.data), (a,), (lambda cot: div(cot, a),), "log")


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.tanh(a.data), (a,), (), "tanh")
    if out.needs_grad:
        out.vjps = (lambda cot: mul(cot, sub(constant(1.0), square(out))),)
    return out


def sin(a) -> Tensor:
    a = as_tensor(a)
    return Tensor(np.sin(a.data), (a,), (lambda cot: mul(cot, cos(a)),), "sin")


def cos(a) -> Tensor:
    a = as_tensor(a)
    return Tensor(np.cos(a.data), (a,), (lambda cot: neg(mul(cot, sin(a))),), "cos")


def relu(a) -> Tensor:
    a = as_tensor(a)
    # The mask is captured as a constant: zero curvature almost everywhere,
    # derivative 0 at exactly 0.
    mask = constant((a.data > 0.0).astype(np.float64))
    return Tensor(np.maximum(a.data, 0.0), (a,), (lambda cot: mul(cot, mask),), "relu")


def transpose(a) -> Tensor:
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise ValueError("transpose expects a 2-D tensor")
    return Tensor(a.data.T, (a,), (lambda cot: transpose(cot),), "transpose")


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = as_tensor(a)
    return Tensor(
        a.data.reshape(shape), (a,), (lambda cot: reshape(cot, a.data.shape),), "reshape"
    )


def broadcast_to(a, shape: tuple[int, ...]) -> Tensor:
    a = as_tensor(a)
    data = np.empty(shape)
    data[...] = a.data
    return Tensor(
        data,
        (a,),
        (lambda cot: _sum_to(cot, a.data.shape),),
        "broadcast",
    )


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

    return Tensor(a.data.sum(axis=axes or None), (a,), (vjp,), "sum")


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
    return Tensor(a.data @ b.data, (a, b), vjps, "matmul")


def narrow(a, start: int, length: int) -> Tensor:
    """Contiguous 1-D slice ``a[start:start+length]``."""
    a = as_tensor(a)
    if a.data.ndim != 1:
        raise ValueError("narrow expects a 1-D tensor")
    total = a.data.shape[0]
    return Tensor(
        a.data[start : start + length],
        (a,),
        (lambda cot: embed(cot, start, total),),
        "narrow",
    )


def embed(a, start: int, total: int) -> Tensor:
    """Place a 1-D tensor into a zero vector of length ``total`` at ``start``."""
    a = as_tensor(a)
    length = a.data.shape[0]
    data = np.zeros(total)
    data[start : start + length] = a.data
    return Tensor(data, (a,), (lambda cot: narrow(cot, start, length),), "embed")


def softplus(a) -> Tensor:
    """Numerically stable ``log(1 + exp(a))``.

    Uses a constant shift ``m = max(a, 0)`` so both exponentials stay in
    (0, 1]; since the shift is constant, derivatives of every order match the
    smooth function exactly (first derivative is the logistic sigmoid).
    """
    a = as_tensor(a)
    m = constant(np.maximum(a.data, 0.0))
    return add(m, log(add(exp(neg(m)), exp(sub(a, m)))))


def logsumexp_rows(a) -> Tensor:
    """Row-wise ``log(sum(exp(a), axis=1))`` for a 2-D tensor, stably."""
    a = as_tensor(a)
    m = np.max(a.data, axis=1, keepdims=True)
    shifted = sub(a, constant(m))
    return add(constant(m[:, 0]), log(tsum(exp(shifted), axis=1)))


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


def backward(output: Tensor, wrt: Sequence[Tensor], create_graph: bool = True) -> list[Tensor]:
    """Reverse-mode pass from a scalar ``output`` to the ``wrt`` leaves.

    Returns one cotangent tensor per entry of ``wrt``. With ``create_graph``
    (the default) the cotangents are graph nodes built from taped operations,
    so they can be fed back into ``backward``; this is how Hessian-vector
    products are formed. Without it, the same values are computed, but no node
    built during the pass records parents, so the cotangents cannot be
    differentiated and the pass costs less. Leaves not reachable from
    ``output`` get a zero cotangent.
    """
    global _recording
    if output.data.ndim != 0:
        raise ValueError("backward requires a scalar output")
    previous, _recording = _recording, create_graph
    try:
        cotangents: dict[Tensor, Tensor] = {output: constant(1.0)}
        for node in reversed(_toposort(output)):
            cot = cotangents.get(node)
            if cot is None:
                continue
            for parent, vjp in zip(node.parents, node.vjps):
                if not parent.needs_grad or vjp is None:
                    continue
                contribution = vjp(cot)
                prev = cotangents.get(parent)
                cotangents[parent] = contribution if prev is None else add(prev, contribution)
        results = []
        for w in wrt:
            cot = cotangents.get(w)
            results.append(cot if cot is not None else constant(np.zeros_like(w.data)))
        return results
    finally:
        _recording = previous


def find_nonfinite(output: Tensor) -> Tensor | None:
    """First node (in forward order) holding a non-finite value, if any."""
    for node in _toposort(output):
        if not np.isfinite(node.data).all():
            return node
    return None


def check_finite(output: Tensor, context: str) -> None:
    """Raise :class:`NumericError` naming the offending op if non-finite."""
    if np.isfinite(output.data).all():
        return
    bad = find_nonfinite(output)
    op = bad.op if bad is not None else "unknown"
    raise NumericError(f"non-finite value in {context} (produced by op '{op}')")
