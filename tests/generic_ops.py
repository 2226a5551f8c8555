"""Generic ``Tensor`` algebra: the reference chains the fused nodes are checked against.

The package builds its tape only from fused nodes with hand-written
backwards.  These elementwise, matrix, reduction and reshape ops build the
same computations one op at a time, each with the textbook backward, so the
tests can compare a fused node with the chain it replaces (``test_fused``),
check each op against finite differences (``test_autodiff``) and sum loss
terms for criterion 2 (``test_acceptance``).  A Python int or float operand
takes its partner's dtype, as :func:`edgeslim.engine.autodiff.scalar` gives it.

:func:`fc_attention` feeds plain maps to the package's attention node, for
the tests that check it against these chains or by hand.
"""

from __future__ import annotations

import numpy as np

from edgeslim import distill
from edgeslim.archspec import LayerKind, LayerSpec
from edgeslim.engine.autodiff import Tensor, _node


def scalar(value: float, like: np.ndarray) -> np.ndarray:
    """A Python int or float as the 0-d array NEP 50 gives it against
    ``like``: against float32 it stays float32."""
    return np.asarray(value, dtype=np.result_type(like, value))


def as_tensor(value, like: np.ndarray | None = None) -> Tensor:
    """``value`` itself if it is a Tensor, else a gradient-free constant; a
    Python int or float takes the dtype NEP 50 gives it against ``like``."""
    if isinstance(value, Tensor):
        return value
    if like is not None and type(value) in (int, float):
        return Tensor(scalar(value, like))
    return Tensor(np.asarray(value))


def unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def add(a: Tensor, b) -> Tensor:
    b = as_tensor(b, a.data)

    def bwd(g):
        if a.requires_grad:
            a._accum(unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accum(unbroadcast(g, b.data.shape))

    return _node(a.data + b.data, (a, b), bwd)


def mul(a: Tensor, b) -> Tensor:
    b = as_tensor(b, a.data)

    def bwd(g):
        if a.requires_grad:
            a._accum(unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accum(unbroadcast(g * a.data, b.data.shape))

    return _node(a.data * b.data, (a, b), bwd)


def neg(a: Tensor) -> Tensor:
    return _node(-a.data, (a,), lambda g: a._accum(-g))


def sub(a: Tensor, b) -> Tensor:
    return add(a, neg(as_tensor(b, a.data)))


def matmul(a: Tensor, b) -> Tensor:
    b = as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul expects 2-d operands")

    def bwd(g):
        if a.requires_grad:
            a._accum(g @ b.data.T)
        if b.requires_grad:
            b._accum(a.data.T @ g)

    return _node(a.data @ b.data, (a, b), bwd)


def total(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """The sum of ``a`` over ``axis`` (all axes by default)."""

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accum(np.broadcast_to(g, a.data.shape).copy())

    return _node(a.data.sum(axis=axis, keepdims=keepdims), (a,), bwd)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = range(a.data.ndim) if axis is None else np.atleast_1d(axis)
    count = int(np.prod([a.data.shape[i] for i in axes]))
    return mul(total(a, axis=axis, keepdims=keepdims), 1.0 / count)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    return _node(a.data.reshape(shape), (a,), lambda g: a._accum(g.reshape(a.data.shape)))


def fc_attention(teachers: list[np.ndarray], students: list[Tensor]) -> Tensor:
    """:func:`edgeslim.distill.attention_loss_node` over plain maps, each read
    as the output of an fc layer, which is its own map: the targets are the
    ``teachers``' unit rows, a map wider than its partner is projected down
    as ``train`` projects it, and the node's parents are ``students``."""
    widths = [min(t.shape[1], s.data.shape[1]) for t, s in zip(teachers, students)]
    maps = [
        t if t.shape[1] == w else t @ distill._projection(i, t.shape[1], w).astype(t.dtype)
        for i, (t, w) in enumerate(zip(teachers, widths))
    ]
    segments = distill._segments(widths)
    t_unit = distill._unit_rows(np.concatenate(maps, axis=1), segments)[0]
    layers = [LayerSpec(LayerKind.FC, I=1, O=s.data.shape[1]) for s in students]
    return distill.attention_loss_node(t_unit, students, layers, segments)
