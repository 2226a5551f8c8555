"""Generic ``Tensor`` algebra: the reference chains the fused nodes are checked against.

The package builds its tape only from fused nodes with hand-written
backwards.  These elementwise, matrix, reduction and reshape ops build the
same computations one op at a time, each with the textbook backward, so the
tests can compare a fused node with the chain it replaces (``test_fused``),
check each op against finite differences (``test_autodiff``) and sum loss
terms for criterion 2 (``test_acceptance``).  A Python int or float operand
takes its partner's dtype, as :func:`edgeslim.engine.autodiff.scalar` gives it.

:func:`apply_layer` runs a layer kernel on name-keyed parameter dicts.
:func:`fc_attention` feeds plain maps to the package's attention node, for
the tests that check it against these chains or by hand; :func:`guide_targets`
and :func:`attention` run the package's attention targets and node on
layer specs, under one plan of guide and student as ``train`` builds it.
"""

from __future__ import annotations

import numpy as np

from edgeslim import distill
from edgeslim.archspec import LayerKind, LayerSpec
from edgeslim.engine.autodiff import Tensor, _accum, _node
from edgeslim.engine.layers import layer_forward, param_layout
from edgeslim.engine.model import ForwardTrace

LOGITS = LayerSpec(LayerKind.FC, I=1, O=1)


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
    (ca, sa), (cb, sb) = (a.cell, a.data.shape), (b.cell, b.data.shape)

    def bwd(g):
        if ca is not None:
            _accum(ca, unbroadcast(g, sa))
        if cb is not None:
            _accum(cb, unbroadcast(g, sb))

    return _node(a.data + b.data, (a, b), bwd)


def mul(a: Tensor, b) -> Tensor:
    b = as_tensor(b, a.data)
    (ca, da), (cb, db) = (a.cell, a.data), (b.cell, b.data)

    def bwd(g):
        if ca is not None:
            _accum(ca, unbroadcast(g * db, da.shape))
        if cb is not None:
            _accum(cb, unbroadcast(g * da, db.shape))

    return _node(da * db, (a, b), bwd)


def neg(a: Tensor) -> Tensor:
    ca = a.cell
    return _node(-a.data, (a,), lambda g: _accum(ca, -g))


def sub(a: Tensor, b) -> Tensor:
    return add(a, neg(as_tensor(b, a.data)))


def matmul(a: Tensor, b) -> Tensor:
    b = as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul expects 2-d operands")
    (ca, da), (cb, db) = (a.cell, a.data), (b.cell, b.data)

    def bwd(g):
        if ca is not None:
            _accum(ca, g @ db.T)
        if cb is not None:
            _accum(cb, da.T @ g)

    return _node(da @ db, (a, b), bwd)


def total(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """The sum of ``a`` over ``axis`` (all axes by default)."""
    ca, shape = a.cell, a.data.shape

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(ca, np.broadcast_to(g, shape).copy())

    return _node(a.data.sum(axis=axis, keepdims=keepdims), (a,), bwd)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = range(a.data.ndim) if axis is None else np.atleast_1d(axis)
    count = int(np.prod([a.data.shape[i] for i in axes]))
    return mul(total(a, axis=axis, keepdims=keepdims), 1.0 / count)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    ca, before = a.cell, a.data.shape
    return _node(a.data.reshape(shape), (a,), lambda g: _accum(ca, g.reshape(before)))


def apply_layer(layer, params: dict, grads: dict | None, x: Tensor, relu: bool = False) -> Tensor:
    """:func:`edgeslim.engine.layers.layer_forward` on name-keyed ``params``
    and ``grads``, passed in :func:`~edgeslim.engine.layers.param_layout`'s
    order as the layer kernels take them."""
    names = [pdef.name for pdef in param_layout(layer)]
    arrays = tuple(params[name] for name in names)
    views = None if grads is None else tuple(grads[name] for name in names)
    return layer_forward(layer, arrays, views, x, relu)


def guide_targets(trace, layers, student_layers):
    """A guide ``trace``'s attention targets for a student, and the
    :func:`~edgeslim.distill.map_plan` of the two that formed them, in the
    dtype of the guide's outputs."""
    plan = distill.map_plan(layers, student_layers, trace.activations[0].data.dtype)
    return distill.attention_targets(plan, trace), plan


def attention(t_unit, acts, layers, plan) -> Tensor:
    """:func:`edgeslim.distill.attention_loss_node` of the student outputs
    ``acts`` under ``plan``, the :func:`guide_targets` plan for a student
    with specs ``layers``: the plan already holds their map steps."""
    return distill.attention_loss_node(t_unit, acts, plan)


def fc_attention(teachers: list[np.ndarray], students: list[Tensor]) -> Tensor:
    """:func:`edgeslim.distill.attention_loss_node` over plain maps, each read
    as the output of an fc layer, which is its own map: the targets are the
    ``teachers``' unit rows, a map wider than its partner is projected down
    as ``train`` projects it, and the node's parents are ``students``."""
    def fc(maps):  # one fc spec per map, then the logit layer that has none
        return [*(LayerSpec(LayerKind.FC, I=1, O=m.shape[1]) for m in maps), LOGITS]

    plan = distill.map_plan(fc(teachers), fc([s.data for s in students]), teachers[0].dtype)
    guide = ForwardTrace(None, [Tensor(t) for t in teachers], len(teachers[0]))
    return distill.attention_loss_node(distill.attention_targets(plan, guide), students, plan)
