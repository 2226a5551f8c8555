"""Reverse-mode automatic differentiation over numpy arrays.

Each op builds a :class:`Tensor` node holding the forward value, its parents,
and a closure that routes the incoming gradient to those parents.  Calling
``backward()`` on a scalar walks the tape in reverse topological order.
Nodes whose parents all have ``requires_grad=False`` record no tape at all,
so a forward pass over constant weights (a frozen teacher) costs nothing at
backward time.

Only the ops the engine calls live here.  Hot multi-op computations are fused
into one node with a hand-written backward: ``conv2d``,
``softmax_cross_entropy`` and, in :mod:`edgeslim.engine.layers`, a whole
recurrent cell, which uses :func:`_stable_sigmoid` as its array kernel.
"""

from __future__ import annotations

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
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


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, parents=(), backward=None, requires_grad=False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = parents if requires_grad else ()
        self._backward = backward if requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    def _accum(self, piece: np.ndarray) -> None:
        # Never mutate in place: the initial assignment may alias an upstream
        # gradient that other closures still read.
        self.grad = piece if self.grad is None else self.grad + piece

    def backward(self) -> None:
        """Backpropagate from this scalar through the recorded tape."""
        if self.data.size != 1:
            raise ValueError(f"backward needs a scalar, got shape {self.data.shape}")
        order = _topo_order(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = lift(other)
        out_data = self.data + other.data

        def bwd(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(g, other.data.shape))

        return _node(out_data, (self, other), bwd)

    __radd__ = __add__

    def __mul__(self, other):
        other = lift(other)
        out_data = self.data * other.data

        def bwd(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(g * self.data, other.data.shape))

        return _node(out_data, (self, other), bwd)

    __rmul__ = __mul__

    def __neg__(self):
        def bwd(g):
            self._accum(-g)

        return _node(-self.data, (self,), bwd)

    def __sub__(self, other):
        return self + (-lift(other))

    def __truediv__(self, other):
        other = lift(other)
        out_data = self.data / other.data

        def bwd(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g / other.data, self.data.shape))
            if other.requires_grad:
                other._accum(
                    _unbroadcast(-g * self.data / (other.data * other.data), other.data.shape)
                )

        return _node(out_data, (self, other), bwd)

    def __matmul__(self, other):
        other = lift(other)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise ValueError("matmul expects 2-d operands")
        out_data = self.data @ other.data

        def bwd(g):
            if self.requires_grad:
                self._accum(g @ other.data.T)
            if other.requires_grad:
                other._accum(self.data.T @ g)

        return _node(out_data, (self, other), bwd)

    # -- reductions / shape -------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def bwd(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accum(np.broadcast_to(g, self.data.shape).copy())

        return _node(out_data, (self,), bwd)

    def mean(self, axis=None, keepdims=False):
        count = self.data.size if axis is None else np.prod(
            [self.data.shape[a] for a in np.atleast_1d(axis)]
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def bwd(g):
            self._accum(g.reshape(self.data.shape))

        return _node(out_data, (self,), bwd)


def _node(data, parents, bwd) -> Tensor:
    requires = any(p.requires_grad for p in parents)
    return Tensor(data, parents=parents, backward=bwd, requires_grad=requires)


def lift(value, dtype=None) -> Tensor:
    """Wrap a constant as a gradient-free Tensor; pass Tensors through."""
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


def _topo_order(root: Tensor) -> list[Tensor]:
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


# -- elementwise functions --------------------------------------------------


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function of a plain array; never overflows ``exp``.

    1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below, both from e = exp(-|x|):
    no boolean indexing, and the same bits as evaluating the two branches
    on their halves.
    """
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def relu(t: Tensor) -> Tensor:
    out_data = np.maximum(t.data, 0)

    def bwd(g):
        t._accum(g * (t.data > 0))

    return _node(out_data, (t,), bwd)


def sqrt(t: Tensor) -> Tensor:
    out_data = np.sqrt(t.data)

    def bwd(g):
        t._accum(g * 0.5 / out_data)

    return _node(out_data, (t,), bwd)


def clip_min(t: Tensor, floor: float) -> Tensor:
    """max(t, floor) elementwise; gradient passes only above the floor."""
    out_data = np.maximum(t.data, floor)

    def bwd(g):
        t._accum(g * (t.data > floor))

    return _node(out_data, (t,), bwd)


def conv2d(x: Tensor, weight: Tensor, out_h: int, out_w: int) -> Tensor:
    """Stride-1 valid cross-correlation: (n,C,H,W) * (O,C,f,g) -> (n,O,h,w).

    Runs one einsum per filter tap in both directions; filters here are small
    so the tap loop beats building an im2col buffer.
    """
    xd, wd = x.data, weight.data
    n, channels, H, W = xd.shape
    out_ch, wc, f, g = wd.shape
    if wc != channels:
        raise ValueError(f"conv2d channel mismatch: input {channels}, weight {wc}")
    if (H, W) != (out_h + f - 1, out_w + g - 1):
        raise ValueError(
            f"conv2d spatial mismatch: input {H}x{W}, need {out_h + f - 1}x{out_w + g - 1}"
        )
    out_data = np.zeros((n, out_ch, out_h, out_w), dtype=xd.dtype)
    for u in range(f):
        for v in range(g):
            out_data += np.einsum(
                "ncij,oc->noij", xd[:, :, u : u + out_h, v : v + out_w], wd[:, :, u, v]
            )

    def bwd(grad):
        if weight.requires_grad:
            gw = np.zeros_like(wd)
            for u in range(f):
                for v in range(g):
                    gw[:, :, u, v] = np.einsum(
                        "noij,ncij->oc", grad, xd[:, :, u : u + out_h, v : v + out_w]
                    )
            weight._accum(gw)
        if x.requires_grad:
            gx = np.zeros_like(xd)
            for u in range(f):
                for v in range(g):
                    gx[:, :, u : u + out_h, v : v + out_w] += np.einsum(
                        "noij,oc->ncij", grad, wd[:, :, u, v]
                    )
            x._accum(gx)

    return _node(out_data, (x, weight), bwd)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a plain array (shift-stabilised)."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(logits: Tensor, labels0: np.ndarray) -> Tensor:
    """Mean negative log-likelihood; ``labels0`` are 0-based class indices.

    Fused op: backward is (softmax - onehot) / n, which avoids a tape through
    exp/log and is exact for extreme logits.
    """
    z = logits.data
    n = z.shape[0]
    labels0 = np.asarray(labels0)
    if labels0.shape != (n,):
        raise ValueError(f"labels shape {labels0.shape} does not match batch {n}")
    shifted = z - z.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1))
    logp = shifted[np.arange(n), labels0] - logsumexp
    out_data = np.asarray(-logp.mean(), dtype=z.dtype)

    def bwd(g):
        p = softmax(z)
        p[np.arange(n), labels0] -= 1.0
        logits._accum(g * p / n)

    return _node(out_data, (logits,), bwd)
