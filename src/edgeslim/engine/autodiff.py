"""Reverse-mode automatic differentiation over numpy arrays.

Each op builds a :class:`Tensor` node holding the forward value, its parents,
and a closure that routes the incoming gradient to those parents.  Calling
``backward()`` on a scalar walks the tape in reverse topological order.
Nodes whose parents all have ``requires_grad=False`` record no tape at all,
so a forward pass over constant weights (a frozen teacher) costs nothing at
backward time.

There are no generic ops: each node is one fused computation with a
hand-written backward, built with :func:`_node` where it is used.  Here,
``softmax_cross_entropy``, which builds no one-hot array; in
:mod:`edgeslim.engine.layers`, every layer kind, each emitting flat
``(n, output_width)`` rows (one body of GEMM, bias and ReLU for fc, conv
and both factorized kinds, the conv kinds over im2col patch rows; a whole
recurrent cell, on :func:`_stable_sigmoid`); and in
:mod:`edgeslim.distill` the loss: attention read straight off the layer
outputs, logit distillation and the weighted sum.
Parameters are not on the tape: a layer node's only parent is its input,
and its backward assigns the weight gradients to the model's gradient
views.  No node here knows about masks: a gradient is the true derivative
at every entry, and :mod:`edgeslim.engine.model` drops the masked entries
in its SGD step.  Scalars take the dtype of the values they meet (NEP 50),
so float32 backward stays float32.
"""

from __future__ import annotations

import numpy as np


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, parents=(), backward=None, requires_grad=False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = parents if requires_grad else ()
        self._backward = backward if requires_grad else None

    def _accum(self, piece: np.ndarray) -> None:
        # Never mutate in place: the initial assignment may alias an upstream
        # gradient that other closures still read.
        self.grad = piece if self.grad is None else self.grad + piece

    def backward(self) -> None:
        """Backpropagate from this scalar through the recorded tape."""
        if self.data.size != 1:
            raise ValueError(f"backward needs a scalar, got shape {self.data.shape}")
        order = _topo_order(self)
        self.grad = np.array(1, self.data.dtype).reshape(self.data.shape)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _node(data, parents, bwd) -> Tensor:  # ``any`` of a list: a generator costs more
    return Tensor(data, parents, bwd, any([p.requires_grad for p in parents]))


def _topo_order(root: Tensor) -> list[Tensor]:
    """``root`` and the nodes with a backward it reads, each after its inputs."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:  # a Tensor hashes by identity
            continue
        seen.add(node)
        stack.append((node, True))
        for parent in node._parents:
            if parent._backward is not None and parent not in seen:
                stack.append((parent, False))
    return order


# -- elementwise functions --------------------------------------------------


def _stable_sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function of a plain array, into ``out`` if given (which may
    be ``x`` itself); never overflows ``exp``.

    1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below, both from e = exp(-|x|):
    no boolean indexing, and the same bits as evaluating the two branches
    on their halves.  The numerator picks its branch as max(e, x >= 0),
    which is 1 where x >= 0 (there e <= 1), e elsewhere and NaN for NaN,
    the bits of ``np.where(x >= 0, 1.0, e)``, but on ``maximum``'s fast
    loop instead of ``where``'s generic one.  A contiguous (3, 256, 32)
    float32 block, the sigmoid gates of a gate-major LSTM step at batch 256,
    took 39-46 µs against 149-153 µs (best of 7×2000 calls, less the copy
    that refreshes the block; 2-CPU x86_64, numpy 2.4.6).
    ``e`` is worked in place and the quotient written to ``out``, so a call
    allocates three arrays, not seven.  Written over its own (3, 32, 16)
    block, an LSTM step's sigmoid gates in the ``mixed`` bench at batch 32,
    it took 6.7-6.9 µs against 7.0-7.1 µs for the returned quotient
    assigned back (39-46 against 41-42 µs at batch 256; same calls, host).
    """
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    numerator = np.maximum(e, x >= 0)
    e += 1.0
    return np.divide(numerator, e, out=out)


def softmax_cross_entropy(logits: Tensor, labels0: np.ndarray) -> Tensor:
    """Mean negative log-likelihood; ``labels0`` are 0-based class indices.

    Fused op: backward is (softmax - onehot) / n, which avoids a tape through
    exp/log and is exact for extreme logits.  1 comes off each row's label
    entry of the softmax: the bits of subtracting a one-hot array.
    """
    z = logits.data
    n = z.shape[0]
    labels0 = np.asarray(labels0)
    if labels0.shape != (n,):
        raise ValueError(f"labels shape {labels0.shape} does not match batch {n}")
    rows = np.arange(n)
    shifted = z - np.maximum.reduce(z, axis=1, keepdims=True)
    picked = shifted[rows, labels0]
    ex = np.exp(shifted, out=shifted)
    sums = np.add.reduce(ex, axis=1, keepdims=True)
    logp = picked - np.log(sums[:, 0])
    out_data = -(np.add.reduce(logp) / n)

    def bwd(g):
        d = ex / sums
        d[rows, labels0] -= 1
        logits._accum(g * d / n)

    return _node(out_data, (logits,), bwd)
