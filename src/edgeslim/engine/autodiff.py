"""Reverse-mode automatic differentiation over numpy arrays, on a Wengert list.

Each op builds a :class:`Tensor` node: its value, a gradient cell (a
one-item list) and its graph's :class:`Tape`, on which the op's backward
goes, a closure that adds a piece of the node's gradient into each input's
cell.  The tape is a Wengert list (Griewank & Walther 2008, *Evaluating
Derivatives*, ch. 3): creation order is topological, so ``backward()``
walks it once, newest node first, and a node's pieces add up in reverse
creation order of its readers, ``(a + t) + s`` for readers made s, t, a.
Where two graphs meet, their tapes join end to end.  Closures hold cells
and arrays, never a Tensor or a tape, so no graph holds a reference cycle;
the walk consumes the tape.  A node whose inputs need no gradient records
nothing, so a frozen teacher's pass costs nothing at backward time.

Each node is one fused computation with a hand-written backward: here,
``softmax_cross_entropy``, which builds no one-hot array; in
:mod:`edgeslim.engine.layers`, every layer kind; in :mod:`edgeslim.distill`
the attention, logit-distillation and weighted-sum loss nodes.  A layer
node's backward assigns the weight gradients, the true derivative at every
entry, to the model's gradient views; :mod:`edgeslim.engine.model` drops
the masked entries in its SGD step.  Scalars take the dtype of the values
they meet (NEP 50), so float32 backward stays float32.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


class Tape:
    """One graph's Wengert list of (backward, gradient cell), None once
    walked; ``into`` is the tape it was joined onto."""

    __slots__ = ("entries", "into")

    def __init__(self) -> None:
        self.entries, self.into = [], None


def _root(tape: Tape | None) -> Tape | None:
    """The tape that ``tape`` was joined onto, or ``tape`` itself."""
    while tape is not None and tape.into is not None:
        tape = tape.into
    return tape


class Tensor:
    """A value, its gradient cell if it needs one, and a node's tape (None for a leaf)."""

    __slots__ = ("data", "cell", "tape")

    def __init__(self, data, requires_grad: bool = False, tape: Tape | None = None):
        self.data = np.asarray(data)
        self.cell = [None] if requires_grad else None
        self.tape = tape

    @property
    def grad(self) -> np.ndarray | None:
        return None if self.cell is None else self.cell[0]

    def backward(self) -> None:
        """Backpropagate from this scalar: walk its tape once, newest node first."""
        if self.data.size != 1:
            raise ValueError(f"backward needs a scalar, got shape {self.data.shape}")
        tape = _root(self.tape) or Tape()
        entries, tape.entries = tape.entries, None
        if entries is None:
            raise ValueError("backward already ran on this graph")
        self.cell = self.cell or [None]
        self.cell[0] = np.array(1, self.data.dtype).reshape(self.data.shape)
        for bwd, cell in reversed(entries):
            if cell[0] is not None:
                bwd(cell[0])


def _accum(cell: list, piece: np.ndarray) -> None:
    """Add ``piece`` into a gradient cell, never in place: the first may alias another's."""
    grad = cell[0]
    cell[0] = piece if grad is None else grad + piece


def _record(data, bwd, tape: Tape | None) -> Tensor:
    """A node of value ``data`` with backward ``bwd(g)`` on ``tape`` (a new one if None)."""
    if tape is None or tape.into is not None:
        tape = _root(tape) or Tape()
    node = Tensor(data, True, tape)
    tape.entries.append((bwd, node.cell))
    return node


def _node(data, parents, bwd) -> Tensor:
    """A node over ``parents``; ``bwd(g)`` adds a piece into the cell of each
    parent that has one.  A constant when no parent needs a gradient."""
    tape, needed = None, False
    for parent in parents:
        needed = needed or parent.cell is not None
        other = parent.tape
        if other is None or other is tape:
            continue
        other = _root(other)
        if tape is None:
            tape = other
        elif other is not tape:  # join the graphs
            tape.entries.extend(other.entries)
            other.entries, other.into = None, tape
    return _record(data, bwd, tape) if needed else Tensor(data)


def _stable_sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function of a plain array, into ``out`` if given (which may
    be ``x`` itself); never overflows ``exp``.

    1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below, both from e = exp(-|x|),
    with the bits of evaluating the two branches on their halves.  The
    numerator max(e, x >= 0) is 1 where x >= 0 (there e <= 1), e elsewhere
    and NaN for NaN: the bits of ``np.where(x >= 0, 1.0, e)`` on a faster
    loop.  ``e`` is worked in place, so a call allocates three arrays.
    """
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    numerator = np.maximum(e, x >= 0)
    e += 1.0
    return np.divide(numerator, e, out=out)


_row_index = lru_cache(maxsize=16)(lambda n: np.broadcast_to(np.arange(n), (n,)))  # read-only


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
    rows = _row_index(n)
    shifted = z - np.maximum.reduce(z, axis=1, keepdims=True)
    picked = shifted[rows, labels0]
    ex = np.exp(shifted, out=shifted)
    sums = np.add.reduce(ex, axis=1, keepdims=True)
    logp = picked - np.log(sums[:, 0])
    cell = logits.cell

    def bwd(g):
        d = ex / sums
        d[rows, labels0] -= 1
        _accum(cell, g * d / n)

    return _node(-(np.add.reduce(logp) / n), (logits,), bwd)
