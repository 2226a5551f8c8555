"""Per-kind parameter layouts and fused forward nodes.

Weight matrices are maskable (connection dropout), biases are not.  The
kernels here are plain dense math over the weights as stored, and write the
true derivative of every weight: the pruning rule, that a masked weight is
zero and its gradient is dropped, lives in :mod:`edgeslim.engine.model`.
Recurrent cells keep one ``(I+O, O)`` matrix and one bias per gate block so
a gate can be re-initialised or dropped wholesale when the cell is rewritten
to its reduced form.  The coupled LSTM derives its input gate as ``1 - f``;
the minimal gated cell uses its single forget gate both to gate the
candidate input and to blend the new state.

Every layer runs as one tape node with a hand-written backward, whatever its
kind, and emits flat (n, output_width) rows, so the next layer takes them as
they are.  Its only parent is its input: the parameters are plain arrays, and
unless the layer is frozen the backward assigns each parameter's gradient to
the matching array of a ``grads`` dict, the model's gradient views.  ``fc``,
``factorized_fc``, ``conv`` and ``factorized_conv`` share one node body:
``np.dot`` of each factor, the bias and an optional ReLU over rows, each
array written once: bias and ReLU in place, dW and db with ``out=``.
The fc kinds take the input's rows as they are; the conv kinds take its
im2col patch rows (one per output pixel, columns in (channel, tap) order,
gathered in one ``np.take`` through an index cached per input shape),
read the conv weight as the (I*f*g, O) matrix of :func:`conv_matrix`, and
scatter the input gradient back with col2im, so a convolution is one GEMM
per factor and direction.  A recurrent cell concatenates its per-gate blocks
for the forward, runs the input projection of all steps as a single GEMM,
and writes the gradients of a hand-written BPTT back to the per-gate
arrays, so storage, masks and checkpoints stay per gate.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from edgeslim.archspec import CONV_KINDS, GATE_NAMES, LayerKind, LayerSpec
from edgeslim.engine.autodiff import Tensor, _stable_sigmoid


class ParamDef(NamedTuple):
    name: str
    shape: tuple[int, ...]
    masked: bool
    fans: tuple[int, int] | None  # (fan_in, fan_out); None for zero-init biases


def param_layout(layer: LayerSpec) -> list[ParamDef]:
    """Ordered parameter definitions for one layer; order fixes RNG draws."""
    I, O = layer.I, layer.O
    kind = layer.kind
    if kind == LayerKind.FC:
        return [
            ParamDef("W", (I, O), True, (I, O)),
            ParamDef("b", (O,), False, None),
        ]
    if kind == LayerKind.CONV:
        f, g = layer.f, layer.g
        return [
            ParamDef("W", (O, I, f, g), True, (I * f * g, O * f * g)),
            ParamDef("b", (O,), False, None),
        ]
    if kind == LayerKind.FACTORIZED_FC:
        R = layer.R
        return [
            ParamDef("W1", (I, R), True, (I, R)),
            ParamDef("b1", (R,), False, None),
            ParamDef("W2", (R, O), True, (R, O)),
            ParamDef("b2", (O,), False, None),
        ]
    if kind == LayerKind.FACTORIZED_CONV:
        f, g, R = layer.f, layer.g, layer.R
        return [
            ParamDef("W1", (R, I, f, g), True, (I * f * g, R * f * g)),
            ParamDef("b1", (R,), False, None),
            ParamDef("W2", (R, O), True, (R, O)),
            ParamDef("b2", (O,), False, None),
        ]
    if kind in GATE_NAMES:
        defs = []
        for gate in GATE_NAMES[kind]:
            defs.append(ParamDef(f"W{gate}", (I + O, O), True, (I + O, O)))
        for gate in GATE_NAMES[kind]:
            defs.append(ParamDef(f"b{gate}", (O,), False, None))
        return defs
    raise ValueError(f"no parameter layout for kind {kind!r}")


def conv_matrix(weight: np.ndarray) -> np.ndarray:
    """A conv weight (O, I, f, g) as the (I*f*g, O) matrix of its GEMM, as a view.

    Rows run over (channel, tap), the column order of :func:`_patches`; the
    compressor factorizes this matrix, and :func:`conv_weight` inverts it.
    """
    return weight.reshape(weight.shape[0], -1).T


def conv_weight(matrix: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The inverse of :func:`conv_matrix`: an (I*f*g, O) matrix as a weight of ``shape``."""
    return matrix.T.reshape(shape)


@lru_cache(maxsize=64)
def _patch_index(c: int, H: int, W: int, f: int, g: int) -> np.ndarray:
    """The flat input offsets that :func:`_patches` reads: row ``i*w + j``,
    column ``(ch*f + u)*g + v`` holds ``ch*H*W + (i+u)*W + (j+v)``."""
    h, w = H - f + 1, W - g + 1
    taps = np.arange(c)[:, None, None] * (H * W) + np.arange(f)[:, None] * W + np.arange(g)
    pixels = np.arange(h)[:, None] * W + np.arange(w)
    index = pixels.reshape(-1, 1) + taps.reshape(1, -1)  # (h*w, c*f*g)
    index.flags.writeable = False
    return index


def _patches(x: np.ndarray, shape: tuple[int, int, int], f: int, g: int) -> np.ndarray:
    """im2col: flat (n, C*H*W) rows of (C, H, W) inputs -> (n*h*w, C*f*g),
    one row per output pixel of the stride-1 valid f x g window, columns in
    (channel, tap) order.  One gather through an index cached per shape."""
    c, H, W = shape
    return np.take(x, _patch_index(c, H, W, f, g), axis=1).reshape(-1, c * f * g)


def _unpatch(rows: np.ndarray, shape: tuple[int, ...], f: int, g: int) -> np.ndarray:
    """col2im, the adjoint of :func:`_patches`: add each patch row's
    gradient back onto the (n, C, H, W) input pixels it was read from."""
    n, c, H, W = shape
    h, w = H - f + 1, W - g + 1
    taps = rows.reshape(n, h, w, c, f, g)
    out = np.zeros(shape, dtype=rows.dtype)
    for u in range(f):
        for v in range(g):
            out[:, :, u : u + h, v : v + w] += taps[..., u, v].transpose(0, 3, 1, 2)
    return out


def _dense_forward(
    x: Tensor,
    layer: LayerSpec,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray] | None,
    relu: bool,
) -> Tensor:
    """One fc, factorized_fc, conv or factorized_conv layer as one tape node.

    All four run ``rows @ W1 + b1 [@ W2 + b2]`` and the optional ReLU: the
    fc kinds over the rows of ``x``, the conv kinds over its im2col patch
    rows with the first weight read as :func:`conv_matrix`, their
    (n*h*w, O) result laid out channel-major, (n, O, h, w), in the flat
    (n, O*h*w) rows that every kind returns.  No nonlinearity between
    factors: together they stand in for one layer.  ``params`` and
    ``grads`` hold (W, b) or (W1, b1, W2, b2), :func:`param_layout`'s
    order.  A product is ``np.dot``, which has the bits of ``@`` where the
    input, the weights and the upstream gradient share one dtype, and ``@``
    where they do not.  The backward writes each dW and db into ``grads`` (a conv kind's first
    dW through :func:`conv_matrix`, a strided view), and computes the
    gradient of the first factor's input only when ``x`` needs it.
    """
    conv = layer.kind in CONV_KINDS
    W1, b1, *second = params.values()
    n = x.data.shape[0]
    rows = x.data
    if conv:
        shape = (layer.I, *layer.input_spatial)
        rows = _patches(rows.reshape(n, -1), shape, layer.f, layer.g)
        W1 = conv_matrix(W1)
    product = np.dot if rows.dtype == W1.dtype else np.matmul
    pre = product(rows, W1)
    pre += b1
    if second:
        W2, b2 = second
        mid = pre  # the second factor's input rows
        pre = product(mid, W2)
        pre += b2
    if relu:  # in place: pre > 0 still marks where the ReLU passed
        np.maximum(pre, 0, out=pre)
    out = pre
    if conv:
        maps = pre.reshape(n, layer.h, layer.w, layer.O).transpose(0, 3, 1, 2)
        out = np.ascontiguousarray(maps).reshape(n, -1)

    def bwd(g):
        if conv:
            g = g.reshape(n, layer.O, layer.h, layer.w).transpose(0, 2, 3, 1).reshape(-1, layer.O)
        if relu:
            g = g * (pre > 0)
        product = np.dot if g.dtype == rows.dtype == W1.dtype else np.matmul
        if grads is not None:
            dW1, db1, *dsecond = grads.values()
        if second:
            if grads is not None:
                dW2, db2 = dsecond
                np.add.reduce(g, axis=0, out=db2)
                product(mid.T, g, out=dW2)
            g = product(g, W2.T)
        if grads is not None:
            np.add.reduce(g, axis=0, out=db1)
            if conv:
                conv_matrix(dW1)[...] = product(rows.T, g)
            else:
                product(rows.T, g, out=dW1)
        if not x.requires_grad:
            return
        g = product(g, W1.T)
        if conv:
            g = _unpatch(g, (n, *shape), layer.f, layer.g).reshape(x.data.shape)
        x._accum(g)

    return Tensor(out, (x,), bwd, x.requires_grad or grads is not None)


def _recurrent_forward(
    x: Tensor, layer: LayerSpec, params: dict[str, np.ndarray], grads: dict[str, np.ndarray] | None
) -> Tensor:
    """All s steps of one recurrent cell as a single tape node.

    The per-gate matrices are concatenated once into ``Wx`` (I, G*O)
    and ``Wh`` (O, G*O); the input projection of every step is one GEMM and
    each step adds one state GEMM.  Every kind lists its sigmoid gates first
    and its tanh candidate last.  GRU and MGU feed the candidate ``r*h``
    (``f*h`` for MGU) through the candidate's own ``Wh`` columns.  The
    backward is hand-written BPTT over the stored gate activations; it
    assigns each gate's ``Wx`` and ``Wh`` columns to the ``[:I]`` and
    ``[I:]`` rows of that gate's gradient in ``grads``.
    """
    kind = layer.kind
    n = x.data.shape[0]
    I, O, s = layer.I, layer.O, layer.s
    gate_names = GATE_NAMES[kind]
    Ws = [params[f"W{gate}"] for gate in gate_names]
    S = (len(Ws) - 1) * O  # width of the sigmoid block
    Wx = np.concatenate([W[:I] for W in Ws], axis=1)
    Wh = np.concatenate([W[I:] for W in Ws], axis=1)
    b = np.concatenate([params[f"b{gate}"] for gate in gate_names])
    gated = kind in (LayerKind.GRU, LayerKind.MGU)
    if gated:
        # the gate that scales the candidate's state: r for GRU, f for MGU
        reset = slice(O, 2 * O) if kind == LayerKind.GRU else slice(0, O)
        Wh_sig, Wh_cand = Wh[:, :S].copy(), Wh[:, S:].copy()

    # Step-major rows, so each step's slice is contiguous.  Each step
    # overwrites its input projection with its activated gates.  The bias is
    # added after the state GEMM to keep the rounding of (x@Wx + h@Wh) + b,
    # and step 0 skips the state GEMM because the state starts at zero.  The
    # LSTM kinds run those ops with ``out=``, into the gate, state and
    # scratch arrays below, so a step allocates only inside the sigmoid.
    xs = x.data.reshape(n, s, I).transpose(1, 0, 2).reshape(s * n, I)
    gates = (xs @ Wx).reshape(s, n, -1)
    dtype = gates.dtype
    hs = np.zeros((s + 1, n, O), dtype=dtype)  # hs[t] is the state entering step t
    if gated:
        hin = np.zeros((s, n, O), dtype=dtype)  # gated state fed to the candidate
    else:
        cs = np.zeros((s + 1, n, O), dtype=dtype)  # cell state, indexed like hs
        tcs = np.empty((s, n, O), dtype=dtype)  # tanh of the step's new cell state
        state = np.empty((n, len(Ws) * O), dtype=dtype)  # h @ Wh
        ig = np.empty((n, O), dtype=dtype)  # i * g
        if kind == LayerKind.COUPLED_LSTM:
            coupled = np.empty((n, O), dtype=dtype)  # the input gate 1 - f
    for t in range(s):
        h, a = hs[t], gates[t]
        if gated:
            a[:, :S] = _stable_sigmoid((a[:, :S] + h @ Wh_sig if t else a[:, :S]) + b[:S])
            hin[t] = a[:, reset] * h
            a[:, S:] = np.tanh((a[:, S:] + hin[t] @ Wh_cand if t else a[:, S:]) + b[S:])
            z, cand = a[:, :O], a[:, S:]
            hs[t + 1] = (1.0 - z) * h + z * cand
        else:
            if t:
                np.add(a, np.matmul(h, Wh, out=state), out=a)
            np.add(a, b, out=a)
            _stable_sigmoid(a[:, :S], out=a[:, :S])
            np.tanh(a[:, S:], out=a[:, S:])
            o, g = a[:, S - O : S], a[:, S:]
            if kind == LayerKind.LSTM:
                i, f = a[:, :O], a[:, O : 2 * O]
            else:  # coupled: the input gate is 1 - f
                f = a[:, :O]
                i = np.subtract(1.0, f, out=coupled)
            c = np.multiply(f, cs[t], out=cs[t + 1])
            np.add(c, np.multiply(i, g, out=ig), out=c)
            np.multiply(o, np.tanh(c, out=tcs[t]), out=hs[t + 1])

    def bwd(gh):
        dpre = np.empty(gates.shape, dtype=np.result_type(gh, dtype))
        dc = np.zeros_like(gh)
        for t in reversed(range(s)):
            h, a, d = hs[t], gates[t], dpre[t]
            if gated:
                z, cand = a[:, :O], a[:, S:]
                d[:, S:] = gh * z * (1.0 - cand * cand)
                d[:, :S] = 0.0
                d[:, :O] = gh * (cand - h)
                if t:
                    dhin = d[:, S:] @ Wh_cand.T
                    d[:, reset] += dhin * h
                d[:, :S] *= a[:, :S] * (1.0 - a[:, :S])
                if t:
                    gh = gh * (1.0 - z) + dhin * a[:, reset] + d[:, :S] @ Wh_sig.T
            else:
                tc, g = tcs[t], a[:, S:]
                dc = dc + gh * a[:, S - O : S] * (1.0 - tc * tc)
                d[:, S - O : S] = gh * tc
                if kind == LayerKind.LSTM:
                    f = a[:, O : 2 * O]
                    d[:, :O] = dc * g
                    d[:, O : 2 * O] = dc * cs[t]
                    d[:, S:] = dc * a[:, :O]
                else:
                    f = a[:, :O]
                    d[:, :O] = dc * (cs[t] - g)
                    d[:, S:] = dc * (1.0 - f)
                d[:, :S] *= a[:, :S] * (1.0 - a[:, :S])
                d[:, S:] *= 1.0 - g * g
                if t:
                    dc = dc * f
                    gh = d @ Wh.T
        flat = dpre.reshape(s * n, -1)
        if x.requires_grad:
            dx = (flat @ Wx.T).reshape(s, n, I).transpose(1, 0, 2).reshape(n, s * I)
            x._accum(dx)
        if grads is None:
            return
        dWx = xs.T @ flat
        states = hs[:s].reshape(s * n, O).T
        if gated:
            dWh = np.concatenate(
                [states @ flat[:, :S], hin.reshape(s * n, O).T @ flat[:, S:]], axis=1
            )
        else:
            dWh = states @ flat
        db = flat.sum(axis=0)
        for k, gate in enumerate(gate_names):
            cols = slice(k * O, (k + 1) * O)
            dW = grads[f"W{gate}"]
            dW[:I], dW[I:] = dWx[:, cols], dWh[:, cols]
            grads[f"b{gate}"][...] = db[cols]

    return Tensor(hs[s], (x,), bwd, x.requires_grad or grads is not None)


def layer_forward(
    layer: LayerSpec,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray] | None,
    x: Tensor,
    relu: bool = False,
) -> Tensor:
    """Apply one layer to a flat (n, input_width) Tensor as one tape node.

    ``params`` are the parameter arrays, used as stored.  ``grads`` holds an
    array of the same shape per parameter, or is None for a frozen layer;
    the node's backward assigns each parameter's gradient to it, once.
    ``relu`` rectifies the output of a non-recurrent kind.  Every kind
    returns (n, output_width) rows, the next layer's input as it is: a conv
    kind's row holds its (O, h, w) maps channel-major.
    """
    kind = layer.kind
    if kind in GATE_NAMES:
        if relu:
            raise ValueError(f"{kind.value} layers take no ReLU")
        return _recurrent_forward(x, layer, params, grads)
    return _dense_forward(x, layer, params, grads, relu)
