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

Every layer runs as one tape node with a hand-written backward and emits
flat (n, output_width) rows, the next layer's input as they are.  Its only
input is its rows: the parameters are plain arrays in layout order, and the
backward assigns each gradient to the matching array of ``grads``, the
model's gradient views.  ``fc``, ``factorized_fc``, ``conv`` and
``factorized_conv`` share one node body, each array written once: bias and
ReLU in place, dW and db with ``out=``.  The conv kinds run it over im2col
patch rows (one ``np.take`` through an index cached per input shape) with
the weight read as the (I*f*g, O) matrix of :func:`conv_matrix`, and
scatter the input gradient back with col2im.  A recurrent cell
concatenates its per-gate blocks once, so each product is one GEMM, runs
each step on gate-major (G, n, O) buffers, and writes the gradients of a
hand-written BPTT back to the per-gate arrays, so storage, masks and
checkpoints stay per gate.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from edgeslim.archspec import CONV_KINDS, GATE_NAMES, LayerKind, LayerSpec
from edgeslim.engine.autodiff import Tensor, _accum, _record, _stable_sigmoid


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


def _recurrent_forward(
    x: Tensor,
    layer: LayerSpec,
    params: tuple[np.ndarray, ...],
    grads: tuple[np.ndarray, ...] | None,
) -> Tensor:
    """All s steps of one recurrent cell as a single tape node.

    The per-gate matrices are concatenated once into ``Wx`` (I, G*O) and
    ``Wh`` (O, G*O), so each product is one GEMM.  Every kind lists its
    sigmoid gates first and its tanh candidate last.  GRU and MGU feed the
    candidate ``r*h`` (``f*h`` for MGU) through the candidate's own ``Wh``
    columns.  Step buffers are gate-major, (G, n, O), so every elementwise
    op runs on contiguous (n, O) gate blocks.  The backward is hand-written
    BPTT over the stored gate activations; it copies each step's derivative
    once into a row-major (n, G*O) row for the GEMMs, and assigns each
    gate's ``Wx`` and ``Wh`` columns to the ``[:I]`` and ``[I:]`` rows of
    that gate's gradient in ``grads``; ``params`` and ``grads`` hold every
    gate's W, then every gate's b, in :func:`param_layout`'s order.
    """
    kind = layer.kind
    n = x.data.shape[0]
    I, O, s = layer.I, layer.O, layer.s
    G = len(params) // 2
    Ws = params[:G]
    S = (G - 1) * O  # width of the sigmoid block
    Wx = np.concatenate([W[:I] for W in Ws], axis=1)
    Wh = np.concatenate([W[I:] for W in Ws], axis=1)
    b = np.concatenate(params[G:]).reshape(G, 1, O)
    gated = kind in (LayerKind.GRU, LayerKind.MGU)
    if gated:
        reset = 1 if kind == LayerKind.GRU else 0  # the gate of the candidate's state: r, f
        Wh_sig, Wh_cand = Wh[:, :S].copy(), Wh[:, S:].copy()

    # One GEMM projects all steps; each step's (n, G*O) rows are re-laid in
    # place, through one held row, as its (G, n, O) block gates[t], so no
    # second array of that size is made.  A step overwrites its block with
    # its activated gates.  The bias is added after the state GEMM to keep
    # the rounding of (x@Wx + h@Wh) + b, and step 0 skips the state GEMM
    # because the state starts at zero.  Ops write with ``out=``: a step
    # allocates only in the sigmoid and a GRU/MGU blend.
    xs = x.data.reshape(n, s, I).transpose(1, 0, 2).reshape(s * n, I)
    proj = (xs @ Wx).reshape(s, n, G * O)
    gates, dtype = proj.reshape(s, G, n, O), proj.dtype
    row = np.empty((n, G * O), dtype=dtype)
    for t in range(s):
        np.copyto(row, proj[t])
        np.copyto(gates[t], row.reshape(n, G, O).transpose(1, 0, 2))
    hs = np.zeros((s + 1, n, O), dtype=dtype)  # hs[t] is the state entering step t
    state = np.empty((n, S if gated else G * O), dtype=dtype)  # h @ Wh_sig or h @ Wh
    added = state.reshape(n, -1, O).transpose(1, 0, 2)
    scratch = np.empty((n, O), dtype=dtype)  # hin @ Wh_cand, or i * g
    if gated:
        hin = np.zeros((s, n, O), dtype=dtype)  # gated state fed to the candidate
    else:
        cs = np.zeros((s + 1, n, O), dtype=dtype)  # cell state, indexed like hs
        tcs = np.empty((s, n, O), dtype=dtype)  # tanh of the step's new cell state
    for t in range(s):
        h, a = hs[t], gates[t]
        pre = a[:-1] if gated else a  # the gates fed h itself, not r*h or f*h
        if t:
            np.matmul(h, Wh_sig if gated else Wh, out=state)
            np.add(pre, added, out=pre)
        np.add(pre, b[: len(pre)], out=pre)
        _stable_sigmoid(a[:-1], out=a[:-1])
        if gated:
            np.multiply(a[reset], h, out=hin[t])
            if t:
                np.add(a[-1], np.matmul(hin[t], Wh_cand, out=scratch), out=a[-1])
            np.add(a[-1], b[-1], out=a[-1])
        np.tanh(a[-1], out=a[-1])
        if gated:
            hs[t + 1] = (1.0 - a[0]) * h + a[0] * a[-1]
            continue
        o, g = a[-2], a[-1]
        if kind == LayerKind.LSTM:
            i, f = a[0], a[1]
        else:  # coupled: the input gate is 1 - f, overwritten below by i * g
            f = a[0]
            i = np.subtract(1.0, f, out=scratch)
        c = np.multiply(f, cs[t], out=cs[t + 1])
        np.add(c, np.multiply(i, g, out=scratch), out=c)
        np.multiply(o, np.tanh(c, out=tcs[t]), out=hs[t + 1])
    x_cell = x.cell
    if grads is None and x_cell is None:
        return Tensor(hs[s])

    def bwd(gh):
        d = np.empty((G, n, O), dtype=np.result_type(gh, dtype))  # a step's derivative
        dpre = np.empty((s, n, G * O), dtype=d.dtype)  # every step's, row-major
        dc = np.zeros_like(gh)
        for t in reversed(range(s)):
            h, a = hs[t], gates[t]
            if gated:
                z, cand = a[0], a[-1]
                d[-1] = gh * z * (1.0 - cand * cand)
                d[:-1] = 0.0
                d[0] = gh * (cand - h)
                if t:
                    dhin = d[-1] @ Wh_cand.T
                    d[reset] += dhin * h
            else:
                tc, g = tcs[t], a[-1]
                dc = dc + gh * a[-2] * (1.0 - tc * tc)
                d[-2] = gh * tc
                if kind == LayerKind.LSTM:
                    f = a[1]
                    d[0] = dc * g
                    d[1] = dc * cs[t]
                    d[-1] = dc * a[0]
                else:
                    f = a[0]
                    d[0] = dc * (cs[t] - g)
                    d[-1] = dc * (1.0 - f)
                d[-1] *= 1.0 - g * g
            d[:-1] *= a[:-1] * (1.0 - a[:-1])
            np.copyto(dpre[t].reshape(n, G, O), d.transpose(1, 0, 2))
            if t and gated:
                gh = gh * (1.0 - z) + dhin * a[reset] + dpre[t][:, :S] @ Wh_sig.T
            elif t:
                dc = dc * f
                gh = dpre[t] @ Wh.T
        flat = dpre.reshape(s * n, G * O)
        if x_cell is not None:
            dx = (flat @ Wx.T).reshape(s, n, I).transpose(1, 0, 2).reshape(n, s * I)
            _accum(x_cell, dx)
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
        for k in range(G):
            cols = slice(k * O, (k + 1) * O)
            dW = grads[k]
            dW[:I], dW[I:] = dWx[:, cols], dWh[:, cols]
            grads[G + k][...] = db[cols]

    return _record(hs[s], bwd, x.tape)


def layer_forward(
    layer: LayerSpec,
    params: tuple[np.ndarray, ...],
    grads: tuple[np.ndarray, ...] | None,
    x: Tensor,
    relu: bool = False,
) -> Tensor:
    """Apply one layer to a flat (n, input_width) Tensor as one tape node.

    ``params`` are the parameter arrays in :func:`param_layout`'s order,
    used as stored; ``grads`` holds an array of the same shape per
    parameter, in that order, or is None for a frozen layer, and the node's
    backward assigns each parameter's gradient to it, once.  ``relu``
    rectifies the output of a non-recurrent kind.  The four dense kinds run
    ``rows @ W1 + b1 [@ W2 + b2]`` here, no nonlinearity between factors.
    A run has one dtype (``distill.train`` checks it), so a forward product
    is ``np.dot``, with the bits of ``@``, and a backward product is ``@``
    only under an upstream gradient of another dtype.  The input's gradient
    is computed only when ``x`` needs it.
    """
    if layer.kind in GATE_NAMES:
        if relu:
            raise ValueError(f"{layer.kind.value} layers take no ReLU")
        return _recurrent_forward(x, layer, params, grads)
    W1, b1 = params[0], params[1]
    rows, conv = x.data, None
    if layer.kind in CONV_KINDS:  # im2col rows; conv: (layer, input maps' shape, x's shape)
        conv = layer, (len(rows), layer.I, *layer.input_spatial), rows.shape
        rows = _patches(rows.reshape(len(rows), -1), conv[1][1:], layer.f, layer.g)
        W1 = conv_matrix(W1)
    pre = np.dot(rows, W1)
    pre += b1
    second = None
    if len(params) == 4:
        second = params[2], pre  # the second factor and its input rows
        pre = np.dot(pre, params[2])
        pre += params[3]
    if relu:  # in place: pre > 0 still marks where the ReLU passed
        np.maximum(pre, 0, out=pre)
    out = pre
    if conv:
        n = conv[1][0]
        maps = pre.reshape(n, layer.h, layer.w, layer.O).transpose(0, 3, 1, 2)
        out = np.ascontiguousarray(maps).reshape(n, -1)
    x_cell = x.cell
    if grads is None and x_cell is None:
        return Tensor(out)

    def bwd(g):
        if conv:
            O, h, w = conv[0].O, conv[0].h, conv[0].w
            g = g.reshape(-1, O, h, w).transpose(0, 2, 3, 1).reshape(-1, O)
        if relu:
            g = g * (pre > 0)
        product = np.dot if g.dtype is W1.dtype else np.matmul  # `is`: else @, same bits
        if second:
            if grads is not None:
                np.add.reduce(g, axis=0, out=grads[3])
                product(second[1].T, g, out=grads[2])
            g = product(g, second[0].T)
        if grads is not None:
            np.add.reduce(g, axis=0, out=grads[1])
            if conv:
                conv_matrix(grads[0])[...] = product(rows.T, g)
            else:
                product(rows.T, g, out=grads[0])
        if x_cell is not None:
            g = product(g, W1.T)
            if conv:
                g = _unpatch(g, conv[1], conv[0].f, conv[0].g).reshape(conv[2])
            _accum(x_cell, g)

    return _record(out, bwd, x.tape)
