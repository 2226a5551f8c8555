"""Per-kind parameter layouts and fused forward nodes.

Weight matrices are maskable (connection dropout), biases are not.  Recurrent
cells keep one ``(I+O, O)`` matrix and one bias per gate block so a gate can
be re-initialised or dropped wholesale when the cell is rewritten to its
reduced form.  The coupled LSTM derives its input gate as ``1 - f``; the
minimal gated cell uses its single forget gate both to gate the candidate
input and to blend the new state.

Every layer runs as one tape node with a hand-written backward, whatever its
kind.  ``fc``, ``factorized_fc``, ``conv`` and ``factorized_conv`` (its 1x1
channel mix included) each fold ``W * mask``, the GEMM or tap-loop
convolution, the bias and an optional ReLU into their node; the backward runs
the same numpy operations, in the same order, as the chain of generic tape
ops it replaces, so results are bit-identical to it.  A recurrent cell
concatenates its masked per-gate blocks for the forward, runs the input
projection of all steps as a single GEMM, and scatters the gradients of a
hand-written BPTT back to the per-gate tensors, so storage, masks and
checkpoints stay per gate.  Gradients of masked weights are multiplied by
the mask, so masked entries get exactly zero and never revive.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from edgeslim.archspec import LayerKind, LayerSpec
from edgeslim.engine.autodiff import Tensor, _node, _stable_sigmoid, _unbroadcast


class ParamDef(NamedTuple):
    name: str
    shape: tuple[int, ...]
    masked: bool
    fans: tuple[int, int] | None  # (fan_in, fan_out); None for zero-init biases


GATE_NAMES = {
    LayerKind.LSTM: ("i", "f", "o", "g"),
    LayerKind.COUPLED_LSTM: ("f", "o", "g"),
    LayerKind.GRU: ("z", "r", "h"),
    LayerKind.MGU: ("f", "h"),
}


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


Masks = dict[str, np.ndarray] | None


def _masked(params: dict[str, Tensor], masks: Masks, name: str) -> np.ndarray:
    """The weight a layer computes with: ``W * mask``, or ``W`` when unmasked."""
    weight = params[name].data
    return weight if masks is None else weight * masks[name]


def _unmask(grad: np.ndarray, masks: Masks, name: str) -> np.ndarray:
    """A weight's gradient with masked entries exactly zero."""
    return grad if masks is None else grad * masks[name]


def _conv(x4: np.ndarray, weight: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Stride-1 valid cross-correlation: (n,C,H,W) * (O,C,f,g) -> (n,O,h,w).

    One einsum per filter tap; filters here are small, so the tap loop beats
    building an im2col buffer.
    """
    out_ch, _, f, g = weight.shape
    out = np.zeros((x4.shape[0], out_ch, out_h, out_w), dtype=x4.dtype)
    for u in range(f):
        for v in range(g):
            out += np.einsum(
                "ncij,oc->noij", x4[:, :, u : u + out_h, v : v + out_w], weight[:, :, u, v]
            )
    return out


def _conv_weight_grad(grad: np.ndarray, x4: np.ndarray, weight: np.ndarray) -> np.ndarray:
    _, _, f, g = weight.shape
    out_h, out_w = grad.shape[2:]
    gw = np.zeros_like(weight)
    for u in range(f):
        for v in range(g):
            gw[:, :, u, v] = np.einsum(
                "noij,ncij->oc", grad, x4[:, :, u : u + out_h, v : v + out_w]
            )
    return gw


def _conv_input_grad(grad: np.ndarray, x4: np.ndarray, weight: np.ndarray) -> np.ndarray:
    _, _, f, g = weight.shape
    out_h, out_w = grad.shape[2:]
    gx = np.zeros_like(x4)
    for u in range(f):
        for v in range(g):
            gx[:, :, u : u + out_h, v : v + out_w] += np.einsum(
                "noij,oc->ncij", grad, weight[:, :, u, v]
            )
    return gx


def _relu(pre: np.ndarray, relu: bool) -> np.ndarray:
    return np.maximum(pre, 0) if relu else pre


def _fc_forward(x: Tensor, params: dict[str, Tensor], masks: Masks, relu: bool) -> Tensor:
    w, b = params["W"], params["b"]
    xd, W = x.data, _masked(params, masks, "W")
    pre = xd @ W + b.data

    def bwd(g):
        if relu:
            g = g * (pre > 0)
        if b.requires_grad:
            b._accum(_unbroadcast(g, b.data.shape))
        if x.requires_grad:
            x._accum(g @ W.T)
        if w.requires_grad:
            w._accum(_unmask(xd.T @ g, masks, "W"))

    return _node(_relu(pre, relu), (x, w, b), bwd)


def _factorized_fc_forward(
    x: Tensor, params: dict[str, Tensor], masks: Masks, relu: bool
) -> Tensor:
    # No nonlinearity between factors: together they stand in for one layer.
    w1, b1, w2, b2 = params["W1"], params["b1"], params["W2"], params["b2"]
    xd, W1, W2 = x.data, _masked(params, masks, "W1"), _masked(params, masks, "W2")
    mid = xd @ W1 + b1.data
    pre = mid @ W2 + b2.data

    def bwd(g):
        if relu:
            g = g * (pre > 0)
        if b2.requires_grad:
            b2._accum(_unbroadcast(g, b2.data.shape))
        if w2.requires_grad:
            w2._accum(_unmask(mid.T @ g, masks, "W2"))
        if not (x.requires_grad or w1.requires_grad or b1.requires_grad):
            return
        gmid = g @ W2.T
        if b1.requires_grad:
            b1._accum(_unbroadcast(gmid, b1.data.shape))
        if x.requires_grad:
            x._accum(gmid @ W1.T)
        if w1.requires_grad:
            w1._accum(_unmask(xd.T @ gmid, masks, "W1"))

    return _node(_relu(pre, relu), (x, w1, b1, w2, b2), bwd)


def _conv_forward(
    x: Tensor, layer: LayerSpec, params: dict[str, Tensor], masks: Masks, relu: bool
) -> Tensor:
    w, b = params["W"], params["b"]
    x4 = x.data.reshape(x.data.shape[0], layer.I, *layer.input_spatial)
    W = _masked(params, masks, "W")
    pre = _conv(x4, W, layer.h, layer.w) + b.data.reshape(1, layer.O, 1, 1)

    def bwd(g):
        if relu:
            g = g * (pre > 0)
        if b.requires_grad:
            b._accum(_unbroadcast(g, (1, layer.O, 1, 1)).reshape(layer.O))
        if w.requires_grad:
            w._accum(_unmask(_conv_weight_grad(g, x4, W), masks, "W"))
        if x.requires_grad:
            x._accum(_conv_input_grad(g, x4, W).reshape(x.data.shape))

    return _node(_relu(pre, relu), (x, w, b), bwd)


def _factorized_conv_forward(
    x: Tensor, layer: LayerSpec, params: dict[str, Tensor], masks: Masks, relu: bool
) -> Tensor:
    """An R-filter conv, then a 1x1 channel mix (n,R,h,w) @ (R,O) -> (n,O,h,w)."""
    w1, b1, w2, b2 = params["W1"], params["b1"], params["W2"], params["b2"]
    x4 = x.data.reshape(x.data.shape[0], layer.I, *layer.input_spatial)
    W1, W2 = _masked(params, masks, "W1"), _masked(params, masks, "W2")
    mid = _conv(x4, W1, layer.h, layer.w) + b1.data.reshape(1, layer.R, 1, 1)
    pre = np.einsum("nrij,ro->noij", mid, W2) + b2.data.reshape(1, layer.O, 1, 1)

    def bwd(g):
        if relu:
            g = g * (pre > 0)
        if b2.requires_grad:
            b2._accum(_unbroadcast(g, (1, layer.O, 1, 1)).reshape(layer.O))
        if w2.requires_grad:
            w2._accum(_unmask(np.einsum("noij,nrij->ro", g, mid), masks, "W2"))
        if not (x.requires_grad or w1.requires_grad or b1.requires_grad):
            return
        gmid = np.einsum("noij,ro->nrij", g, W2)
        if b1.requires_grad:
            b1._accum(_unbroadcast(gmid, (1, layer.R, 1, 1)).reshape(layer.R))
        if w1.requires_grad:
            w1._accum(_unmask(_conv_weight_grad(gmid, x4, W1), masks, "W1"))
        if x.requires_grad:
            x._accum(_conv_input_grad(gmid, x4, W1).reshape(x.data.shape))

    return _node(_relu(pre, relu), (x, w1, b1, w2, b2), bwd)


def _recurrent_forward(
    x: Tensor, layer: LayerSpec, params: dict[str, Tensor], masks: Masks
) -> Tensor:
    """All s steps of one recurrent cell as a single tape node.

    The masked per-gate matrices are concatenated once into ``Wx`` (I, G*O)
    and ``Wh`` (O, G*O); the input projection of every step is one GEMM and
    each step adds one state GEMM.  Every kind lists its sigmoid gates first
    and its tanh candidate last.  GRU and MGU feed the candidate ``r*h``
    (``f*h`` for MGU) through the candidate's own ``Wh`` columns.  The
    backward is hand-written BPTT over the stored gate activations and
    scatters the weight gradients back to the per-gate tensors.
    """
    kind = layer.kind
    n = x.data.shape[0]
    I, O, s = layer.I, layer.O, layer.s
    names = [f"W{gate}" for gate in GATE_NAMES[kind]]
    Ws = [params[name] for name in names]
    bs = [params[f"b{gate}"] for gate in GATE_NAMES[kind]]
    S = (len(Ws) - 1) * O  # width of the sigmoid block
    masked = [_masked(params, masks, name) for name in names]
    Wx = np.concatenate([W[:I] for W in masked], axis=1)
    Wh = np.concatenate([W[I:] for W in masked], axis=1)
    b = np.concatenate([t.data for t in bs])
    gated = kind in (LayerKind.GRU, LayerKind.MGU)
    if gated:
        # the gate that scales the candidate's state: r for GRU, f for MGU
        reset = slice(O, 2 * O) if kind == LayerKind.GRU else slice(0, O)
        Wh_sig, Wh_cand = Wh[:, :S].copy(), Wh[:, S:].copy()

    # Step-major rows, so each step's slice is contiguous.  Each step
    # overwrites its input projection with its activated gates.  The bias is
    # added after the state GEMM to keep the rounding of (x@Wx + h@Wh) + b,
    # and step 0 skips the state GEMM because the state starts at zero.
    xs = x.data.reshape(n, s, I).transpose(1, 0, 2).reshape(s * n, I)
    gates = (xs @ Wx).reshape(s, n, -1)
    dtype = gates.dtype
    hs = np.zeros((s + 1, n, O), dtype=dtype)  # hs[t] is the state entering step t
    if gated:
        hin = np.zeros((s, n, O), dtype=dtype)  # gated state fed to the candidate
    else:
        cs = np.zeros((s + 1, n, O), dtype=dtype)  # cell state, indexed like hs
        tcs = np.empty((s, n, O), dtype=dtype)  # tanh of the step's new cell state
    for t in range(s):
        h, a = hs[t], gates[t]
        if gated:
            a[:, :S] = _stable_sigmoid((a[:, :S] + h @ Wh_sig if t else a[:, :S]) + b[:S])
            hin[t] = a[:, reset] * h
            a[:, S:] = np.tanh((a[:, S:] + hin[t] @ Wh_cand if t else a[:, S:]) + b[S:])
            z, cand = a[:, :O], a[:, S:]
            hs[t + 1] = (1.0 - z) * h + z * cand
        else:
            pre = (a + h @ Wh if t else a) + b
            a[:, :S] = _stable_sigmoid(pre[:, :S])
            a[:, S:] = np.tanh(pre[:, S:])
            o, g = a[:, S - O : S], a[:, S:]
            if kind == LayerKind.LSTM:
                i, f = a[:, :O], a[:, O : 2 * O]
            else:  # coupled: the input gate is 1 - f
                f = a[:, :O]
                i = 1.0 - f
            cs[t + 1] = f * cs[t] + i * g
            tcs[t] = np.tanh(cs[t + 1])
            hs[t + 1] = o * tcs[t]

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
        dWx = xs.T @ flat
        states = hs[:s].reshape(s * n, O).T
        if gated:
            dWh = np.concatenate(
                [states @ flat[:, :S], hin.reshape(s * n, O).T @ flat[:, S:]], axis=1
            )
        else:
            dWh = states @ flat
        db = flat.sum(axis=0)
        for k, (name, W, bias) in enumerate(zip(names, Ws, bs)):
            cols = slice(k * O, (k + 1) * O)
            if W.requires_grad:
                dW = np.concatenate([dWx[:, cols], dWh[:, cols]], axis=0)
                W._accum(_unmask(dW, masks, name))
            if bias.requires_grad:
                bias._accum(db[cols])

    return _node(hs[s], (x, *Ws, *bs), bwd)


def layer_forward(
    layer: LayerSpec,
    params: dict[str, Tensor],
    x: Tensor,
    masks: Masks = None,
    relu: bool = False,
) -> Tensor:
    """Apply one layer to a flat (n, input_width) Tensor as one tape node.

    ``params`` are the raw leaves; ``masks`` (None: unmasked) multiply the
    weights inside the node, and ``relu`` rectifies the output of a
    non-recurrent kind.  Returns the natural-shape output: (n,O) for dense
    and recurrent kinds, (n,O,h,w) for conv kinds.  The caller flattens
    before the next layer.
    """
    kind = layer.kind
    if kind in GATE_NAMES:
        if relu:
            raise ValueError(f"{kind.value} layers take no ReLU")
        return _recurrent_forward(x, layer, params, masks)
    if kind == LayerKind.FC:
        return _fc_forward(x, params, masks, relu)
    if kind == LayerKind.FACTORIZED_FC:
        return _factorized_fc_forward(x, params, masks, relu)
    if kind == LayerKind.CONV:
        return _conv_forward(x, layer, params, masks, relu)
    if kind == LayerKind.FACTORIZED_CONV:
        return _factorized_conv_forward(x, layer, params, masks, relu)
    raise ValueError(f"no forward rule for kind {kind!r}")
