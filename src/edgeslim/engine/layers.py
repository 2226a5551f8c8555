"""Per-kind parameter layouts and forward builders.

Weight matrices are maskable (connection dropout), biases are not.  Recurrent
cells keep one ``(I+O, O)`` matrix and one bias per gate block so a gate can
be re-initialised or dropped wholesale when the cell is rewritten to its
reduced form.  The coupled LSTM derives its input gate as ``1 - f``; the
minimal gated cell uses its single forget gate both to gate the candidate
input and to blend the new state.

A recurrent cell runs as one fused tape node per layer: the per-gate blocks
are concatenated for the forward, the input projection of all steps is a
single GEMM, and a hand-written BPTT scatters the gradients back to the
per-gate tensors, so storage, masks and checkpoints stay per gate.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from edgeslim.archspec import LayerKind, LayerSpec
from edgeslim.engine import autodiff as ad
from edgeslim.engine.autodiff import Tensor, _node, _stable_sigmoid


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


def channel_mix(x: Tensor, weight: Tensor) -> Tensor:
    """1x1 channel mixing: (n,R,h,w) with (R,O) -> (n,O,h,w)."""
    xd, wd = x.data, weight.data
    out_data = np.einsum("nrij,ro->noij", xd, wd)

    def bwd(g):
        if weight.requires_grad:
            weight._accum(np.einsum("noij,nrij->ro", g, xd))
        if x.requires_grad:
            x._accum(np.einsum("noij,ro->nrij", g, wd))

    return _node(out_data, (x, weight), bwd)


def _dense_forward(x: Tensor, params: dict[str, Tensor]) -> Tensor:
    return x @ params["W"] + params["b"]


def _factorized_fc_forward(x: Tensor, params: dict[str, Tensor]) -> Tensor:
    # No nonlinearity between factors: together they stand in for one layer.
    return (x @ params["W1"] + params["b1"]) @ params["W2"] + params["b2"]


def _conv_forward(x: Tensor, layer: LayerSpec, params: dict[str, Tensor]) -> Tensor:
    n = x.data.shape[0]
    H, W = layer.input_spatial
    x4 = x.reshape(n, layer.I, H, W)
    out = ad.conv2d(x4, params["W"], layer.h, layer.w)
    return out + params["b"].reshape(1, layer.O, 1, 1)


def _factorized_conv_forward(x: Tensor, layer: LayerSpec, params: dict[str, Tensor]) -> Tensor:
    n = x.data.shape[0]
    H, W = layer.input_spatial
    x4 = x.reshape(n, layer.I, H, W)
    mid = ad.conv2d(x4, params["W1"], layer.h, layer.w)
    mid = mid + params["b1"].reshape(1, layer.R, 1, 1)
    out = channel_mix(mid, params["W2"])
    return out + params["b2"].reshape(1, layer.O, 1, 1)


def _recurrent_forward(x: Tensor, layer: LayerSpec, params: dict[str, Tensor]) -> Tensor:
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
    Ws = [params[f"W{gate}"] for gate in GATE_NAMES[kind]]
    bs = [params[f"b{gate}"] for gate in GATE_NAMES[kind]]
    S = (len(Ws) - 1) * O  # width of the sigmoid block
    Wx = np.concatenate([W.data[:I] for W in Ws], axis=1)
    Wh = np.concatenate([W.data[I:] for W in Ws], axis=1)
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
        for k, (W, bias) in enumerate(zip(Ws, bs)):
            cols = slice(k * O, (k + 1) * O)
            if W.requires_grad:
                W._accum(np.concatenate([dWx[:, cols], dWh[:, cols]], axis=0))
            if bias.requires_grad:
                bias._accum(db[cols])

    return _node(hs[s], (x, *Ws, *bs), bwd)


def layer_forward(layer: LayerSpec, params: dict[str, Tensor], x: Tensor) -> Tensor:
    """Apply one layer to a flat (n, input_width) Tensor.

    Returns the natural-shape output: (n,O) for dense and recurrent kinds,
    (n,O,h,w) for conv kinds.  The caller flattens before the next layer.
    """
    kind = layer.kind
    if kind == LayerKind.FC:
        return _dense_forward(x, params)
    if kind == LayerKind.FACTORIZED_FC:
        return _factorized_fc_forward(x, params)
    if kind == LayerKind.CONV:
        return _conv_forward(x, layer, params)
    if kind == LayerKind.FACTORIZED_CONV:
        return _factorized_conv_forward(x, layer, params)
    if kind in GATE_NAMES:
        return _recurrent_forward(x, layer, params)
    raise ValueError(f"no forward rule for kind {kind!r}")
