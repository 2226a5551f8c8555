"""Masked models: parameter storage, forward traces, SGD, checkpoints.

A model is its architecture descriptor plus per-layer parameter arrays and
binary masks over the weight matrices.  The forward pass multiplies each
weight by its mask inside the layer's tape node, so gradients at masked
entries are exactly zero and pruned connections never revive.  Class labels
are 1-based everywhere outside this module; logits columns map to labels
1..k.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field

import numpy as np

from edgeslim.archspec import (
    RECURRENT_KINDS,
    LayerSpec,
    NetworkSpec,
    network_from_dict,
    network_to_dict,
)
from edgeslim.engine import autodiff as ad
from edgeslim.engine.autodiff import Tensor, softmax_cross_entropy
from edgeslim.engine.layers import ParamDef, layer_forward, param_layout

CHECKPOINT_FORMAT = "edgeslim-checkpoint"
CHECKPOINT_VERSION = 1


class TrainingDiverged(RuntimeError):
    """Raised when a gradient or update goes non-finite."""


@dataclass
class LayerParams:
    params: dict[str, np.ndarray]
    masks: dict[str, np.ndarray]


@dataclass
class MaskedModel:
    spec: NetworkSpec
    layers: list[LayerParams]
    dtype: np.dtype


def init_layer_params(layer: LayerSpec, rng: np.random.Generator, dtype) -> LayerParams:
    """Fresh parameters: uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases."""
    params, masks = {}, {}
    for pdef in param_layout(layer):
        if pdef.fans is None:
            value = np.zeros(pdef.shape, dtype=dtype)
        else:
            fan_in, fan_out = pdef.fans
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            value = rng.uniform(-limit, limit, size=pdef.shape).astype(dtype)
        params[pdef.name] = value
        if pdef.masked:
            masks[pdef.name] = np.ones(pdef.shape, dtype=dtype)
    return LayerParams(params=params, masks=masks)


def init_model(spec: NetworkSpec, seed: int, dtype=np.float32) -> MaskedModel:
    """Deterministically initialise a model; draw order is layer then layout order."""
    rng = np.random.default_rng(seed)
    dtype = np.dtype(dtype)
    layers = [init_layer_params(layer, rng, dtype) for layer in spec.layers]
    return MaskedModel(spec=spec, layers=layers, dtype=dtype)


def copy_model(model: MaskedModel) -> MaskedModel:
    layers = [
        LayerParams(
            params={k: v.copy() for k, v in lp.params.items()},
            masks={k: v.copy() for k, v in lp.masks.items()},
        )
        for lp in model.layers
    ]
    return MaskedModel(spec=model.spec, layers=layers, dtype=model.dtype)


def connection_count(model: MaskedModel) -> int:
    """Number of surviving (unmasked) weight connections."""
    return int(sum(mask.sum() for lp in model.layers for mask in lp.masks.values()))


@dataclass
class ForwardTrace:
    """One forward pass: logits, per-layer outputs, and the parameter leaves."""

    logits: Tensor
    activations: list[Tensor]
    leaves: list[dict[str, Tensor]]
    batch_size: int

    @property
    def predictions(self) -> np.ndarray:
        """Predicted labels, 1-based."""
        return np.argmax(self.logits.data, axis=1) + 1


def forward(
    model: MaskedModel,
    x: np.ndarray | Tensor,
    trainable: bool = True,
    start: int = 0,
    stop: int | None = None,
) -> ForwardTrace:
    """Run layers ``start..stop-1`` of the network on a (n, width) batch.

    Each layer is one tape node over its raw parameter leaves and masks.
    Hidden conv/dense layers get a ReLU; recurrent outputs and final logits
    pass through raw.  ``stop`` defaults to the depth.

    A partial range splits one pass into a head and a tail: the head's
    ``logits`` is its last layer's output flattened to (n, width), which is
    exactly the ``x`` the tail (``start`` = the head's ``stop``) takes, as a
    Tensor, so the tail extends the head's tape.  Joining the head's and the
    tail's ``activations`` and ``leaves`` gives the trace of a full pass,
    with bit-identical values.  Two tails that start from one head share its
    nodes, so one backward sums both tails' gradients into the head.  The
    logits-shape check applies only when ``stop`` is the depth.
    """
    depth = len(model.spec.layers)
    stop = depth if stop is None else stop
    if not 0 <= start <= stop <= depth:
        raise ValueError(f"layer range {start}..{stop} does not fit depth {depth}")
    if not isinstance(x, Tensor):
        x = ad.lift(np.asarray(x).astype(model.dtype, copy=False))
    if x.data.ndim != 2:
        raise ValueError(f"input must be 2-d (batch, features), got shape {x.data.shape}")
    if start < depth:
        expect = model.spec.layers[start].input_width
        if x.data.shape[1] != expect:
            raise ValueError(
                f"input width {x.data.shape[1]} does not match layer {start} ({expect})"
            )
    n = x.data.shape[0]
    cur = x
    activations: list[Tensor] = []
    leaves: list[dict[str, Tensor]] = []
    last = depth - 1
    for idx in range(start, stop):
        layer, lp = model.spec.layers[idx], model.layers[idx]
        layer_leaves = {
            name: Tensor(arr, requires_grad=trainable) for name, arr in lp.params.items()
        }
        relu = idx != last and layer.kind not in RECURRENT_KINDS
        out = layer_forward(layer, layer_leaves, cur, lp.masks, relu)
        activations.append(out)
        leaves.append(layer_leaves)
        flat = (n, layer.output_width)
        cur = out if out.data.shape == flat else out.reshape(flat)
    if stop == depth and cur.data.shape != (n, model.spec.class_count):
        raise ValueError(
            f"logits shape {cur.data.shape} does not match class count "
            f"{model.spec.class_count}"
        )
    return ForwardTrace(logits=cur, activations=activations, leaves=leaves, batch_size=n)


def cross_entropy_node(trace: ForwardTrace, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of a trace against 1-based labels, as a tape node."""
    labels = np.asarray(labels)
    k = trace.logits.data.shape[1]
    if labels.min(initial=1) < 1 or labels.max(initial=k) > k:
        raise ValueError(f"labels must lie in 1..{k}")
    return softmax_cross_entropy(trace.logits, labels - 1)


def backward(model: MaskedModel, trace: ForwardTrace, loss: Tensor) -> list[dict[str, np.ndarray]]:
    """Backpropagate ``loss`` (once) and collect this model's gradients.

    When several traces feed one loss, call this per model; the tape runs on
    the first call only.  Leaves that the loss never touched get zeros.
    """
    if loss.grad is None:
        loss.backward()
    grads = []
    for layer_leaves in trace.leaves:
        layer_grads = {}
        for name, leaf in layer_leaves.items():
            g = leaf.grad
            layer_grads[name] = np.zeros_like(leaf.data) if g is None else g
        grads.append(layer_grads)
    return grads


def check_learning_rate(eta: float, name: str = "eta") -> None:
    """An SGD step size must be positive and finite."""
    if not (math.isfinite(eta) and eta > 0):
        raise ValueError(f"{name} must be positive and finite, got {eta!r}")


def sgd_update(param: np.ndarray, grad: np.ndarray, eta: float, name: str) -> None:
    """In-place ``param -= eta * grad``, with the gradient cast to the
    parameter's dtype first.  A non-finite gradient raises
    :class:`TrainingDiverged` and leaves ``param`` untouched."""
    if not np.all(np.isfinite(grad)):
        raise TrainingDiverged(f"non-finite gradient for parameter {name!r}")
    param -= eta * grad.astype(param.dtype, copy=False)


def sgd_step(model: MaskedModel, grads: list[dict[str, np.ndarray]], eta: float) -> None:
    """One :func:`sgd_update` per parameter of ``model``.

    Updates mutate the arrays, so models aliasing these arrays see the step.
    Masked entries have exactly-zero gradients and therefore never move.
    """
    for lp, layer_grads in zip(model.layers, grads):
        for name, g in layer_grads.items():
            sgd_update(lp.params[name], g, eta, name)


# -- checkpoints ------------------------------------------------------------


def _encode_array(arr: np.ndarray) -> dict:
    little = arr.dtype.newbyteorder("<")
    raw = np.ascontiguousarray(arr.astype(little, copy=False)).tobytes()
    return {
        "dtype": little.str,
        "shape": list(arr.shape),
        "data": base64.b64encode(raw).decode("ascii"),
    }


def _decode_array(entry: dict) -> np.ndarray:
    try:
        raw = base64.b64decode(entry["data"], validate=True)
        arr = np.frombuffer(raw, dtype=np.dtype(entry["dtype"]))
        return arr.reshape(entry["shape"]).copy()
    except (KeyError, ValueError, TypeError) as exc:
        raise ValueError(f"corrupt checkpoint array: {exc}") from exc


def save_checkpoint(model: MaskedModel, extras: dict | None = None) -> dict:
    """Serialise a model to a JSON-able dict; arrays are base64 little-endian."""
    return {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "dtype": np.dtype(model.dtype).name,
        "network": network_to_dict(model.spec),
        "layers": [
            {
                "params": {k: _encode_array(v) for k, v in lp.params.items()},
                "masks": {k: _encode_array(v) for k, v in lp.masks.items()},
            }
            for lp in model.layers
        ],
        "extras": dict(extras or {}),
    }


def _field(obj, key: str, what: str):
    """``obj[key]`` where ``obj`` must be a JSON object holding ``key``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} is not a JSON object")
    if key not in obj:
        raise ValueError(f"{what} is missing {key!r}")
    return obj[key]


def _load_array(stored, pdef: ParamDef, dtype: np.dtype, what: str) -> np.ndarray:
    """Decode ``stored[pdef.name]`` and check its shape and dtype."""
    arr = _decode_array(_field(stored, pdef.name, what))
    if arr.shape != pdef.shape:
        raise ValueError(f"{what} {pdef.name!r} has shape {arr.shape}, expected {pdef.shape}")
    if arr.dtype.newbyteorder("=") != dtype.newbyteorder("="):
        raise ValueError(f"{what} {pdef.name!r} has dtype {arr.dtype}, expected {dtype}")
    return arr


def load_checkpoint(payload: dict) -> tuple[MaskedModel, dict]:
    """Rebuild a model from :func:`save_checkpoint` output; bit-exact.

    Any malformed payload raises ``ValueError``: a missing or mistyped
    entry, an array whose shape or dtype disagrees with the network and the
    checkpoint's ``dtype``, a parameter holding NaN or infinity, or a mask
    holding anything but 0 and 1.
    """
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError("not a model checkpoint")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {payload.get('version')!r}")
    network = _field(payload, "network", "checkpoint")
    if not isinstance(network, dict):
        raise ValueError("checkpoint network is not a JSON object")
    spec = network_from_dict(network)
    try:
        dtype = np.dtype(_field(payload, "dtype", "checkpoint"))
    except TypeError:
        raise ValueError(f"checkpoint dtype {payload['dtype']!r} is not a numpy dtype") from None
    extras = payload.get("extras", {})
    if not isinstance(extras, dict):
        raise ValueError("checkpoint extras is not a JSON object")
    entries = _field(payload, "layers", "checkpoint")
    if not isinstance(entries, list) or len(entries) != len(spec.layers):
        raise ValueError("checkpoint layer count does not match its network")
    layers = []
    for idx, (layer, entry) in enumerate(zip(spec.layers, entries)):
        where = f"checkpoint layer {idx}"
        stored_params = _field(entry, "params", where)
        stored_masks = _field(entry, "masks", where)
        params, masks = {}, {}
        for pdef in param_layout(layer):
            params[pdef.name] = _load_array(stored_params, pdef, dtype, f"{where} params")
            if not np.all(np.isfinite(params[pdef.name])):
                raise ValueError(f"{where} param {pdef.name!r} holds NaN or infinity")
            if pdef.masked:
                mask = _load_array(stored_masks, pdef, dtype, f"{where} masks")
                if not np.all((mask == 0) | (mask == 1)):
                    raise ValueError(f"mask {pdef.name!r} holds values other than 0 and 1")
                masks[pdef.name] = mask
        layers.append(LayerParams(params=params, masks=masks))
    return MaskedModel(spec=spec, layers=layers, dtype=dtype), extras


def model_bytes(model: MaskedModel) -> bytes:
    """Canonical serialised form, for bit-identity comparisons."""
    return json.dumps(save_checkpoint(model), sort_keys=True, separators=(",", ":")).encode()
