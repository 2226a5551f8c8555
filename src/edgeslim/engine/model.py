"""Masked models: parameter storage, forward traces, SGD, checkpoints.

A model is its architecture descriptor plus per-layer parameter arrays and
binary masks over the weight matrices.  The forward pass multiplies each
weight by its mask inside the tape, so gradients at masked entries are
exactly zero and pruned connections never revive.  Class labels are 1-based
everywhere outside this module; logits columns map to labels 1..k.
"""

from __future__ import annotations

import base64
import json
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
from edgeslim.engine.layers import layer_forward, param_layout

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
    x: np.ndarray,
    trainable: bool = True,
    leaf_cache: dict[int, Tensor] | None = None,
) -> ForwardTrace:
    """Run the network on a (n, p) batch.

    Hidden conv/dense layers get a ReLU; recurrent outputs and final logits
    pass through raw.  ``leaf_cache`` maps ``id(array)`` to its leaf Tensor so
    two models sharing parameter arrays contribute to one tape and a single
    backward accumulates both paths.
    """
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError(f"input must be 2-d (batch, features), got shape {x.shape}")
    expect = model.spec.layers[0].input_width
    if x.shape[1] != expect:
        raise ValueError(f"input width {x.shape[1]} does not match first layer ({expect})")
    n = x.shape[0]
    cur = ad.lift(x.astype(model.dtype, copy=False))
    activations: list[Tensor] = []
    leaves: list[dict[str, Tensor]] = []
    last = len(model.spec.layers) - 1
    for idx, (layer, lp) in enumerate(zip(model.spec.layers, model.layers)):
        layer_leaves: dict[str, Tensor] = {}
        eff: dict[str, Tensor] = {}
        for name, arr in lp.params.items():
            if leaf_cache is not None and id(arr) in leaf_cache:
                leaf = leaf_cache[id(arr)]
            else:
                leaf = Tensor(arr, requires_grad=trainable)
                if leaf_cache is not None:
                    leaf_cache[id(arr)] = leaf
            layer_leaves[name] = leaf
            if name in lp.masks:
                eff[name] = leaf * ad.lift(lp.masks[name])
            else:
                eff[name] = leaf
        out = layer_forward(layer, eff, cur)
        if idx != last and layer.kind not in RECURRENT_KINDS:
            out = ad.relu(out)
        activations.append(out)
        leaves.append(layer_leaves)
        cur = out.reshape(n, layer.output_width)
    logits = cur
    if logits.data.shape != (n, model.spec.class_count):
        raise ValueError(
            f"logits shape {logits.data.shape} does not match class count "
            f"{model.spec.class_count}"
        )
    return ForwardTrace(logits=logits, activations=activations, leaves=leaves, batch_size=n)


def cross_entropy_node(trace: ForwardTrace, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of a trace against 1-based labels, as a tape node."""
    labels = np.asarray(labels)
    k = trace.logits.data.shape[1]
    if labels.min(initial=1) < 1 or labels.max(initial=k) > k:
        raise ValueError(f"labels must lie in 1..{k}")
    return softmax_cross_entropy(trace.logits, labels - 1)


def cross_entropy(trace: ForwardTrace, labels: np.ndarray) -> float:
    return float(cross_entropy_node(trace, labels).data)


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


def sgd_step(model: MaskedModel, grads: list[dict[str, np.ndarray]], eta: float) -> None:
    """In-place ``p -= eta * g``.  Rejects non-finite gradients.

    Updates mutate the arrays, so models aliasing these arrays see the step.
    Masked entries have exactly-zero gradients and therefore never move.
    """
    for lp, layer_grads in zip(model.layers, grads):
        for name, g in layer_grads.items():
            if not np.all(np.isfinite(g)):
                raise TrainingDiverged(f"non-finite gradient for parameter {name!r}")
            lp.params[name] -= eta * g.astype(model.dtype, copy=False)


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


def load_checkpoint(payload: dict) -> tuple[MaskedModel, dict]:
    """Rebuild a model from :func:`save_checkpoint` output; bit-exact."""
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError("not a model checkpoint")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {payload.get('version')!r}")
    spec = network_from_dict(payload["network"])
    dtype = np.dtype(payload["dtype"])
    if len(payload["layers"]) != len(spec.layers):
        raise ValueError("checkpoint layer count does not match its network")
    layers = []
    for layer, entry in zip(spec.layers, payload["layers"]):
        expected = {p.name: p for p in param_layout(layer)}
        params, masks = {}, {}
        for name, pdef in expected.items():
            if name not in entry["params"]:
                raise ValueError(f"checkpoint is missing parameter {name!r}")
            arr = _decode_array(entry["params"][name])
            if arr.shape != pdef.shape:
                raise ValueError(
                    f"parameter {name!r} has shape {arr.shape}, expected {pdef.shape}"
                )
            params[name] = arr
            if pdef.masked:
                mask = _decode_array(entry["masks"][name])
                if mask.shape != pdef.shape:
                    raise ValueError(f"mask {name!r} has shape {mask.shape}, expected {pdef.shape}")
                masks[name] = mask
        layers.append(LayerParams(params=params, masks=masks))
    return MaskedModel(spec=spec, layers=layers, dtype=dtype), payload.get("extras", {})


def model_bytes(model: MaskedModel) -> bytes:
    """Canonical serialised form, for bit-identity comparisons."""
    return json.dumps(save_checkpoint(model), sort_keys=True, separators=(",", ":")).encode()
