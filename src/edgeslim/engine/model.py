"""Masked models: parameter storage, forward traces, SGD, checkpoints.

A model is its architecture descriptor plus per-layer parameter arrays and
binary masks over the weight matrices.  This module owns the pruning rule:
a masked weight is zero, and it stays zero because its gradient is dropped.
Whatever sets a mask (dropout, a checkpoint load, a compressor rewrite)
zeroes the weight under it, so the layer kernels use weights as stored and
write the true derivative, and :func:`descend` multiplies the gradient by
the mask once, so an SGD step never moves a masked weight.  Class labels
are 1-based everywhere outside this module; logits columns map to labels
1..k.

Storage: each model copies its parameters, in layer and ``param_layout``
order, into one buffer ``flat`` (:meth:`MaskedModel.pack`, run by every
constructor); each ``params`` entry is a view of it, each ``grads`` entry
the matching view of ``grad``, and ``mask`` matches it too.  Each ``masks``
entry is a view of ``mask``, which holds 1 at biases.  A backward pass
writes every trainable layer's gradient straight into its ``grads`` views;
an SGD step is then one mask multiply, one finite check and one
``flat -= eta * grad`` per model.  A student may borrow its leading layers
from the trainee: those are the trainee's ``LayerParams``, so they view the
trainee's buffers and their gradients land in the trainee's ``grad``.  The
two share the pretrained teacher's dtype, the one dtype of a run.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from edgeslim.archspec import (
    RECURRENT_KINDS,
    NetworkSpec,
    network_from_dict,
    network_to_dict,
)
from edgeslim.engine.autodiff import Tensor, _root, softmax_cross_entropy
from edgeslim.engine.layers import ParamDef, layer_forward, param_layout

CHECKPOINT_FORMAT = "edgeslim-checkpoint"
CHECKPOINT_VERSION = 1


class TrainingDiverged(RuntimeError):
    """Raised when a gradient or update goes non-finite."""


@dataclass(eq=False)
class LayerParams:
    params: dict[str, np.ndarray]
    masks: dict[str, np.ndarray]
    grads: dict[str, np.ndarray] = field(default_factory=dict, repr=False)  # set by ``pack``


@dataclass(eq=False)
class MaskedModel:
    """Parameters and masks; the first ``borrowed`` layers view another
    model's buffers, and ``grad_views`` are the ``grads`` of the others."""

    spec: NetworkSpec
    layers: list[LayerParams]
    dtype: np.dtype
    flat: np.ndarray = field(init=False, repr=False)
    grad: np.ndarray = field(init=False, repr=False)
    mask: np.ndarray = field(init=False, repr=False)
    grad_views: list[dict[str, np.ndarray]] = field(init=False, repr=False)
    borrowed: int = field(init=False, default=0)
    runs: list[tuple] = field(init=False, repr=False)  # :func:`forward`'s per-layer arguments

    def __post_init__(self) -> None:
        self.dtype = np.dtype(self.dtype)
        self.layers = list(self.layers)
        self.pack()

    def __reduce__(self):
        # rebuilt so a pickled or deep-copied model's ``params`` view its own ``flat``;
        # copied apart, SGD would move a buffer that ``forward`` never reads
        return MaskedModel, (self.spec, self.layers, self.dtype)

    def pack(self, borrowed: int = 0) -> None:
        """Copy the parameters and masks of layers ``borrowed..`` into fresh
        ``flat`` and ``mask`` buffers that they then view; earlier layers
        are left as they are."""
        own = self.layers[borrowed:]
        arrays = [arr for lp in own for arr in lp.params.values()]
        self.flat = np.concatenate([np.empty(0), *arrays], axis=None, dtype=self.dtype)
        self.grad = np.zeros_like(self.flat)
        self.mask = np.ones_like(self.flat)
        self.borrowed, self.grad_views, end = borrowed, [], 0
        for idx, lp in enumerate(own, borrowed):
            params, masks, grads = {}, {}, {}
            for name, arr in lp.params.items():
                start, end = end, end + arr.size
                params[name] = self.flat[start:end].reshape(arr.shape)
                grads[name] = self.grad[start:end].reshape(arr.shape)
                if name in lp.masks:
                    masks[name] = self.mask[start:end].reshape(arr.shape)
                    masks[name][...] = lp.masks[name]
            self.layers[idx] = LayerParams(params, masks, grads)
            self.grad_views.append(grads)
        last = len(self.layers) - 1
        self.runs = [
            (layer, tuple(lp.params.values()), tuple(lp.grads.values()),
             idx != last and layer.kind not in RECURRENT_KINDS, layer.input_width)
            for idx, (layer, lp) in enumerate(zip(self.spec.layers, self.layers))
        ]


def init_model(spec: NetworkSpec, seed: int, dtype=np.float32) -> MaskedModel:
    """Deterministically initialise a model: uniform +-sqrt(6/(fan_in+fan_out))
    weights, zero biases, full masks; draw order is layer then layout order."""
    rng = np.random.default_rng(seed)
    layers = []
    for layer in spec.layers:
        params, masks = {}, {}
        for pdef in param_layout(layer):
            if pdef.fans is None:
                params[pdef.name] = np.zeros(pdef.shape)
            else:
                limit = np.sqrt(6.0 / sum(pdef.fans))
                params[pdef.name] = rng.uniform(-limit, limit, size=pdef.shape)
            if pdef.masked:
                masks[pdef.name] = np.ones(pdef.shape, dtype=dtype)
        layers.append(LayerParams(params, masks))
    return MaskedModel(spec=spec, layers=layers, dtype=dtype)  # casts to dtype


def copy_model(model: MaskedModel) -> MaskedModel:
    """An independent copy, with a private buffer even if ``model`` borrows."""
    return MaskedModel(spec=model.spec, layers=model.layers, dtype=model.dtype)


def connection_count(model: MaskedModel) -> int:
    """Number of surviving (unmasked) weight connections."""
    return int(sum(mask.sum() for lp in model.layers for mask in lp.masks.values()))


class ForwardTrace(NamedTuple):
    """One forward pass: logits and layer outputs, each (n, output_width)."""

    logits: Tensor
    activations: list[Tensor]
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
) -> ForwardTrace:
    """Run layers ``start..`` of the network on a (n, width) batch.

    Each layer is one tape node over the parameters as stored, with the
    arguments, ReLU flag and input width that ``model.runs`` fixed at
    packing (hidden conv/dense layers get a ReLU).  With ``trainable`` its
    backward assigns the layer's gradients to its ``grads`` views, so a
    backward pass leaves in ``model.grad`` the true derivative of its loss,
    masked entries included.  Assignment is right because each parameter
    feeds one node per backward: a layer runs once per trace, and a prefix
    shared with another model once per batch, in the student's pass.

    From ``start`` > 0 the pass continues another's: ``x`` is that pass's
    output of layer ``start - 1``, as a Tensor, so this pass extends its
    tape and one backward sums both passes' gradients into the layers
    before ``start``.  At ``start`` = the depth, ``x`` is the logits.
    """
    runs = model.runs
    if not 0 <= start <= len(runs):
        raise ValueError(f"start layer {start} does not fit depth {len(runs)}")
    if not isinstance(x, Tensor):
        x = Tensor(np.asarray(x).astype(model.dtype, copy=False))
    shape = x.data.shape
    if len(shape) != 2:
        raise ValueError(f"input must be 2-d (batch, features), got shape {shape}")
    if start < len(runs) and shape[1] != runs[start][4]:
        raise ValueError(f"input width {shape[1]} does not match layer {start} ({runs[start][4]})")
    cur = x
    activations: list[Tensor] = []
    for layer, params, grads, relu, _ in runs[start:] if start else runs:
        cur = layer_forward(layer, params, grads if trainable else None, cur, relu)
        activations.append(cur)
    if cur.data.shape != (shape[0], model.spec.class_count):
        raise ValueError(
            f"logits shape {cur.data.shape} does not match class count "
            f"{model.spec.class_count}"
        )
    return ForwardTrace(cur, activations, shape[0])


def check_labels(labels: np.ndarray, model: MaskedModel) -> None:
    """Class labels must lie in 1..k, k the model's class count."""
    k = model.spec.class_count
    if labels.min(initial=1) < 1 or labels.max(initial=k) > k:
        raise ValueError(f"labels must lie in 1..{k}")


def cross_entropy_node(trace: ForwardTrace, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy node against 1-based labels that passed :func:`check_labels`."""
    return softmax_cross_entropy(trace.logits, np.asarray(labels) - 1)


def backward(model: MaskedModel, trace: ForwardTrace, loss: Tensor) -> list[dict[str, np.ndarray]]:
    """Backpropagate ``loss`` (once) and return ``model``'s gradients.

    The layer nodes of ``trace`` write into ``model.grad``, cast to the
    parameter dtype; the result is its views, ``model.grad_views``, which
    hold the true derivative until :func:`descend` masks them.  A layer the
    loss does not reach writes nothing and keeps its views' old values.
    ``loss`` must be built from ``trace``: the two share one tape, else
    ``ValueError``.  When several traces feed one loss, call this per
    model; the tape runs on the first call only.
    """
    if loss.grad is None:
        tape = _root(loss.tape)
        if tape is None or tape is not _root(trace.logits.tape):
            raise ValueError("loss was not built from this trace")
        loss.backward()
    return model.grad_views


def check_learning_rate(eta: float, name: str = "eta") -> None:
    """An SGD step size must be positive and finite."""
    if not (math.isfinite(eta) and eta > 0):
        raise ValueError(f"{name} must be positive and finite, got {eta!r}")


def descend(models: list[MaskedModel], eta: float) -> None:
    """``flat -= eta * grad`` for each model, once.  Each ``grad`` is first
    multiplied by its mask, the one place the mask meets a gradient, and
    then checked: a non-finite entry, masked or not, raises
    :class:`TrainingDiverged` before any parameter moves."""
    for model in models:
        model.grad *= model.mask
        if not np.logical_and.reduce(np.isfinite(model.grad)):
            raise TrainingDiverged(f"non-finite gradient in model {model.spec.name!r}")
    for model in models:
        model.flat -= eta * model.grad


def sgd_step(model: MaskedModel, grads: list[dict[str, np.ndarray]], eta: float) -> None:
    """One :func:`descend` of ``model`` along ``grads``, which must be the
    views that :func:`backward` returned for it."""
    if grads is not model.grad_views:
        raise ValueError("sgd_step takes the gradients backward() returned for this model")
    descend([model], eta)


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
    checkpoint's ``dtype``, a parameter holding NaN or infinity, a mask
    holding anything but 0 and 1, or a non-zero weight under a zero mask.
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
                if params[pdef.name][mask == 0].any():
                    raise ValueError(f"{where} param {pdef.name!r} is non-zero under a zero mask")
                masks[pdef.name] = mask
        layers.append(LayerParams(params=params, masks=masks))
    return MaskedModel(spec=spec, layers=layers, dtype=dtype), extras


def model_bytes(model: MaskedModel) -> bytes:
    """Canonical serialised form, for bit-identity comparisons."""
    return json.dumps(save_checkpoint(model), sort_keys=True, separators=(",", ":")).encode()
