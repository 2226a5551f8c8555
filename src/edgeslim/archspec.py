"""Architecture descriptors: layers, networks, validation, JSON round-trip.

A network is declared as an ordered list of :class:`LayerSpec` plus a class
count and a shared-prefix length.  Descriptors are plain data; weights and
masks live in the engine.  Dimension names follow the cost model: ``I`` input
features / channels, ``O`` output features / channels, ``f x g`` the filter,
``h x w`` the output feature map, ``s`` recurrent steps, ``R`` factorization
rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping


class LayerKind(str, Enum):
    FC = "fc"
    CONV = "conv"
    LSTM = "lstm"
    GRU = "gru"
    FACTORIZED_FC = "factorized_fc"
    FACTORIZED_CONV = "factorized_conv"
    COUPLED_LSTM = "coupled_lstm"
    MGU = "mgu"


# Gate blocks per recurrent kind, in parameter order; the reduced cells drop one.
GATE_NAMES = {
    LayerKind.LSTM: ("i", "f", "o", "g"),
    LayerKind.COUPLED_LSTM: ("f", "o", "g"),
    LayerKind.GRU: ("z", "r", "h"),
    LayerKind.MGU: ("f", "h"),
}

RECURRENT_KINDS = frozenset(GATE_NAMES)
CONV_KINDS = frozenset({LayerKind.CONV, LayerKind.FACTORIZED_CONV})
FACTORIZED_KINDS = frozenset({LayerKind.FACTORIZED_FC, LayerKind.FACTORIZED_CONV})


@dataclass(frozen=True)
class LayerSpec:
    """One layer of a declared network.

    Only the dimensions that apply to ``kind`` are set; the rest stay None.
    Conv layers are stride 1 with no padding, so the input feature map is
    ``(h+f-1) x (w+g-1)``.  Recurrent layers consume a flat ``s*I`` slice and
    emit the final hidden state of width ``O``.
    """

    kind: LayerKind
    I: int
    O: int
    f: int | None = None
    g: int | None = None
    h: int | None = None
    w: int | None = None
    s: int | None = None
    R: int | None = None

    @property
    def gates(self) -> int | None:
        """Gate-block count of a recurrent kind; None for the other kinds."""
        return len(GATE_NAMES[self.kind]) if self.kind in RECURRENT_KINDS else None

    @property
    def input_width(self) -> int:
        """Flat width this layer consumes."""
        if self.kind in CONV_KINDS:
            return self.I * (self.h + self.f - 1) * (self.w + self.g - 1)
        if self.kind in RECURRENT_KINDS:
            return self.s * self.I
        return self.I

    @property
    def output_width(self) -> int:
        """Flat width this layer emits."""
        if self.kind in CONV_KINDS:
            return self.O * self.h * self.w
        return self.O

    @property
    def input_spatial(self) -> tuple[int, int]:
        """Input feature-map shape for conv kinds (stride 1, no padding)."""
        if self.kind not in CONV_KINDS:
            raise ValueError(f"{self.kind.value} layer has no spatial shape")
        return (self.h + self.f - 1, self.w + self.g - 1)


@dataclass(frozen=True)
class NetworkSpec:
    """An ordered stack of layers plus the classifier contract.

    ``shared_prefix`` marks how many leading layers a derived student shares
    verbatim with its teacher; it defaults to half the depth, rounded down.
    """

    name: str
    layers: tuple[LayerSpec, ...]
    class_count: int
    shared_prefix: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.shared_prefix is None:
            object.__setattr__(self, "shared_prefix", len(self.layers) // 2)

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def non_shared_count(self) -> int:
        """Number of trailing layers open to dropout and compression."""
        return len(self.layers) - self.shared_prefix


# Dims each kind requires beyond I and O.
_REQUIRED_DIMS = {
    LayerKind.FC: (),
    LayerKind.FACTORIZED_FC: ("R",),
    LayerKind.CONV: ("f", "g", "h", "w"),
    LayerKind.FACTORIZED_CONV: ("f", "g", "h", "w", "R"),
    LayerKind.LSTM: ("s",),
    LayerKind.GRU: ("s",),
    LayerKind.COUPLED_LSTM: ("s",),
    LayerKind.MGU: ("s",),
}
_ALL_DIMS = ("f", "g", "h", "w", "s", "R")


def _layer_problems(idx: int, layer: LayerSpec) -> list[str]:
    tag = f"layer {idx} ({layer.kind.value})"
    problems = []
    required = _REQUIRED_DIMS[layer.kind]
    for name in ("I", "O", *required):
        value = getattr(layer, name)
        if value is None or value < 1:
            problems.append(f"{tag}: {name} must be a positive integer, got {value}")
    for name in _ALL_DIMS:
        if name not in required and getattr(layer, name) is not None:
            problems.append(f"{tag}: {name} does not apply to this kind")
    return problems


def validate(spec: NetworkSpec) -> list[str]:
    """Return every problem with ``spec``; an empty list means valid.

    Checks per-layer dimensions, adjacent flat-width agreement, the
    shared-prefix bound, and that the final layer emits one value per class.
    """
    problems = []
    if spec.class_count < 2:
        problems.append(f"class_count must be at least 2, got {spec.class_count}")
    if not spec.layers:
        problems.append("network has no layers")
        return problems
    if not 0 <= spec.shared_prefix <= len(spec.layers):
        problems.append(
            f"shared_prefix must lie in [0, {len(spec.layers)}], got {spec.shared_prefix}"
        )
    for idx, layer in enumerate(spec.layers):
        problems.extend(_layer_problems(idx, layer))
    if problems:
        return problems  # width checks assume per-layer dims are sane
    for idx in range(len(spec.layers) - 1):
        out_w = spec.layers[idx].output_width
        in_w = spec.layers[idx + 1].input_width
        if out_w != in_w:
            problems.append(
                f"dimension mismatch at layer {idx + 1}: layer {idx} emits "
                f"{out_w} values but layer {idx + 1} expects {in_w}"
            )
    last = spec.layers[-1]
    if last.output_width != spec.class_count:
        problems.append(
            f"final layer emits {last.output_width} values but class_count is "
            f"{spec.class_count}"
        )
    return problems


def check_valid(spec: NetworkSpec) -> NetworkSpec:
    """Raise ValueError with all problems if ``spec`` is invalid."""
    problems = validate(spec)
    if problems:
        raise ValueError("invalid network spec: " + "; ".join(problems))
    return spec


def layer_to_dict(layer: LayerSpec) -> dict:
    out = {"kind": layer.kind.value, "I": layer.I, "O": layer.O}
    for name in _ALL_DIMS:
        out[name] = getattr(layer, name)
    return out


def is_json_number(value, integral: bool = False) -> bool:
    """``value`` is a number parsed from JSON, an int when ``integral``.

    bool is an int subclass, but JSON ``true`` must not pass as 1.
    """
    if isinstance(value, bool):
        return False
    return isinstance(value, int if integral else (int, float))


def layer_from_dict(data: Mapping) -> LayerSpec:
    if not isinstance(data, Mapping):
        raise ValueError(f"layer entry must be a JSON object, got {data!r}")
    known = {"kind", "I", "O", *_ALL_DIMS}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"unknown layer keys: {', '.join(unknown)}")
    if "kind" not in data:
        raise ValueError("layer entry is missing 'kind'")
    try:
        kind = LayerKind(data["kind"])
    except ValueError:
        raise ValueError(f"unknown layer kind {data['kind']!r}") from None
    dims = {}
    for name in ("I", "O", *_ALL_DIMS):
        value = data.get(name)
        if value is not None and not is_json_number(value, integral=True):
            raise ValueError(f"layer dim {name} must be an integer, got {value!r}")
        dims[name] = value
    if dims["I"] is None or dims["O"] is None:
        raise ValueError("layer entry needs integer I and O")
    return LayerSpec(kind=kind, **dims)


def network_to_dict(spec: NetworkSpec) -> dict:
    return {
        "name": spec.name,
        "class_count": spec.class_count,
        "shared_prefix": spec.shared_prefix,
        "layers": [layer_to_dict(layer) for layer in spec.layers],
    }


def network_from_dict(data: Mapping) -> NetworkSpec:
    if not isinstance(data, Mapping):
        raise ValueError("network entry must be a JSON object")
    known = {"name", "class_count", "shared_prefix", "layers"}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"unknown network keys: {', '.join(unknown)}")
    for key in ("name", "class_count", "layers"):
        if key not in data:
            raise ValueError(f"network entry is missing {key!r}")
    if not isinstance(data["layers"], list):
        raise ValueError(f"network layers must be a list, got {data['layers']!r}")
    if not isinstance(data["name"], str):
        raise ValueError(f"network name must be a string, got {data['name']!r}")
    for key in ("class_count", "shared_prefix"):
        value = data.get(key)
        if (value is not None or key == "class_count") and not is_json_number(value, True):
            raise ValueError(f"network {key} must be an integer, got {value!r}")
    layers = tuple(layer_from_dict(entry) for entry in data["layers"])
    return check_valid(
        NetworkSpec(
            name=data["name"],
            layers=layers,
            class_count=data["class_count"],
            shared_prefix=data.get("shared_prefix"),
        )
    )
