"""Parameter/FLOP cost table and device budget checks.

Every layer kind has closed-form parameter and FLOP counts.  A device is
summarised by a load-bandwidth coefficient (bytes moved per FLOP of model),
an execution speed, and two budgets: alpha bounds load time (expressed in
bytes moved) and beta bounds execution time in seconds.  Both derived times
are proportional to total FLOPs, so feasibility of a network on a device
depends only on its FLOP total; parameter counts are reported for sizing.

The objective blends the two times with a weight omega in [0, 1], which also
absorbs the unit mismatch between them:

    objective = omega * t_mem + (1 - omega) * t_exec
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Mapping, NamedTuple

from edgeslim.archspec import LayerKind, LayerSpec, NetworkSpec, is_json_number

class LayerCost(NamedTuple):
    params: int
    flops: int


def estimate_layer(layer: LayerSpec) -> LayerCost:
    """Closed-form (params, flops) for one layer, as exact Python ints.

    Dense: P = I*O + O, F = (2I-1)*O.  Conv (stride 1, valid): P =
    I*f*g*O + O, F = f*g*I*O*h*w.  Recurrent cells pay per gate block and
    per step.  The factorized rows count only the first factor's parameters
    and price the conv second factor without its input-channel term; both
    follow the published table verbatim and are kept so compression claims
    reproduce.
    """
    I, O = layer.I, layer.O
    kind = layer.kind
    if kind == LayerKind.FC:
        return LayerCost(I * O + O, (2 * I - 1) * O)
    if kind == LayerKind.CONV:
        fg = layer.f * layer.g
        return LayerCost(I * fg * O + O, fg * I * O * layer.h * layer.w)
    if kind == LayerKind.FACTORIZED_FC:
        R = layer.R
        return LayerCost(I * R + R, ((2 * I - 1) + O) * R)
    if kind == LayerKind.FACTORIZED_CONV:
        fg = layer.f * layer.g
        R = layer.R
        return LayerCost(I * fg * R + R, (fg * layer.h * layer.w + 1 + O) * R)
    if kind in (LayerKind.LSTM, LayerKind.COUPLED_LSTM):
        gates = layer.gates
        params = gates * O * (I + O + 1)
        flops = (2 * gates * O * (I + O) + 4 * O) * layer.s
        return LayerCost(params, flops)
    if kind in (LayerKind.GRU, LayerKind.MGU):
        gates = layer.gates
        params = gates * O * (I + O + 1)
        flops = (2 * gates * O * (I + O) + 5 * O) * layer.s
        return LayerCost(params, flops)
    raise ValueError(f"no cost row for layer kind {kind!r}")


@dataclass(frozen=True)
class DeviceProfile:
    """An edge device's cost coefficients and budgets.

    ``bytes_per_flop`` scales FLOPs into load traffic (held against alpha,
    in bytes); ``seconds_per_flop`` scales them into execution time (held
    against beta, in seconds).  ``flops_per_second`` is the advertised speed,
    part of the device file and carried into run manifests; the budget
    checks read ``seconds_per_flop`` only, even though profiles often set
    one to the other's reciprocal.  ``alpha`` may start unset with ``alpha_ratio``
    giving it as a fraction of a reference network's load; call
    :func:`resolve_alpha` before estimating against such a profile.
    """

    name: str
    bytes_per_flop: float
    seconds_per_flop: float
    flops_per_second: float
    beta: float
    alpha: float | None = None
    alpha_ratio: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise ValueError(f"device name must be a string, got {self.name!r}")
        for attr in ("bytes_per_flop", "seconds_per_flop", "flops_per_second", "beta"):
            _require_positive(attr, getattr(self, attr))
        if (self.alpha is None) == (self.alpha_ratio is None):
            raise ValueError("exactly one of alpha and alpha_ratio must be set")
        for attr in ("alpha", "alpha_ratio"):
            value = getattr(self, attr)
            if value is not None:
                _require_positive(attr, value)


def _require_positive(attr: str, value) -> None:
    if not (is_json_number(value) and math.isfinite(value) and value > 0):
        raise ValueError(f"{attr} must be a positive finite number, got {value!r}")


def resolve_alpha(device: DeviceProfile, reference_flops: int) -> DeviceProfile:
    """Fix a ratio-form alpha against a reference network's FLOP total."""
    if device.alpha is not None:
        return device
    alpha = device.alpha_ratio * device.bytes_per_flop * reference_flops
    return replace(device, alpha=alpha, alpha_ratio=None)


@dataclass(frozen=True)
class ResourceReport:
    """Costs and budget verdicts for one network on one device."""

    network: str
    device: str
    omega: float
    per_layer: tuple[LayerCost, ...]
    total_params: int
    total_flops: int
    t_mem: float
    t_exec: float
    objective: float
    fits_alpha: bool
    fits_beta: bool

    @property
    def feasible(self) -> bool:
        return self.fits_alpha and self.fits_beta

    def to_dict(self) -> dict:
        per_layer = [{"params": c.params, "flops": c.flops} for c in self.per_layer]
        return {**asdict(self), "per_layer": per_layer, "feasible": self.feasible}


def estimate_network(spec: NetworkSpec, device: DeviceProfile, omega: float) -> ResourceReport:
    """Price ``spec`` on ``device`` and check both budgets.

    t_mem = bytes_per_flop * total_flops is held against alpha; t_exec =
    seconds_per_flop * total_flops against beta.  ``omega`` must lie in
    [0, 1] and the device's alpha must be resolved to bytes.
    """
    if not 0.0 <= omega <= 1.0:
        raise ValueError(f"omega must lie in [0, 1], got {omega}")
    if device.alpha is None:
        raise ValueError(
            f"device {device.name!r} has a ratio-form alpha; call resolve_alpha first"
        )
    per_layer = tuple(estimate_layer(layer) for layer in spec.layers)
    total_params = sum(c.params for c in per_layer)
    total_flops = sum(c.flops for c in per_layer)
    t_mem = device.bytes_per_flop * total_flops
    t_exec = device.seconds_per_flop * total_flops
    return ResourceReport(
        network=spec.name,
        device=device.name,
        omega=omega,
        per_layer=per_layer,
        total_params=total_params,
        total_flops=total_flops,
        t_mem=t_mem,
        t_exec=t_exec,
        objective=omega * t_mem + (1.0 - omega) * t_exec,
        fits_alpha=t_mem <= device.alpha,
        fits_beta=t_exec <= device.beta,
    )


# device-file key -> DeviceProfile field; every key but the two alpha forms is required
_DEVICE_KEYS = {
    "name": "name",
    "b_e_bytes_per_flop": "bytes_per_flop",
    "e_m_seconds_per_flop": "seconds_per_flop",
    "flops_per_second": "flops_per_second",
    "beta_seconds": "beta",
    "alpha_bytes": "alpha",
    "alpha_ratio": "alpha_ratio",
}


def device_to_dict(device: DeviceProfile) -> dict:
    out = {key: getattr(device, attr) for key, attr in _DEVICE_KEYS.items()}
    return {key: value for key, value in out.items() if value is not None}


def device_from_dict(data: Mapping) -> DeviceProfile:
    unknown = sorted(set(data) - set(_DEVICE_KEYS))
    if unknown:
        raise ValueError(f"unknown device keys: {', '.join(unknown)}")
    for key in list(_DEVICE_KEYS)[:-2]:
        if key not in data:
            raise ValueError(f"device entry is missing {key!r}")
    return DeviceProfile(**{attr: data.get(key) for key, attr in _DEVICE_KEYS.items()})
