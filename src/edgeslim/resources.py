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
from dataclasses import dataclass, replace
from typing import Mapping, NamedTuple

from edgeslim.archspec import LayerKind, LayerSpec, NetworkSpec

# Execution speeds (FLOPs/s) of the five reference devices, slowest first.
DEVICE_SPEEDS = {
    "d1": 11e8,
    "d2": 3e9,
    "d3": 5e10,
    "d4": 18e10,
    "d5": 29e10,
}


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
    against beta, in seconds).  ``flops_per_second`` is the advertised speed
    used when estimating a beta budget for a workload; it is kept separate
    from ``seconds_per_flop`` even though profiles often set one to the
    other's reciprocal.  ``alpha`` may start unset with ``alpha_ratio``
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
        for attr in ("bytes_per_flop", "seconds_per_flop", "flops_per_second", "beta"):
            _require_positive(attr, getattr(self, attr))
        if (self.alpha is None) == (self.alpha_ratio is None):
            raise ValueError("exactly one of alpha and alpha_ratio must be set")
        for attr in ("alpha", "alpha_ratio"):
            value = getattr(self, attr)
            if value is not None:
                _require_positive(attr, value)


def _require_positive(attr: str, value) -> None:
    # bool is an int subclass: JSON ``true`` must not pass as 1
    if isinstance(value, bool) or not (
        isinstance(value, (int, float)) and math.isfinite(value) and value > 0
    ):
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
        return {
            "network": self.network,
            "device": self.device,
            "omega": self.omega,
            "per_layer": [{"params": c.params, "flops": c.flops} for c in self.per_layer],
            "total_params": self.total_params,
            "total_flops": self.total_flops,
            "t_mem": self.t_mem,
            "t_exec": self.t_exec,
            "objective": self.objective,
            "fits_alpha": self.fits_alpha,
            "fits_beta": self.fits_beta,
            "feasible": self.feasible,
        }


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


def estimate_beta(device: DeviceProfile, flops: int) -> float:
    """Execution-time estimate (seconds) for a FLOP total on ``device``.

    The value is compared against the device's beta budget: a network fits
    when ``estimate_beta(device, total_flops) <= device.beta``.
    """
    if flops < 0:
        raise ValueError(f"flops must be non-negative, got {flops}")
    return flops / device.flops_per_second


def device_to_dict(device: DeviceProfile) -> dict:
    out = {
        "name": device.name,
        "b_e_bytes_per_flop": device.bytes_per_flop,
        "e_m_seconds_per_flop": device.seconds_per_flop,
        "flops_per_second": device.flops_per_second,
        "beta_seconds": device.beta,
    }
    if device.alpha is not None:
        out["alpha_bytes"] = device.alpha
    else:
        out["alpha_ratio"] = device.alpha_ratio
    return out


def device_from_dict(data: Mapping) -> DeviceProfile:
    known = {
        "name",
        "b_e_bytes_per_flop",
        "e_m_seconds_per_flop",
        "flops_per_second",
        "beta_seconds",
        "alpha_bytes",
        "alpha_ratio",
    }
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"unknown device keys: {', '.join(unknown)}")
    for key in ("name", "b_e_bytes_per_flop", "e_m_seconds_per_flop", "flops_per_second", "beta_seconds"):
        if key not in data:
            raise ValueError(f"device entry is missing {key!r}")
    return DeviceProfile(
        name=data["name"],
        bytes_per_flop=data["b_e_bytes_per_flop"],
        seconds_per_flop=data["e_m_seconds_per_flop"],
        flops_per_second=data["flops_per_second"],
        beta=data["beta_seconds"],
        alpha=data.get("alpha_bytes"),
        alpha_ratio=data.get("alpha_ratio"),
    )
