"""Layer rewrites that shrink a model onto a device budget.

Two rewrite families, applied layer by layer in index order until the
resource report turns feasible:

- Weight factorization: an fc/conv weight becomes a product of two thinner
  maps through an intermediate width R, legal only when R stays strictly
  under I*O/(I+O).  Factors come from the truncated SVD of the effective
  (masked) weight, so the rewritten layer approximates the original before
  any retraining.
- Gate reduction: LSTM cells become coupled-gate cells (input gate derived
  as 1 - forget), GRU cells become minimal gated cells; surviving gates keep
  their weights and masks.

If the index-order pass ends infeasible, a tightening pass lowers the ranks
of already-factorized layers (FLOPs are linear in R) down to R=1 before
giving up.  An infeasible outcome still carries the closest model and its
report.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from edgeslim.archspec import FACTORIZED_KINDS, LayerKind, LayerSpec, NetworkSpec, check_valid
from edgeslim.engine.layers import conv_matrix, conv_weight, param_layout
from edgeslim.engine.model import LayerParams, MaskedModel
from edgeslim.resources import (
    DeviceProfile,
    ResourceReport,
    estimate_layer,
    estimate_network,
)


def factorization_threshold(I: int, O: int) -> int:
    """Largest R satisfying R < I*O/(I+O) strictly; 0 means no legal rank."""
    if I < 1 or O < 1:
        raise ValueError(f"dimensions must be positive, got I={I}, O={O}")
    return (I * O - 1) // (I + O)


@dataclass(frozen=True)
class FactorizationResult:
    layer_index: int
    R: int
    reconstruction_error: float
    params_before: int = 0
    params_after: int = 0
    flops_before: int = 0
    flops_after: int = 0

    def to_dict(self) -> dict:
        return {"rewrite": "factorization", **asdict(self)}


@dataclass(frozen=True)
class GateReductionResult:
    layer_index: int
    from_kind: str
    to_kind: str
    params_before: int = 0
    params_after: int = 0
    flops_before: int = 0
    flops_after: int = 0

    def to_dict(self) -> dict:
        return {"rewrite": "gate_reduction", **asdict(self)}


def truncation_errors(weight: np.ndarray) -> np.ndarray:
    """errors[r] = Frobenius distance of the best rank-(r+1) approximation."""
    s = np.linalg.svd(np.asarray(weight, dtype=np.float64), compute_uv=False)
    tails = np.sqrt(np.maximum(np.cumsum((s**2)[::-1])[::-1], 0.0))
    # tails[r] = error of rank-r truncation; shift so index r-1 holds rank r
    return np.concatenate([tails[1:], [0.0]])


def choose_rank(
    weight: np.ndarray,
    r_start: int,
    size_penalty: float = 0.0,
    tie_rtol: float = 1e-6,
) -> FactorizationResult:
    """Pick the rank with the best error-vs-size score, scanning 1..r_start.

    The score is reconstruction error plus ``size_penalty * R``; errors
    within ``tie_rtol`` of the best count as ties and break toward smaller R
    (an exactly rank-2 matrix scanned from R=10 yields R=2, a zero matrix
    yields R=1).  ``r_start`` must respect the strict threshold of the
    matrix being factorized.
    """
    weight = np.asarray(weight, dtype=np.float64)
    if weight.ndim != 2:
        raise ValueError(f"weight must be a matrix, got shape {weight.shape}")
    rows, cols = weight.shape
    r_max = factorization_threshold(rows, cols)
    if r_start < 1 or r_start > r_max:
        raise ValueError(f"r_start must lie in 1..{r_max}, got {r_start}")
    errors = truncation_errors(weight)[:r_start]
    scores = errors + size_penalty * np.arange(1, r_start + 1)
    best = float(scores.min())
    tol = tie_rtol * max(float(errors.max(initial=0.0)), 1.0)
    tied = np.flatnonzero(scores <= best + tol)
    r = int(tied[0]) + 1
    return FactorizationResult(
        layer_index=-1, R=r, reconstruction_error=float(errors[r - 1])
    )


def reduce_gates(layer: LayerSpec) -> LayerSpec:
    """Rewrite LSTM -> coupled LSTM or GRU -> minimal gated unit."""
    if layer.kind == LayerKind.LSTM:
        return LayerSpec(kind=LayerKind.COUPLED_LSTM, I=layer.I, O=layer.O, s=layer.s)
    if layer.kind == LayerKind.GRU:
        return LayerSpec(kind=LayerKind.MGU, I=layer.I, O=layer.O, s=layer.s)
    raise ValueError(f"gate reduction applies to lstm/gru layers, not {layer.kind.value}")


# -- parameter rewrites -----------------------------------------------------


# fc/conv kind -> its factorized kind
_FACTORIZED = {LayerKind.FC: LayerKind.FACTORIZED_FC, LayerKind.CONV: LayerKind.FACTORIZED_CONV}


def effective_matrix(layer: LayerSpec, lp: LayerParams) -> np.ndarray:
    """The weight as the 2-d matrix the factorization splits; masked
    entries are zero in it, as in every stored weight."""
    w = lp.params["W"].astype(np.float64)
    # fc: (I, O) as stored; conv: the (I*f*g, O) matrix its kernel multiplies by
    return w if layer.kind == LayerKind.FC else conv_matrix(w)


def factorize_layer_params(
    layer: LayerSpec, matrix: np.ndarray, bias: np.ndarray, r: int, dtype
) -> tuple[LayerSpec, LayerParams]:
    """Split the fc/conv ``layer`` at rank ``r``; factors carry fresh full masks.

    ``matrix`` is the layer's :func:`effective_matrix` and ``bias`` its
    ``b``; the factors are the rank-r truncated SVD with the singular values
    split evenly between them.
    """
    if layer.kind not in _FACTORIZED:
        raise ValueError(f"cannot factorize a {layer.kind.value} layer")
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    root = np.sqrt(s[:r])
    a, bmat = u[:, :r] * root, root[:, None] * vt[:r]
    if layer.kind == LayerKind.CONV:
        a = conv_weight(a, (r, layer.I, layer.f, layer.g))
    params = {
        "W1": a.astype(dtype),  # fc (I, R); conv (R, I, f, g)
        "b1": np.zeros(r, dtype=dtype),
        "W2": bmat.astype(dtype),  # (R, O)
        "b2": bias.astype(dtype),
    }
    masks = {"W1": np.ones_like(params["W1"]), "W2": np.ones_like(params["W2"])}
    new_layer = replace(layer, kind=_FACTORIZED[layer.kind], R=r)
    return new_layer, LayerParams(params=params, masks=masks)


# gate carry-over when a cell is reduced: new gate name -> source gate name
_GATE_SOURCES = {
    LayerKind.COUPLED_LSTM: {"f": "f", "o": "o", "g": "g"},
    LayerKind.MGU: {"f": "z", "h": "h"},
}


def reduce_layer_params(
    layer: LayerSpec, lp: LayerParams, dtype
) -> tuple[LayerSpec, LayerParams]:
    """Drop the redundant gate; surviving gates keep weights and masks.

    The GRU update gate becomes the minimal cell's forget gate (both blend
    old state against the candidate), the reset gate disappears.  Every gate
    of the reduced cells has a source, so nothing needs re-initialisation.
    """
    new_layer = reduce_gates(layer)
    sources = _GATE_SOURCES[new_layer.kind]
    params, masks = {}, {}
    for pdef in param_layout(new_layer):
        gate = pdef.name[1:]
        source = f"{pdef.name[0]}{sources[gate]}"
        params[pdef.name] = lp.params[source].astype(dtype).copy()
        if pdef.masked:
            masks[pdef.name] = lp.masks[source].astype(dtype).copy()
    return new_layer, LayerParams(params=params, masks=masks)


# -- the budget loop --------------------------------------------------------


@dataclass
class CompressionOutcome:
    """Result of one compression run; ``feasible=False`` is the infeasible
    verdict, still carrying the closest model and its report."""

    model: MaskedModel
    report: ResourceReport
    before: ResourceReport
    records: list = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return self.report.feasible

    def log_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "before": self.before.to_dict(),
            "after": self.report.to_dict(),
            "rewrites": [r.to_dict() for r in self.records],
        }


def _flop_slope(layer: LayerSpec) -> int:
    """d(FLOPs)/dR for a factorized layer."""
    if layer.kind == LayerKind.FACTORIZED_FC:
        return (2 * layer.I - 1) + layer.O
    if layer.kind == LayerKind.FACTORIZED_CONV:
        return layer.f * layer.g * layer.h * layer.w + 1 + layer.O
    raise ValueError(f"layer kind {layer.kind.value} has no rank slope")


def minimum_flops(spec: NetworkSpec, layer_indices: Sequence[int] | None = None) -> int:
    """Total FLOPs when every eligible layer is rewritten as small as it goes.

    Fc/conv layers with a legal rank sit at R=1, recurrent cells at their
    reduced kind.  This is the floor the budget loop can reach; budgets at or
    above it are guaranteed satisfiable.
    """
    if layer_indices is None:
        layer_indices = range(spec.shared_prefix, spec.depth)
    eligible = set(layer_indices)
    total = 0
    for idx, layer in enumerate(spec.layers):
        candidate = layer
        if idx in eligible:
            if layer.kind in _FACTORIZED:
                if factorization_threshold(layer.I, layer.O) >= 1:
                    candidate = replace(layer, kind=_FACTORIZED[layer.kind], R=1)
            elif layer.kind in (LayerKind.LSTM, LayerKind.GRU):
                candidate = reduce_gates(layer)
            elif layer.kind in FACTORIZED_KINDS:
                candidate = replace(layer, R=1)
        total += estimate_layer(candidate).flops
    return total


def run(
    model: MaskedModel,
    device: DeviceProfile,
    omega: float,
    layer_indices: Sequence[int] | None = None,
    size_penalty: float = 0.0,
) -> CompressionOutcome:
    """Rewrite layers in index order until both budgets hold.

    Already-feasible models come back unchanged.  Each rewrite is checked to
    strictly reduce both parameter and FLOP counts (guaranteed for legal
    ranks; verified anyway).  After the index pass, still-infeasible models
    get their factorized ranks tightened toward R=1.
    """
    spec = model.spec
    if layer_indices is None:
        layer_indices = list(range(spec.shared_prefix, spec.depth))
    layer_indices = sorted(layer_indices)
    before = estimate_network(spec, device, omega)
    if before.feasible:
        return CompressionOutcome(model=model, report=before, before=before)

    work = list(model.layers)  # per-layer parameters; rewrites replace entries
    layers = list(spec.layers)
    records: list = []
    # layer index -> (original layer, effective matrix, bias), for re-splits
    originals: dict[int, tuple[LayerSpec, np.ndarray, np.ndarray]] = {}

    def price() -> ResourceReport:
        return estimate_network(check_valid(replace(spec, layers=tuple(layers))), device, omega)

    report = before
    for idx in layer_indices:
        if report.feasible:
            break
        layer = layers[idx]
        old_cost = estimate_layer(layer)
        if layer.kind in _FACTORIZED:
            r_max = factorization_threshold(layer.I, layer.O)
            if r_max < 1:
                continue
            matrix = effective_matrix(layer, work[idx])
            bias = work[idx].params["b"].copy()
            result = choose_rank(matrix, r_max, size_penalty=size_penalty)
            new_layer, new_params = factorize_layer_params(
                layer, matrix, bias, result.R, model.dtype
            )
            new_cost = estimate_layer(new_layer)
            if not (new_cost.params < old_cost.params and new_cost.flops < old_cost.flops):
                continue  # unreachable for legal R; guards the invariant
            originals[idx] = (layer, matrix, bias)
            record = replace(result, layer_index=idx)
        elif layer.kind in (LayerKind.LSTM, LayerKind.GRU):
            new_layer, new_params = reduce_layer_params(layer, work[idx], model.dtype)
            new_cost = estimate_layer(new_layer)
            record = GateReductionResult(
                layer_index=idx, from_kind=layer.kind.value, to_kind=new_layer.kind.value
            )
        else:
            continue
        layers[idx] = new_layer
        work[idx] = new_params
        records.append(
            replace(
                record,
                params_before=old_cost.params,
                params_after=new_cost.params,
                flops_before=old_cost.flops,
                flops_after=new_cost.flops,
            )
        )
        report = price()

    if not report.feasible:
        report = _tighten_ranks(work, model.dtype, layers, originals, device, report, price)

    out = MaskedModel(check_valid(replace(spec, layers=tuple(layers))), work, model.dtype)
    for i, rec in enumerate(records):
        # refresh in case tightening moved a rank after the record was cut
        layer = out.spec.layers[rec.layer_index]
        cost = estimate_layer(layer)
        rec = replace(rec, params_after=cost.params, flops_after=cost.flops)
        if isinstance(rec, FactorizationResult) and layer.R != rec.R:
            _, matrix, _ = originals[rec.layer_index]
            error = float(truncation_errors(matrix)[layer.R - 1])
            rec = replace(rec, R=layer.R, reconstruction_error=error)
        records[i] = rec
    return CompressionOutcome(model=out, report=report, before=before, records=records)


def _tighten_ranks(
    work: list[LayerParams],
    dtype,
    layers: list[LayerSpec],
    originals: dict[int, tuple[LayerSpec, np.ndarray, np.ndarray]],
    device: DeviceProfile,
    report: ResourceReport,
    price: Callable[[], ResourceReport],
) -> ResourceReport:
    """Lower factorized ranks (index order) until the FLOP budget holds.

    The FLOP total is linear in each rank, so the largest fitting rank per
    layer is exact arithmetic; float edges are absorbed by re-checking the
    report and nudging one step further when needed.  Each new rank is split
    afresh from the layer's original matrix.
    """
    budget = min(device.alpha / device.bytes_per_flop, device.beta / device.seconds_per_flop)
    for idx in sorted(originals):
        if report.feasible:
            break
        layer = layers[idx]
        slope = _flop_slope(layer)
        rest = report.total_flops - slope * layer.R
        fitting = math.floor((budget - rest) / slope)
        new_r = min(layer.R, max(1, fitting))
        while True:
            if new_r < layer.R:
                layers[idx], work[idx] = factorize_layer_params(*originals[idx], new_r, dtype)
                report = price()
            if report.feasible or new_r <= 1:
                break
            new_r -= 1
    return report
