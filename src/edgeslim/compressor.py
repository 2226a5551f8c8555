"""Layer rewrites that shrink a model onto a device budget.

Two rewrite families:

- Weight factorization: an fc/conv weight becomes a product of two thinner
  maps through an intermediate width R, legal only when R stays strictly
  under I*O/(I+O).  Factors come from the truncated SVD of the effective
  (masked) weight, so the rewritten layer approximates the original before
  any retraining.  A layer that is already factorized is split again from
  the product of its factors.
- Gate reduction: LSTM cells become coupled-gate cells (input gate derived
  as 1 - forget), GRU cells become minimal gated cells; surviving gates keep
  their weights and masks.

:func:`run` plans on the layer specs first and touches no weight while it
searches.  An index pass picks each non-shared layer's rewrite until the
resource report turns feasible.  If it ends infeasible, a tightening pass
lowers the rank of every non-shared factorized layer, in index order, down
to R=1; a factorized layer's FLOPs are R times a constant, so its slope is
read off :func:`~edgeslim.resources.estimate_layer`.  Then each changed
layer is built once, from the weights it came in with, and recorded once.
An infeasible outcome still carries the closest model and its report.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from edgeslim.archspec import (
    CONV_KINDS,
    FACTORIZED_KINDS,
    LayerKind,
    LayerSpec,
    NetworkSpec,
    check_valid,
)
from edgeslim.engine.layers import conv_matrix, conv_weight, param_layout
from edgeslim.engine.model import LayerParams, MaskedModel
from edgeslim.resources import (
    DeviceProfile,
    ResourceReport,
    estimate_layer,
    estimate_network,
)

# relative tolerance under which two rank scores tie (the smaller R wins)
_TIE_RTOL = 1e-6


def factorization_threshold(I: int, O: int) -> int:
    """Largest R satisfying R < I*O/(I+O) strictly; 0 means no legal rank."""
    if I < 1 or O < 1:
        raise ValueError(f"dimensions must be positive, got I={I}, O={O}")
    return (I * O - 1) // (I + O)


def check_size_penalty(size_penalty: float) -> None:
    """The rank score's cost per unit of R must be finite and non-negative."""
    if not (math.isfinite(size_penalty) and size_penalty >= 0):
        raise ValueError(f"size_penalty must be finite and non-negative, got {size_penalty!r}")


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
    weight: np.ndarray, r_start: int, size_penalty: float = 0.0
) -> FactorizationResult:
    """Pick the rank with the best error-vs-size score, scanning 1..r_start.

    The score is reconstruction error plus ``size_penalty * R``; scores
    within a relative 1e-6 of the best count as ties and break toward
    smaller R (an exactly rank-2 matrix scanned from R=10 yields R=2, a zero
    matrix yields R=1).  ``r_start`` must respect the strict threshold of
    the matrix being factorized.
    """
    check_size_penalty(size_penalty)
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
    tol = _TIE_RTOL * max(float(errors.max(initial=0.0)), 1.0)
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
    entries are zero in it, as in every stored weight.

    fc: W (I, O) as stored; conv: the (I*f*g, O) matrix its kernel
    multiplies by.  A factorized layer's matrix is the product of its
    factors, W1·W2 (conv: ``conv_matrix(W1)``·W2).
    """
    factorized = layer.kind in FACTORIZED_KINDS
    w = lp.params["W1" if factorized else "W"].astype(np.float64)
    matrix = conv_matrix(w) if layer.kind in CONV_KINDS else w
    return matrix @ lp.params["W2"].astype(np.float64) if factorized else matrix


def effective_bias(layer: LayerSpec, lp: LayerParams) -> np.ndarray:
    """The bias that goes with :func:`effective_matrix`: b, or b1·W2 + b2
    for a factorized layer (no nonlinearity sits between its factors)."""
    p = lp.params
    if layer.kind in FACTORIZED_KINDS:
        return p["b1"].astype(np.float64) @ p["W2"].astype(np.float64) + p["b2"]
    return p["b"]


def factorize_layer_params(
    layer: LayerSpec, matrix: np.ndarray, bias: np.ndarray, r: int, dtype
) -> tuple[LayerSpec, LayerParams]:
    """Split the fc/conv or factorized ``layer`` at rank ``r``; factors
    carry fresh full masks.

    ``matrix`` and ``bias`` are the layer's :func:`effective_matrix` and
    :func:`effective_bias`; the factors are the rank-r truncated SVD with
    the singular values split evenly between them.
    """
    kind = _FACTORIZED.get(layer.kind, layer.kind)
    if kind not in FACTORIZED_KINDS:
        raise ValueError(f"cannot factorize a {layer.kind.value} layer")
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    root = np.sqrt(s[:r])
    a, bmat = u[:, :r] * root, root[:, None] * vt[:r]
    if kind == LayerKind.FACTORIZED_CONV:
        a = conv_weight(a, (r, layer.I, layer.f, layer.g))
    params = {
        "W1": a.astype(dtype),  # fc (I, R); conv (R, I, f, g)
        "b1": np.zeros(r, dtype=dtype),
        "W2": bmat.astype(dtype),  # (R, O)
        "b2": bias.astype(dtype),
    }
    masks = {"W1": np.ones_like(params["W1"]), "W2": np.ones_like(params["W2"])}
    return replace(layer, kind=kind, R=r), LayerParams(params=params, masks=masks)


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


def floor_spec(spec: NetworkSpec) -> NetworkSpec:
    """``spec`` with every non-shared layer rewritten as small as it goes.

    Fc/conv layers with a legal rank and already-factorized layers sit at
    R=1, recurrent cells at their reduced kind.  This is the floor
    :func:`run` reaches: FLOPs alone decide feasibility, so budgets the
    floor meets are satisfiable and no weights (pruned or not) fit a
    budget it misses.
    """
    layers = list(spec.layers)
    for idx in range(spec.shared_prefix, spec.depth):
        layer = layers[idx]
        if layer.kind in _FACTORIZED:
            if factorization_threshold(layer.I, layer.O) >= 1:
                layers[idx] = replace(layer, kind=_FACTORIZED[layer.kind], R=1)
        elif layer.kind in (LayerKind.LSTM, LayerKind.GRU):
            layers[idx] = reduce_gates(layer)
        elif layer.kind in FACTORIZED_KINDS:
            layers[idx] = replace(layer, R=1)
    return replace(spec, layers=tuple(layers))


def minimum_flops(spec: NetworkSpec) -> int:
    """Total FLOPs of :func:`floor_spec`, the least :func:`run` can reach."""
    return sum(estimate_layer(layer).flops for layer in floor_spec(spec).layers)


def run(
    model: MaskedModel,
    device: DeviceProfile,
    omega: float,
    size_penalty: float = 0.0,
) -> CompressionOutcome:
    """Rewrite non-shared layers until both budgets hold.

    Already-feasible models come back unchanged.  Legal ranks and gate
    reductions strictly reduce both parameter and FLOP counts.  The plan
    (module docstring) fixes every layer's final spec before any weight is
    split.
    """
    check_size_penalty(size_penalty)
    spec = model.spec
    before = estimate_network(spec, device, omega)
    if before.feasible:
        return CompressionOutcome(model=model, report=before, before=before)

    layers = list(spec.layers)
    non_shared = range(spec.shared_prefix, spec.depth)

    def price() -> ResourceReport:
        return estimate_network(check_valid(replace(spec, layers=tuple(layers))), device, omega)

    report = before
    for idx in non_shared:
        if report.feasible:
            break
        layer = layers[idx]
        if layer.kind in _FACTORIZED:
            r_max = factorization_threshold(layer.I, layer.O)
            if r_max < 1:
                continue
            matrix = effective_matrix(layer, model.layers[idx])
            r = choose_rank(matrix, r_max, size_penalty=size_penalty).R
            layers[idx] = replace(layer, kind=_FACTORIZED[layer.kind], R=r)
        elif layer.kind in (LayerKind.LSTM, LayerKind.GRU):
            layers[idx] = reduce_gates(layer)
        else:
            continue
        report = price()

    # FLOPs are linear in each rank, so the largest fitting rank is exact
    # arithmetic; float edges in the budget are absorbed by re-pricing and
    # stepping one rank further when needed
    budget = min(device.alpha / device.bytes_per_flop, device.beta / device.seconds_per_flop)
    for idx in non_shared:
        if report.feasible:
            break
        layer = layers[idx]
        if layer.kind not in FACTORIZED_KINDS:
            continue
        slope = estimate_layer(layer).flops // layer.R  # exact: the row is R times a constant
        rest = report.total_flops - slope * layer.R
        # a split keeps at most min(I, O) directions of the layer's matrix
        new_r = min(layer.R, layer.I, layer.O, max(1, math.floor((budget - rest) / slope)))
        while True:
            if new_r < layer.R:
                layers[idx] = replace(layer, R=new_r)
                report = price()
            if report.feasible or new_r <= 1:
                break
            new_r -= 1

    work, records = list(model.layers), []
    for idx, (old, new) in enumerate(zip(spec.layers, layers)):
        if new == old:
            continue
        (p0, f0), (p1, f1) = estimate_layer(old), estimate_layer(new)
        costs = dict(params_before=p0, params_after=p1, flops_before=f0, flops_after=f1)
        if new.kind in FACTORIZED_KINDS:
            matrix = effective_matrix(old, work[idx])
            bias = effective_bias(old, work[idx])
            _, work[idx] = factorize_layer_params(old, matrix, bias, new.R, model.dtype)
            error = float(truncation_errors(matrix)[new.R - 1])
            records.append(FactorizationResult(idx, new.R, error, **costs))
        else:
            _, work[idx] = reduce_layer_params(old, work[idx], model.dtype)
            records.append(GateReductionResult(idx, old.kind.value, new.kind.value, **costs))
    out = MaskedModel(check_valid(replace(spec, layers=tuple(layers))), work, model.dtype)
    return CompressionOutcome(model=out, report=report, before=before, records=records)
