"""Connection dropout planner: thin a trained model until loss degrades.

Each round masks the smallest-magnitude fraction ``d`` of the surviving
connections on the targeted layers, retrains for one epoch, and re-tunes the
rate from how many connections survived:

    d' = d * max( sqrt(Q_b / Q_a), 1 - iteration / (c * max_iteration) )

where Q_a and Q_b are the connection counts before and after the round.  The
loop continues while the round's training loss stays within the reference
loss of the unpruned model, and the returned model is the last acceptable
round (round 1 if none were).  Masked connections never return within a run.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from edgeslim.archspec import is_json_number
from edgeslim.engine.model import (
    MaskedModel,
    TrainingDiverged,
    check_learning_rate,
    connection_count,
    copy_model,
)
from edgeslim.engine.training import epoch_seed, run_epoch

MIN_RATE = 1e-12  # the rate is clamped into (0, 1]; zero would stall the loop


@dataclass
class DropoutState:
    """Knobs and running counters of one planner loop."""

    d: float
    q_a: int
    q_b: int
    iteration: int
    max_iteration: int
    c: float

    def __post_init__(self) -> None:
        check_rate(self.d)
        check_schedule(self.c, self.max_iteration)


def check_rate(rate: float, name: str = "dropout rate") -> None:
    """A planner starting rate must lie in (0, 1]."""
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"{name} must lie in (0, 1], got {rate}")


def check_schedule(c: float, max_iteration: int) -> None:
    """The rate decay ``1 - iteration / (c * max_iteration)`` needs both
    factors positive."""
    if not (c > 0 and max_iteration > 0):  # NaN would pass ``c <= 0``
        raise ValueError("dropout c and max_iteration must be positive")


def check_reference_loss(reference_loss) -> None:
    """A reference loss is a finite number.  It may come from a checkpoint's
    extras, which hold any JSON value; against NaN no round is accepted,
    and against infinity every round is."""
    if not (is_json_number(reference_loss) and math.isfinite(reference_loss)):
        raise ValueError(f"reference loss must be a finite number, got {reference_loss!r}")


def update_rate(state: DropoutState) -> float:
    """Re-tuned dropout rate; backs off as the survivor ratio shrinks.

    The second factor decays with iteration count so late rounds prune
    gently even when survivor ratios stay high.
    """
    if state.q_a <= 0:
        raise ValueError("q_a must be positive to update the rate")
    survivor = np.sqrt(state.q_b / state.q_a)
    decay = 1.0 - state.iteration / (state.c * state.max_iteration)
    d_new = state.d * max(survivor, decay)
    return float(min(max(d_new, MIN_RATE), 1.0))


def apply_dropout(
    model: MaskedModel, rate: float, target_layers: Sequence[int]
) -> MaskedModel:
    """Mask the ``rate`` fraction of smallest surviving weights per layer.

    Returns a new model; the input is untouched.  A layer's maskable
    parameters are pooled (all gates, both factors), the floor(rate * alive)
    smallest |W| entries get mask 0, ties resolved by parameter order (the
    sorted names) then flat index: one ``lexsort`` over the three keys.
    Already-masked entries stay masked and their weights stay zeroed.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must lie in [0, 1], got {rate}")
    out = copy_model(model)
    depth = len(out.layers)
    for idx in target_layers:
        if not 0 <= idx < depth:
            raise ValueError(f"target layer {idx} out of range for depth {depth}")
        lp = out.layers[idx]
        names = sorted(lp.masks)
        alive = [np.flatnonzero(lp.masks[name].ravel() > 0) for name in names]
        flat = np.concatenate(alive)
        order = np.repeat(np.arange(len(names)), [len(a) for a in alive])
        size = np.concatenate([np.abs(lp.params[name].ravel()[a]) for name, a in zip(names, alive)])
        drop = np.lexsort((flat, order, size))[: int(np.floor(rate * len(flat)))]
        for k, name in enumerate(names):
            hit = flat[drop[order[drop] == k]]
            lp.masks[name].ravel()[hit] = 0.0
            lp.params[name].ravel()[hit] = 0.0
    return out


@dataclass
class DropoutRound:
    round: int
    d: float
    q_a: int
    q_b: int
    loss: float
    accepted: bool

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class DropoutResult:
    model: MaskedModel
    surviving: int
    rounds: list[DropoutRound] = field(default_factory=list)

    def log_dict(self) -> dict:
        return {"rounds": [r.to_dict() for r in self.rounds], "surviving": self.surviving}


def run(
    model: MaskedModel,
    dataset,
    eta: float,
    reference_loss: float,
    c: float = 1.0,
    max_iteration: int = 20,
    initial_rate: float = 0.5,
    input_rate: float = 0.8,
    batch_size: int = 32,
    seed: int = 0,
) -> DropoutResult:
    """Iteratively prune ``model`` while one-epoch retraining stays within
    ``reference_loss``.

    The targets are the non-shared layers.  The first of them (the one
    nearest the input) starts at ``input_rate``; the rest at
    ``initial_rate``; both scale by the same update factor each round.  The
    loop body always runs at least once and stops when the loss degrades, a
    round stops removing connections, or ``max_iteration`` is hit.
    """
    check_reference_loss(reference_loss)
    check_learning_rate(eta)
    check_rate(input_rate, "input dropout rate")
    target_layers = range(model.spec.shared_prefix, model.spec.depth)
    if not target_layers:
        raise ValueError("no target layers to prune")

    current = model
    best: MaskedModel | None = None
    best_q = connection_count(model)
    rounds: list[DropoutRound] = []
    state = DropoutState(
        d=initial_rate, q_a=best_q, q_b=best_q, iteration=0, max_iteration=max_iteration, c=c
    )
    input_scale = input_rate / initial_rate

    for iteration in range(1, max_iteration + 1):
        q_a = connection_count(current)
        first, rest = target_layers[0], target_layers[1:]
        pruned = apply_dropout(current, min(state.d * input_scale, 1.0), [first])
        if rest:
            pruned = apply_dropout(pruned, state.d, rest)
        rng = np.random.default_rng(epoch_seed(seed, iteration))
        loss = run_epoch(pruned, dataset, eta=eta, batch_size=batch_size, rng=rng)
        if not np.isfinite(loss):
            raise TrainingDiverged(f"dropout round {iteration}: training loss diverged")
        q_b = connection_count(pruned)
        accepted = loss <= reference_loss
        rounds.append(DropoutRound(iteration, state.d, q_a, q_b, loss, accepted))
        if accepted or best is None:
            # the round-1 model is returned even when it already degrades:
            # the loop body has run once and there is nothing better to keep
            best, best_q = pruned, q_b
        state.iteration = iteration
        state.q_a, state.q_b = q_a, q_b
        if not accepted or q_b == q_a:
            break  # rejected, or nothing removed: the rate update cannot remove more
        state.d = update_rate(state)
        current = pruned

    return DropoutResult(model=best, surviving=best_q, rounds=rounds)
