"""Desk-side pipeline: sweep shared depths, slim the teacher, distill.

For each candidate prefix depth l the pretrained teacher is copied, its
non-shared tail pruned by magnitude dropout and rewritten by the compressor
until the device budgets hold, and the result trained as the student of a
two-teacher distillation run (sharing its first l layers with a fresh
trainee).  Candidates are ranked by the final epoch's mean training
combined loss; infeasible depths stay in the report with their closest
model but never win.

Two kinds of depth skip dropout.  Full sharing (l equal to the depth)
leaves no tail, so the compressor gets the teacher itself.  A depth whose
compression floor (:func:`~edgeslim.compressor.floor_spec`) misses the
device budget runs neither dropout nor the compressor: feasibility depends
on FLOPs alone, so nothing makes it fit, and the compressor would end at
the floor.  Its record is the floor's spec and report, with one
compression step per layer the floor rewrites and ``dropout_rounds`` 0.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from functools import partial

from edgeslim import compressor, pruning
from edgeslim.archspec import NetworkSpec, network_to_dict
from edgeslim.datasets import Dataset, check_fraction
from edgeslim.distill import (
    SCHEMES,
    UNIFORM_LAMBDAS,
    DEBudget,
    DistillPlan,
    TrainResult,
    check_lambdas,
    network_flops,
    optimize_lambdas,
    share_prefix_layers,
    train,
)
from edgeslim.engine.model import (
    MaskedModel,
    check_learning_rate,
    connection_count,
    copy_model,
    init_model,
)
from edgeslim.engine.training import check_epochs, evaluate_loss, predict
from edgeslim.metrics import MetricsReport, evaluate_predictions
from edgeslim.resources import DeviceProfile, ResourceReport, estimate_network, resolve_alpha


class ReferenceMismatch(ValueError):
    """The provided teacher does not reproduce its recorded training loss."""


def derive_seed(*parts) -> int:
    """Stable per-stage seed from a hash of the labelled parts."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def prefix_sweep(depth: int) -> list[int]:
    """Candidate shared depths: from half the stack to the full stack, in
    about ten steps (l0 clamps to 1 so a single-layer network still sweeps).
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    start = max(1, depth // 2)
    step = max(1, math.ceil(depth / 10))
    return list(range(start, depth + 1, step))


@dataclass(frozen=True)
class PipelineSettings:
    omega: float = 0.5
    dropout_c: float = 1.0
    dropout_max_iteration: int = 20
    dropout_initial_rate: float = 0.5
    dropout_input_rate: float = 0.8
    dropout_eta: float = 0.05
    size_penalty: float = 0.0
    scheme: str = "S6"
    lambdas: tuple[float, float, float] | None = None
    de_population: int = 8
    de_generations: int = 4
    de_epochs: int = 6
    total_epochs: int = 30
    h_max: int | None = None
    plateau_epsilon: float = 0.5
    plateau_window: int = 10
    eta: float = 0.05
    batch_size: int = 32
    val_fraction: float = 0.3
    seed: int = 0
    reference_tolerance: float = 1e-6

    def __post_init__(self) -> None:
        if not 0.0 <= self.omega <= 1.0:
            raise ValueError("omega must lie in [0, 1]")
        if self.lambdas is not None:
            object.__setattr__(self, "lambdas", tuple(float(l) for l in self.lambdas))
            check_lambdas(self.lambdas)  # before the plan unpacks them
        check_epochs(self.de_epochs, "de_epochs")
        if not self.reference_tolerance >= 0:  # NaN would pass every comparison
            raise ValueError("reference_tolerance must be non-negative")
        # the rules of the code each setting reaches only after pretraining
        self.distill_plan(self.lambdas or UNIFORM_LAMBDAS, self.total_epochs, self.seed)
        check_fraction(self.val_fraction, "val_fraction")
        DEBudget(population=self.de_population, generations=self.de_generations, seed=self.seed)
        pruning.check_rate(self.dropout_initial_rate, "dropout_initial_rate")
        pruning.check_rate(self.dropout_input_rate, "dropout_input_rate")
        pruning.check_schedule(self.dropout_c, self.dropout_max_iteration)
        compressor.check_size_penalty(self.size_penalty)
        check_learning_rate(self.dropout_eta, "dropout_eta")

    def distill_plan(
        self, lambdas: tuple[float, float, float], epochs: int, seed: int
    ) -> DistillPlan:
        """The plan of one distillation run of ``epochs`` epochs.  A run
        shorter than ``total_epochs`` (a loss-weight search fit) caps
        ``h_max`` at its own last epoch but one."""
        h_max = self.h_max
        if h_max is not None and epochs < self.total_epochs:
            h_max = min(h_max, epochs - 1)
        return DistillPlan(
            *lambdas,
            total_epochs=epochs,
            scheme=self.scheme,
            eta=self.eta,
            batch_size=self.batch_size,
            seed=seed,
            val_fraction=self.val_fraction,
            plateau_epsilon=self.plateau_epsilon,
            plateau_window=self.plateau_window,
            h_max=h_max,
        )


@dataclass
class CandidateRecord:
    l: int
    spec: NetworkSpec
    feasible: bool
    report: ResourceReport
    dropout_rounds: int
    compression_steps: int
    # distillation results, set on feasible rows only
    lambdas: tuple[float, float, float] | None = None
    final_combined_loss: float | None = None
    halting_epoch: int | None = None
    val_accuracy: float | None = None
    metrics: MetricsReport | None = None
    training_flops: int | None = None
    model: MaskedModel | None = None  # the trained student

    def to_dict(self) -> dict:
        return {
            "l": self.l,
            "spec": network_to_dict(self.spec),
            "feasible": self.feasible,
            "report": self.report.to_dict(),
            "lambdas": list(self.lambdas) if self.lambdas else None,
            "final_combined_loss": self.final_combined_loss,
            "halting_epoch": self.halting_epoch,
            "val_accuracy": self.val_accuracy,
            "metrics": self.metrics.to_dict() if self.metrics else None,
            "training_flops": self.training_flops,
            "dropout_rounds": self.dropout_rounds,
            "compression_steps": self.compression_steps,
        }


@dataclass
class PipelineResult:
    records: list[CandidateRecord]
    best: CandidateRecord | None

    @property
    def all_infeasible(self) -> bool:
        return self.best is None

    def to_dict(self) -> dict:
        return {
            "records": [r.to_dict() for r in self.records],
            "best_l": self.best.l if self.best else None,
            "all_infeasible": self.all_infeasible,
        }


def select(records: list[CandidateRecord]) -> CandidateRecord | None:
    """Best feasible candidate: lowest final combined loss, then fewer
    inference FLOPs, then the shallower shared depth."""
    feasible = [r for r in records if r.feasible]
    if not feasible:
        return None
    return min(
        feasible,
        key=lambda r: (r.final_combined_loss, r.report.total_flops, r.l),
    )


def _with_prefix(model: MaskedModel, prefix: int) -> MaskedModel:
    spec = replace(model.spec, shared_prefix=prefix)
    return MaskedModel(spec=spec, layers=model.layers, dtype=model.dtype)


def _distill(
    settings: PipelineSettings,
    l: int,
    student: MaskedModel,
    trainee: MaskedModel,
    pretrained: MaskedModel,
    dataset: Dataset,
    lambdas: tuple[float, float, float],
    epochs: int,
    seed: int,
) -> TrainResult:
    """One distillation run of the scheme from fresh copies of the start
    point, so every run of a candidate begins at the same weights."""
    traits = SCHEMES[settings.scheme]
    student, trainee = copy_model(student), copy_model(trainee)
    if traits.shared:
        share_prefix_layers(student, trainee, l)
    return train(
        student,
        trainee if traits.trainee else None,
        pretrained if traits.pretrained else None,
        dataset,
        settings.distill_plan(lambdas, epochs, seed),
    )


def _evaluate_candidate(
    l: int, pretrained: MaskedModel, reference_loss: float, dataset: Dataset,
    device: DeviceProfile, settings: PipelineSettings,
) -> CandidateRecord:
    teacher = _with_prefix(pretrained, l)

    floor_net = compressor.floor_spec(teacher.spec)
    floor = estimate_network(floor_net, device, settings.omega)
    if not floor.feasible:
        # nothing makes this depth fit, and the compressor would end at the floor
        steps = sum(new != old for new, old in zip(floor_net.layers, teacher.spec.layers))
        return CandidateRecord(l=l, spec=floor_net, feasible=False, report=floor,
                               dropout_rounds=0, compression_steps=steps)
    if teacher.spec.non_shared_count == 0:  # full sharing leaves no tail to slim
        dropout = pruning.DropoutResult(
            model=teacher, surviving=connection_count(teacher), rounds=[]
        )
    else:
        dropout = pruning.run(
            teacher,
            dataset,
            eta=settings.dropout_eta,
            reference_loss=reference_loss,
            c=settings.dropout_c,
            max_iteration=settings.dropout_max_iteration,
            initial_rate=settings.dropout_initial_rate,
            input_rate=settings.dropout_input_rate,
            batch_size=settings.batch_size,
            seed=derive_seed(settings.seed, "dropout", l),
        )
    outcome = compressor.run(
        dropout.model, device, settings.omega, size_penalty=settings.size_penalty
    )
    record = CandidateRecord(
        l=l,
        spec=outcome.model.spec,
        feasible=outcome.feasible,
        report=outcome.report,
        dropout_rounds=len(dropout.rounds),
        compression_steps=len(outcome.records),
    )
    if not outcome.feasible:
        return record

    trainee_spec = replace(pretrained.spec, shared_prefix=l)
    trainee = init_model(trainee_spec, derive_seed(settings.seed, "trainee", l), pretrained.dtype)
    fit = partial(_distill, settings, l, outcome.model, trainee, pretrained, dataset)
    if settings.lambdas is not None:
        lambdas = settings.lambdas
    else:
        eval_seed = derive_seed(settings.seed, "lambda-eval", l)
        budget = DEBudget(
            population=settings.de_population,
            generations=settings.de_generations,
            seed=derive_seed(settings.seed, "lambda-de", l),
        )
        lambdas = optimize_lambdas(
            lambda lams: fit(lams, settings.de_epochs, eval_seed).final_accuracy, budget
        ).lambdas

    train_seed = derive_seed(settings.seed, "train", l)
    result = fit(lambdas, settings.total_epochs, train_seed)
    val_set = result.val_set
    metrics = evaluate_predictions(val_set.labels, predict(result.student, val_set.features), val_set.k)
    return replace(
        record,
        lambdas=tuple(lambdas),
        final_combined_loss=result.history[-1].breakdown.combined,
        halting_epoch=result.halting_epoch,
        val_accuracy=result.final_accuracy,
        metrics=metrics,
        training_flops=result.total_flops,
        model=result.student,
    )


def run(
    pretrained: MaskedModel,
    reference_loss: float,
    dataset: Dataset,
    device: DeviceProfile,
    settings: PipelineSettings = PipelineSettings(),
) -> PipelineResult:
    """Sweep shared depths and return every candidate plus the winner.

    The teacher must first reproduce its recorded training loss on this
    dataset (guards against mismatched checkpoint/dataset pairs); then each
    depth runs dropout, compression, the loss-weight search, and the full
    distillation, one depth after another.
    """
    pruning.check_reference_loss(reference_loss)
    actual = evaluate_loss(pretrained, dataset)
    if not math.isfinite(actual) or abs(actual - reference_loss) > settings.reference_tolerance:
        raise ReferenceMismatch(
            f"teacher loss {actual:.8f} does not match the recorded "
            f"reference {reference_loss:.8f} (tolerance {settings.reference_tolerance})"
        )
    # A ratio-form memory budget means "this fraction of the teacher's own
    # load", so it pins to the uncompressed network once, up front.
    device = resolve_alpha(device, network_flops(pretrained.spec))

    records = [
        _evaluate_candidate(l, pretrained, reference_loss, dataset, device, settings)
        for l in prefix_sweep(pretrained.spec.depth)
    ]
    return PipelineResult(records=records, best=select(records))
