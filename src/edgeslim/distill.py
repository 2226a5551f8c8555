"""Two-teacher distillation with early halting.

A derived student trains under two guides: a trainee (an untrained copy of
the teacher architecture, learning alongside and sharing its leading layers
with the student) and a pretrained teacher.  Per batch the student minimises

    epoch <= h:  l1*CE_s + l2*AL + l3*DL + CE_te
    epoch  > h:  l1*CE_s + l2*AL + l3*DL

where CE_s / CE_te are the student's and trainee's cross-entropies, AL the
normalized attention-map loss, DL the squared-logit distillation loss, and h
the halting epoch after which the trainee is frozen and guidance comes from
the pretrained teacher alone.  While live, the trainee supplies the DL
targets and learns only from its own CE term; the pretrained teacher
supplies AL targets whenever present.  The l-weights on the simplex are
tuned by differential evolution against validation accuracy.

Each :func:`train` call builds one :class:`MapPlan`: both sides' map
steps (conv means, projections) and the maps' column layout.  A call with
no map (l2 = 0, or a one-layer student or guide) has no plan and no AL
term.  The pretrained teacher is frozen and nothing augments the data, so
the call runs it once over the training fold, in chunks, and each batch
indexes its logits and plan-formed attention targets by the batch's rows,
as it indexes the fold's features and labels, cast once per call; a live
trainee's targets are formed per batch.  A live trainee that shares the
student's leading layers continues from the student's output at the
shared prefix instead of running them again; those layers are the
trainee's, so one backward sums both paths' gradients into its gradient
buffer.  Past the two cross-entropies, a batch's loss is at most three
tape nodes: DL, AL (one node over the student's layer outputs, their maps
side by side) and the l-weighted sum.  The layer nodes write the
parameter gradients; one :func:`descend` of the step's models applies them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from edgeslim.archspec import CONV_KINDS, LayerSpec, NetworkSpec
from edgeslim.datasets import Dataset, train_test_split
from edgeslim.engine.autodiff import Tensor, _accum, _node, softmax_cross_entropy
from edgeslim.engine.model import (
    ForwardTrace,
    MaskedModel,
    TrainingDiverged,
    check_labels,
    check_learning_rate,
    descend,
    forward,
    model_bytes,
)
from edgeslim.engine.training import check_batch_size, check_epochs, epoch_seed, eval_chunks
from edgeslim.engine.training import fold_arrays, iterate_minibatches, predict
from edgeslim.metrics import accuracy as metric_accuracy
from edgeslim.metrics import confusion_counts
from edgeslim.resources import estimate_layer

NORM_FLOOR = 1e-6  # attention rows with a norm below this count as dead


class SchemeTraits(NamedTuple):
    trainee: bool  # a live trainee co-trains
    pretrained: bool  # a pretrained teacher guides
    shared: bool  # student and trainee alias their leading layers
    halts: bool  # trainee freezes at the halting epoch


# Ablation ladder: S1 pretrained-teacher-only distillation of a fresh
# student; S2/S3 trainee-only co-training (S3 adds sharing); S4/S5 both
# teachers (S5 adds sharing); S6 = S5 plus early halting.
SCHEMES = {
    "S1": SchemeTraits(trainee=False, pretrained=True, shared=False, halts=False),
    "S2": SchemeTraits(trainee=True, pretrained=False, shared=False, halts=False),
    "S3": SchemeTraits(trainee=True, pretrained=False, shared=True, halts=False),
    "S4": SchemeTraits(trainee=True, pretrained=True, shared=False, halts=False),
    "S5": SchemeTraits(trainee=True, pretrained=True, shared=True, halts=False),
    "S6": SchemeTraits(trainee=True, pretrained=True, shared=True, halts=True),
}


def check_lambdas(lams: Sequence[float]) -> None:
    """Three loss weights strictly inside the simplex (sum 1 to 1e-9)."""
    if len(lams) != 3:
        raise ValueError("lambdas must hold exactly three weights")
    if abs(sum(lams) - 1.0) > 1e-9:
        raise ValueError(f"lambda1+lambda2+lambda3 must equal 1, got {sum(lams)!r}")
    if not all(0.0 < l < 1.0 for l in lams):
        raise ValueError(f"each lambda must lie strictly in (0, 1), got {tuple(lams)}")


@dataclass(frozen=True)
class DistillPlan:
    """Loss weights, halting policy, and training knobs for one run.

    ``lambda1..3`` live strictly inside the simplex (sum 1 to 1e-9); the
    trainee's own CE term always weighs 1.  A halting scheme halts at the
    first epoch where :func:`plateau_reached` fires, or at the cap
    ``h_max`` (``total_epochs - 1`` when None).  To fix the halt at h, set
    ``h_max=h`` and a ``plateau_window`` of at least h, so the plateau
    cannot fire before the cap.  ``plateau_*`` read validation accuracy in
    percentage points.
    """

    lambda1: float
    lambda2: float
    lambda3: float
    total_epochs: int = 30
    scheme: str = "S6"
    eta: float = 0.05
    batch_size: int = 32
    seed: int = 0
    val_fraction: float = 0.3
    plateau_epsilon: float = 0.5
    plateau_window: int = 10
    h_max: int | None = None

    def __post_init__(self) -> None:
        check_lambdas((self.lambda1, self.lambda2, self.lambda3))
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; choose from {sorted(SCHEMES)}")
        check_epochs(self.total_epochs, "total_epochs")
        check_halting_epoch(self.h_max, self.total_epochs)
        check_plateau(self.plateau_epsilon, self.plateau_window)
        check_learning_rate(self.eta)
        check_batch_size(self.batch_size)

    def effective_lambdas(self) -> tuple[float, float, float, float]:
        """Per-scheme loss weights.

        The fourth weight is the trainee's CE, 1 whenever a trainee trains.
        Without a trainee there is no attention source being co-trained and
        no trainee CE, so those weights drop and the survivors renormalise
        to sum 1.
        """
        traits = SCHEMES[self.scheme]
        if traits.trainee:
            return (self.lambda1, self.lambda2, self.lambda3, 1.0)
        total = self.lambda1 + self.lambda3
        return (self.lambda1 / total, 0.0, self.lambda3 / total, 0.0)


@dataclass(frozen=True)
class LossBreakdown:
    ce_student: float
    ce_trainee: float
    attention: float
    distillation: float
    combined: float
    epoch: int
    branch: str  # "pre_halt" | "post_halt"


def combined_loss(
    ce_student: float, ce_trainee: float, attention: float, distillation: float,
    plan: DistillPlan, epoch: int, halted: bool,
) -> LossBreakdown:
    """Assemble one breakdown row; the branch decides whether CE_te counts.

    ``halted`` is the trainer's live flag; a halted run, like any scheme
    without a trainee, takes the post-halt branch.
    """
    post = halted or not SCHEMES[plan.scheme].trainee
    l1, l2, l3, l4 = plan.effective_lambdas()
    combined = l1 * ce_student + l2 * attention + l3 * distillation
    if not post:
        combined += l4 * ce_trainee
    branch = "post_halt" if post else "pre_halt"
    return LossBreakdown(ce_student, ce_trainee, attention, distillation, combined, epoch, branch)


# -- loss components --------------------------------------------------------


def distillation_loss_node(t: np.ndarray, s: Tensor) -> Tensor:
    """Mean over the batch of the squared L2 distance of the logits ``s`` to
    the guide's logits ``t``, a plain array and so detached."""
    if t.shape != s.data.shape:
        raise ValueError(f"logit shapes differ: {t.shape} vs {s.data.shape}")
    diff = t - s.data
    inv_n = diff.dtype.type(1.0 / len(diff))
    cell = s.cell

    def bwd(g):
        h = np.multiply(g * inv_n, diff)
        _accum(cell, np.negative(np.add(h, h, out=h), out=h))

    return _node(np.add.reduce(np.add.reduce(diff * diff, axis=1)) * inv_n, (s,), bwd)


def _projection(layer_idx: int, width_from: int, width_to: int) -> np.ndarray:
    """A fixed Gaussian (width_from, width_to) projection for layer
    ``layer_idx``, the same for the guide's targets and the student's maps."""
    rng = np.random.default_rng([0, layer_idx, width_from, width_to])
    return rng.normal(size=(width_from, width_to)) / np.sqrt(width_from)


Step = tuple[LayerSpec | None, np.generic | None, np.ndarray | None]


class MapPlan(NamedTuple):
    """How a guide's and a student's layer outputs become attention maps,
    fixed per :func:`train` call.  Per map and side, a step: the conv layer
    whose channels it averages and 1/(h*w), or None, and the projection to
    the map's width, or None.  The maps lie side by side in columns."""

    guide: list[Step]
    student: list[Step]
    starts: np.ndarray  # each map's first column, for ``reduceat``
    widths: list[int]  # each map's width, for ``repeat``
    cols: list[slice]  # each map's columns


def map_plan(
    guide_layers: Sequence[LayerSpec], student_layers: Sequence[LayerSpec], dtype
) -> MapPlan | None:
    """The :class:`MapPlan` in ``dtype`` of a guide with ``guide_layers`` for
    a student with ``student_layers``: one map per non-logit layer of both,
    at the narrower of the two widths, the wider side's map projected down.
    None when either side has one layer, and so no map."""
    widths = [min(g.O, s.O) for g, s in zip(guide_layers[:-1], student_layers[:-1])]
    if not widths:
        return None
    dtype, sides = np.dtype(dtype), ([], [])
    for idx, (width, *layers) in enumerate(zip(widths, guide_layers, student_layers)):
        for steps, layer in zip(sides, layers):
            conv = layer if layer.kind in CONV_KINDS else None
            scale = dtype.type(1.0 / (layer.h * layer.w)) if conv else None
            proj = _projection(idx, layer.O, width).astype(dtype) if layer.O > width else None
            steps.append((conv, scale, proj))
    ends = np.cumsum(widths, dtype=np.intp)
    cols = [slice(e - w, e) for e, w in zip(ends.tolist(), widths)]
    return MapPlan(*sides, ends - widths, widths, cols)


def _unit_rows(maps: np.ndarray, plan: MapPlan) -> tuple[np.ndarray, np.ndarray]:
    """Row-normalize each of the side-by-side ``maps`` of ``plan``: the unit
    rows, and per entry the inverse norm of its row of its map.  A row whose
    sum of squares is below the squared floor (dead ReLU rows, mostly) has no
    direction; it is detached -- inverse norm 0, so zero value and gradient
    -- not divided by the floor, which would make a 1/NORM_FLOOR gradient
    kick.  A row whose sum of squares overflows gets inverse norm 0 too."""
    squares = maps * maps
    sumsq = np.add.reduceat(squares, plan.starts, axis=1)
    root = np.sqrt(np.maximum(sumsq, NORM_FLOOR**2))
    inv = np.divide(sumsq >= NORM_FLOOR**2, root, out=root).repeat(plan.widths, axis=1)
    return np.multiply(maps, inv, out=squares), inv


def _maps(steps: Sequence[Step], outputs: Sequence[Tensor]) -> np.ndarray:
    """One side's ``steps`` applied to its layer ``outputs``: the maps side by side."""
    maps = []
    for output, (conv, scale, proj) in zip(outputs, steps):
        x = output.data
        if conv is not None:
            x = x.reshape(len(x), conv.O, conv.h, conv.w).sum(axis=(2, 3))
            x = x * scale
        if proj is not None:
            x = x @ proj
        maps.append(x)
    return np.concatenate(maps, axis=1)


def attention_targets(plan: MapPlan, trace: ForwardTrace) -> np.ndarray:
    """A guide's batch ``trace``'s maps by ``plan``, row-normalised by
    :func:`_unit_rows`: plain arrays, so a target is detached by construction."""
    return _unit_rows(_maps(plan.guide, trace.activations), plan)[0]


def attention_loss_node(t_unit: np.ndarray, acts: Sequence[Tensor], plan: MapPlan) -> Tensor:
    """Sum over maps of the mean over rows of |t_unit - unit(s)|^2, one node
    over the student's layer outputs ``acts``, one per map of ``plan``,
    against the guide's targets ``t_unit`` (:func:`attention_targets`).

    Normalization makes the loss scale-invariant in either map; a dead row
    is detached, not divided by zero.  With u = unit(s), diff = t_unit - u
    and p = 2 g/n diff, a row's gradient is (u (u . p) - p) / |s|, 0 if
    detached; it reaches ``acts[i]`` through the projection's transpose
    and, for a conv kind, the mean's broadcast over positions.
    """
    if len(acts) != len(plan.widths):
        n_maps, n_targets = len(acts), len(plan.widths)
        raise ValueError(f"{n_maps} student maps do not match the targets' {n_targets}")
    maps = _maps(plan.student, acts)
    if maps.shape != t_unit.shape:
        raise ValueError(f"student maps {maps.shape} do not match the targets' {t_unit.shape}")
    u, inv = _unit_rows(maps, plan)
    diff = t_unit - u
    inv_n = diff.dtype.type(1.0 / len(diff))
    cells = [act.cell for act in acts]

    def bwd(g):
        c = g * inv_n
        p = (c + c) * diff
        along = np.add.reduceat(u * p, plan.starts, axis=1)
        grad = along.repeat(plan.widths, axis=1)
        np.multiply(u, grad, out=grad)
        grad -= p
        grad *= inv
        for cell, (conv, scale, proj), cols in zip(cells, plan.student, plan.cols):
            if cell is None:
                continue
            g_map = grad[:, cols] if proj is None else grad[:, cols] @ proj.T
            if conv is not None:  # each position gets 1/(h*w) of its channel's
                g_map = g_map * scale
                g_map = np.broadcast_to(g_map[:, :, None, None], (*g_map.shape, conv.h, conv.w))
                g_map = g_map.reshape(len(g_map), -1)
            _accum(cell, g_map)

    return _node(np.add.reduce(diff * diff, axis=None) * inv_n, acts, bwd)


def _weighted_sum(terms: Sequence[tuple[np.ndarray, Tensor]]) -> Tensor:
    """Sum of lam * term as one tape node, added left to right as the chain's
    add nodes do, on numpy scalars; :func:`train` casts each lam once, as the
    chain's ``*`` would."""
    total = terms[0][1].data[()] * terms[0][0]
    for lam, term in terms[1:]:
        total = total + term.data[()] * lam
    pieces = [(lam, term.cell) for lam, term in terms]

    def bwd(g):
        g = g[()]  # a numpy scalar, like the values
        for lam, cell in pieces:
            if cell is not None:
                _accum(cell, g * lam)

    return _node(total, [term for _, term in terms], bwd)


# -- training loop ----------------------------------------------------------


@dataclass(frozen=True)
class EpochRecord:
    breakdown: LossBreakdown
    val_accuracy: float  # class-averaged, fraction in [0, 1]
    cumulative_flops: int


@dataclass
class TrainResult:
    student: MaskedModel
    trainee: MaskedModel | None
    history: list[EpochRecord]
    halting_epoch: int | None
    trainee_bytes_at_halt: bytes | None
    val_set: Dataset  # the validation fold each epoch scores

    @property
    def total_flops(self) -> int:
        return self.history[-1].cumulative_flops if self.history else 0

    @property
    def final_accuracy(self) -> float:
        return self.history[-1].val_accuracy if self.history else 0.0


def network_flops(spec: NetworkSpec) -> int:
    return sum(estimate_layer(layer).flops for layer in spec.layers)


def share_prefix_layers(student: MaskedModel, trainee: MaskedModel, prefix: int) -> None:
    """Alias the first ``prefix`` layers: the student borrows the trainee's
    layers, which view the trainee's buffer, and repacks its own buffer
    over the rest.  One update moves the prefix for both until the halt
    repacks the student whole (``student.pack()``)."""
    for idx in range(prefix):
        if student.spec.layers[idx] != trainee.spec.layers[idx]:
            raise ValueError(f"layer {idx} is not structurally shared")
        student.layers[idx] = trainee.layers[idx]
    student.pack(prefix)


def _frozen_outputs(
    teacher: MaskedModel, features: np.ndarray, plan: MapPlan | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """The frozen teacher's logits for every row, and its
    :func:`attention_targets` by ``plan``, or None without a plan, over
    :func:`eval_chunks` as ``predict`` runs.  An output row depends on its
    input row alone, so a batch's rows index what its own forward pass
    would give; a one-row batch reads its row of a GEMM, not a gemv."""
    logits, targets = [], []
    for rows in eval_chunks(len(features)):
        trace = forward(teacher, features[rows], trainable=False)
        logits.append(trace.logits.data)
        if plan is not None:
            targets.append(attention_targets(plan, trace))
    return np.concatenate(logits), None if plan is None else np.concatenate(targets)


def train(
    student: MaskedModel,
    trainee: MaskedModel | None,
    pretrained_teacher: MaskedModel | None,
    dataset: Dataset,
    plan: DistillPlan,
) -> TrainResult:
    """Run one scheme to completion; history carries one record per epoch.

    The three models share one dtype, and the dataset splits 70/30 (by
    ``plan.val_fraction`` and seed) into the training and validation folds,
    cast once.  Guidance targets are always detached: the trainee learns
    from its own CE only.  While the leading
    ``student.spec.shared_prefix`` layers stay aliased, the trainee
    continues from the student's output at that prefix, and one backward
    through the prefix carries the sum of both paths' gradients.  On
    divergence a ``TrainingDiverged`` is raised with the partial history
    attached as ``exc.history``.

    A halting scheme halts live: at the first epoch e where
    :func:`plateau_reached` fires, or at the cap ``plan.h_max``.  The
    trainee has then already trained through e, so h is e itself, not an
    epoch backdated to where the plateau began.
    """
    traits = SCHEMES[plan.scheme]
    for wanted, model, role in (
        (traits.trainee, trainee, "trainee model"),
        (traits.pretrained, pretrained_teacher, "pretrained teacher"),
    ):
        if wanted != (model is not None):
            verb = "needs" if wanted else "does not take"
            raise ValueError(f"scheme {plan.scheme} {verb} a {role}")
    if trainee is not None and pretrained_teacher is not None:
        if trainee.spec.layers != pretrained_teacher.spec.layers:
            raise ValueError("trainee and pretrained teacher must share one architecture")
    dtypes = sorted({m.dtype.name for m in filter(None, (student, trainee, pretrained_teacher))})
    if len(dtypes) > 1:
        raise ValueError(f"student, trainee and teacher must share one dtype, got {dtypes}")
    prefix = student.spec.shared_prefix
    if traits.shared:
        if student.borrowed != prefix or student.layers[:prefix] != trainee.layers[:prefix]:
            raise ValueError("scheme shares the leading layers; call share_prefix_layers first")

    for model in filter(None, (student, trainee)):
        check_labels(dataset.labels, model)
    train_set, val_set = train_test_split(dataset, plan.val_fraction, plan.seed)
    features, labels0 = fold_arrays(train_set, student)
    dtype = student.dtype
    l1, l2, l3, l4 = plan.effective_lambdas()
    w1, w2, w3, w4 = (dtype.type(lam) for lam in (l1, l2, l3, l4))  # model dtype
    f_student = network_flops(student.spec)
    f_trainee = network_flops(trainee.spec) if trainee is not None else 0
    f_teacher = network_flops(pretrained_teacher.spec) if pretrained_teacher is not None else 0

    history: list[EpochRecord] = []
    cumulative = 0
    halted = not traits.trainee  # trainee-less schemes live on the post-halt branch
    halting_epoch: int | None = None
    trainee_bytes: bytes | None = None
    h_cap = plan.h_max if plan.h_max is not None else plan.total_epochs - 1

    def halt_now(epoch: int) -> None:
        nonlocal halted, halting_epoch, trainee_bytes
        halted = True
        halting_epoch = epoch
        trainee_bytes = model_bytes(trainee)
        if traits.shared:
            student.pack()  # one copy gives the student a private buffer

    if traits.halts and h_cap == 0:
        halt_now(0)

    guide = pretrained_teacher if pretrained_teacher is not None else trainee
    maps = map_plan(guide.spec.layers, student.spec.layers, dtype) if l2 > 0.0 else None
    if pretrained_teacher is not None:
        teacher_logits, targets = _frozen_outputs(pretrained_teacher, train_set.features, maps)

    acc_pct: list[float] = []
    for epoch in range(1, plan.total_epochs + 1):
        rng = np.random.default_rng(epoch_seed(plan.seed, epoch))
        sums = [0.0] * 4  # ce_s, ce_te, al, dl weighted by batch size
        seen_rows = 0
        for idx in iterate_minibatches(train_set.n, plan.batch_size, rng):
            x, y0 = features.take(idx, axis=0), labels0[idx]  # take: a leaner row gather
            s_trace = forward(student, x, trainable=True)
            ce_s = softmax_cross_entropy(s_trace.logits, y0)
            models = [student]

            ce_te_val = 0.0
            terms = [(w1, ce_s)]
            if not halted:
                if traits.shared and prefix:  # the aliased prefix ran in the student's pass
                    head = s_trace.activations[:prefix]
                    tail = forward(trainee, head[-1], trainable=True, start=prefix)
                    te_trace = ForwardTrace(tail.logits, head + tail.activations, tail.batch_size)
                else:
                    te_trace = forward(trainee, x, trainable=True)
                ce_te = softmax_cross_entropy(te_trace.logits, y0)
                ce_te_val = float(ce_te.data)
                terms.append((w4, ce_te))
                models.append(trainee)
                dl_source = te_trace.logits.data
            else:  # only schemes with a pretrained teacher halt
                dl_source = teacher_logits.take(idx, axis=0)

            dl = distillation_loss_node(dl_source, s_trace.logits)
            al_val = 0.0
            if maps is not None:
                if pretrained_teacher is not None:
                    t_unit = targets.take(idx, axis=0)
                else:
                    t_unit = attention_targets(maps, te_trace)
                al = attention_loss_node(t_unit, s_trace.activations[:len(maps.widths)], maps)
                al_val = float(al.data)
                terms.append((w2, al))
            loss = _weighted_sum([*terms, (w3, dl)])

            try:
                if not math.isfinite(loss.data):
                    raise TrainingDiverged(f"combined loss diverged at epoch {epoch}")
                loss.backward()
                descend(models, plan.eta)
            except TrainingDiverged as exc:
                exc.history = history
                raise
            n = len(idx)
            values = (float(ce_s.data), ce_te_val, al_val, float(dl.data))
            sums = [s + n * v for s, v in zip(sums, values)]
            seen_rows += n

        ce_s_m, ce_te_m, al_m, dl_m = (s / seen_rows for s in sums)
        breakdown = combined_loss(ce_s_m, ce_te_m, al_m, dl_m, plan, epoch, halted=halted)
        per_instance = 3 * f_student
        if not halted:
            per_instance += 3 * f_trainee
        if pretrained_teacher is not None:
            per_instance += f_teacher
        cumulative += per_instance * seen_rows
        counts = confusion_counts(val_set.labels, predict(student, val_set.features), val_set.k)
        val_acc = metric_accuracy(counts)
        acc_pct.append(100.0 * val_acc)
        history.append(EpochRecord(breakdown, val_acc, cumulative))

        if traits.halts and not halted and (
            epoch >= h_cap or plateau_reached(acc_pct, plan.plateau_epsilon, plan.plateau_window)
        ):
            halt_now(epoch)

    return TrainResult(
        student=student,
        trainee=trainee,
        history=history,
        halting_epoch=halting_epoch,
        trainee_bytes_at_halt=trainee_bytes,
        val_set=val_set,
    )


# -- the halting trigger ----------------------------------------------------


def check_halting_epoch(h_max: int | None, total_epochs: int) -> None:
    """A set halting cap satisfies 0 <= h_max < total_epochs."""
    if h_max is not None and not 0 <= h_max < total_epochs:
        raise ValueError(f"h_max must stay below total_epochs and be non-negative, got {h_max!r}")


def check_plateau(epsilon: float, window: int) -> None:
    """Reject a plateau rule that :func:`plateau_reached` cannot apply."""
    if window < 1:
        raise ValueError("plateau window must be positive")
    if not epsilon >= 0:  # NaN would pass ``epsilon < 0``
        raise ValueError("plateau epsilon must be non-negative")


def plateau_reached(acc_pct: Sequence[float], epsilon: float, window: int) -> bool:
    """True once accuracy has plateaued at the end of ``acc_pct``.

    With e = len(acc_pct) >= window, the last epoch gained less than
    ``epsilon`` points over the trailing window: acc(e) - acc(e - window + 1)
    < epsilon, accuracies in percentage points, epochs 1-based.
    """
    e = len(acc_pct)
    return e >= window and acc_pct[e - 1] - acc_pct[e - window] < epsilon


# -- loss-weight search on the simplex --------------------------------------


def softmax_simplex(genome: np.ndarray) -> tuple[float, float, float]:
    """Map an unconstrained 3-vector to a strictly interior simplex point."""
    z = np.asarray(genome, dtype=np.float64)
    z = np.exp(z - z.max())
    z /= z.sum()
    return (float(z[0]), float(z[1]), float(z[2]))


def _draw_genomes(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` genomes: the evolutionary search's initial population."""
    return rng.normal(size=(count, 3))


DIFFERENTIAL_WEIGHT, CROSSOVER = 0.7, 0.9  # rand/1/bin's F and CR (Storn & Price 1997)
UNIFORM_LAMBDAS = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


@dataclass(frozen=True)
class DEBudget:
    population: int
    generations: int
    seed: int

    def __post_init__(self) -> None:
        if self.population < 4:
            raise ValueError("population must be at least 4")
        if self.generations < 0:
            raise ValueError("generations must be non-negative")


@dataclass(frozen=True)
class LambdaSolution:
    lambdas: tuple[float, float, float]
    fitness: float
    evaluations: int


def optimize_lambdas(
    score: Callable[[tuple[float, float, float]], float],
    budget: DEBudget,
) -> LambdaSolution:
    """Maximise ``score`` over the open simplex by differential evolution.

    Genomes live in R^3 and decode through a softmax, so every candidate is
    strictly interior and sums to 1.  rand/1/bin with greedy replacement:
    the population's best fitness never decreases, so the result is never
    worse than the best of the initial population: ``budget.population``
    standard-normal genomes, the first draws from ``budget.seed``.  If every
    evaluation came back identical the tuned point carries no information
    and the uniform weights are returned instead.
    """
    rng = np.random.default_rng(budget.seed)
    genomes = _draw_genomes(rng, budget.population)
    fitness = np.array([score(softmax_simplex(g)) for g in genomes], dtype=np.float64)
    evaluations = budget.population
    all_equal = bool(np.all(fitness == fitness[0]))

    for _ in range(budget.generations):
        for i in range(budget.population):
            others = [j for j in range(budget.population) if j != i]
            a, b, c = rng.choice(others, size=3, replace=False)
            mutant = genomes[a] + DIFFERENTIAL_WEIGHT * (genomes[b] - genomes[c])
            cross = rng.random(3) < CROSSOVER
            cross[rng.integers(3)] = True
            trial = np.where(cross, mutant, genomes[i])
            trial_fit = float(score(softmax_simplex(trial)))
            evaluations += 1
            all_equal = all_equal and trial_fit == fitness[0]
            if trial_fit > fitness[i]:
                genomes[i] = trial
                fitness[i] = trial_fit

    if all_equal:
        return LambdaSolution(UNIFORM_LAMBDAS, float(fitness[0]), evaluations)
    best = int(np.argmax(fitness))
    return LambdaSolution(softmax_simplex(genomes[best]), float(fitness[best]), evaluations)
