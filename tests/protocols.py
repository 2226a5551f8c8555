"""Checks of the paper's claims that the package itself never runs.

:func:`convexity_probe` measures the lemma's per-coordinate curvature of the
combined loss on a one-layer diagonal model, with the cross-entropy and the
logit distillation terms taken from the nodes that ``distill.train`` runs.
:func:`leave_one_out` scores the cost of a class unseen in training, and
:func:`random_interior_points` is the baseline the loss-weight search must
beat.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from edgeslim.datasets import train_test_split
from edgeslim.distill import _draw_genomes, distillation_loss_node, softmax_simplex
from edgeslim.engine.autodiff import Tensor, softmax_cross_entropy
from edgeslim.metrics import evaluate_predictions


@dataclass(frozen=True)
class LemmaPoint:
    """The diagonal model s = w * x + b, all float64, with frozen guidance:
    the guide's logits, its unit attention rows, and the normaliser C of
    the student's attention side."""

    w: np.ndarray  # (k,)
    b: np.ndarray  # (k,)
    x: np.ndarray  # (n, k)
    labels: np.ndarray  # (n,) 1-based
    teacher_logits: np.ndarray  # (n, k)
    teacher_maps: np.ndarray  # (n, k), unit rows
    student_map_norm: float
    lambdas: tuple[float, float, float, float] = (0.25, 0.25, 0.25, 1.0)
    ce_trainee: float = 0.0  # constant in the probe's input


def lemma_losses(point: LemmaPoint, x: np.ndarray) -> dict[str, float]:
    """The loss terms at inputs ``x``.  CE and DL are the live nodes.  AL
    divides by the lemma's frozen C: the live attention node divides each
    row by its own norm, which is not a quadratic in any one coordinate."""
    s = point.w * x + point.b
    ce = float(softmax_cross_entropy(Tensor(s), point.labels - 1).data)
    dl = float(distillation_loss_node(point.teacher_logits, Tensor(s)).data)
    al = float(((point.teacher_maps - s / point.student_map_norm) ** 2).sum(axis=1).mean())
    l1, l2, l3, l4 = point.lambdas
    combined = l1 * ce + l2 * al + l3 * dl + l4 * point.ce_trainee
    return {"ce_student": ce, "attention": al, "distillation": dl, "combined": combined}


def convexity_probe(point: LemmaPoint, term: str, step: float = 0.05) -> np.ndarray:
    """(f(x + h e) - 2 f(x) + f(x - h e)) / h^2 of one loss term in every
    input coordinate, shape (n, k); non-negative where the term is convex."""
    base = lemma_losses(point, point.x)[term]
    estimates = np.empty(point.x.shape)
    for idx in np.ndindex(point.x.shape):
        bump = np.zeros_like(point.x)
        bump[idx] = step
        up = lemma_losses(point, point.x + bump)[term]
        down = lemma_losses(point, point.x - bump)[term]
        estimates[idx] = (up - 2.0 * base + down) / step**2
    return estimates


def analytic_curvature(point: LemmaPoint, term: str) -> np.ndarray:
    """Closed-form d2/dx_ij^2 of one term at the probe point, shape (n, k).

    With s = w*x + b the chain rule pulls out w^2 per coordinate: the CE
    Hessian diagonal is softmax curvature p(1-p), the guidance terms are
    plain quadratics (the attention one through the frozen normaliser C).
    """
    n = point.x.shape[0]
    s = point.w * point.x + point.b
    p = np.exp(s - s.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    w2 = np.broadcast_to(point.w**2, s.shape)
    curvatures = {
        "ce_student": w2 * p * (1.0 - p) / n,
        "attention": 2.0 * w2 / (point.student_map_norm**2 * n),
        "distillation": 2.0 * w2 / n,
    }
    l1, l2, l3, _ = point.lambdas
    curvatures["combined"] = (
        l1 * curvatures["ce_student"]
        + l2 * curvatures["attention"]
        + l3 * curvatures["distillation"]
    )
    return curvatures[term]


def random_interior_points(seed: int, count: int) -> list[tuple[float, float, float]]:
    """The simplex points of the initial population that
    ``distill.optimize_lambdas`` draws for the same seed and count."""
    return [softmax_simplex(g) for g in _draw_genomes(np.random.default_rng(seed), count)]


def without_class(dataset, label: int):
    """``dataset`` less every instance of class ``label``; k is kept so
    the logits still fit."""
    return dataset.subset(np.flatnonzero(dataset.labels != label))


def leave_one_out(harness, dataset, label: int, test_fraction: float = 0.3, seed: int = 0):
    """Score a model trained with one class withheld from the training split.

    ``harness(train_dataset)`` must return a ``predict(features) -> labels``
    callable.  The test split keeps all classes, so the report shows what the
    missing class costs.  Raises if the class is absent from the dataset.
    """
    if not np.any(dataset.labels == label):
        raise ValueError(f"class {label} does not occur in the dataset")
    train, test = train_test_split(dataset, test_fraction=test_fraction, seed=seed)
    predict = harness(without_class(train, label))
    return evaluate_predictions(test.labels, predict(test.features), dataset.k)
