"""Class-averaged evaluation metrics.

Each class is scored one-vs-rest from its own confusion counts and the k
per-class scores are averaged with equal weight.  A class with an empty
denominator (never predicted, or absent) contributes zero rather than NaN,
which keeps averages defined on degenerate splits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ConfusionCounts:
    """One-vs-rest counts per class; arrays share index = class label - 1."""

    tp: np.ndarray
    tn: np.ndarray
    fp: np.ndarray
    fn: np.ndarray
    k: int

    @property
    def n(self) -> int:
        return int(self.tp[0] + self.tn[0] + self.fp[0] + self.fn[0])


def confusion_counts(labels: np.ndarray, predictions: np.ndarray, k: int) -> ConfusionCounts:
    labels = np.asarray(labels)
    predictions = np.asarray(predictions)
    if labels.shape != predictions.shape or labels.ndim != 1:
        raise ValueError(
            f"labels {labels.shape} and predictions {predictions.shape} must be equal 1-d"
        )
    if labels.size == 0:
        raise ValueError("cannot score an empty label set")
    for name, arr in (("labels", labels), ("predictions", predictions)):
        if arr.min() < 1 or arr.max() > k:
            raise ValueError(f"{name} must lie in 1..{k}")
    tp = np.zeros(k, dtype=np.int64)
    tn = np.zeros(k, dtype=np.int64)
    fp = np.zeros(k, dtype=np.int64)
    fn = np.zeros(k, dtype=np.int64)
    for cls in range(1, k + 1):
        actual = labels == cls
        predicted = predictions == cls
        tp[cls - 1] = np.sum(actual & predicted)
        tn[cls - 1] = np.sum(~actual & ~predicted)
        fp[cls - 1] = np.sum(~actual & predicted)
        fn[cls - 1] = np.sum(actual & ~predicted)
    return ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn, k=k)


def _mean_ratio(numer: np.ndarray, denom: np.ndarray) -> float:
    """Average numer/denom over classes, counting empty denominators as 0."""
    out = np.zeros(len(numer), dtype=np.float64)
    nonzero = denom > 0
    out[nonzero] = numer[nonzero] / denom[nonzero]
    return float(out.mean())


def accuracy(counts: ConfusionCounts) -> float:
    """Mean over classes of (TP+TN) / (TP+TN+FP+FN)."""
    return _mean_ratio(
        counts.tp + counts.tn, counts.tp + counts.tn + counts.fp + counts.fn
    )


def f1(counts: ConfusionCounts) -> float:
    """Mean over classes of 2TP / (2TP+FP+FN)."""
    return _mean_ratio(2 * counts.tp, 2 * counts.tp + counts.fp + counts.fn)


def precision(counts: ConfusionCounts) -> float:
    """Mean over classes of TP / (TP+FP)."""
    return _mean_ratio(counts.tp, counts.tp + counts.fp)


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    f1: float
    precision: float
    counts: ConfusionCounts

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "f1": self.f1,
            "precision": self.precision,
            "per_class": {
                "tp": self.counts.tp.tolist(),
                "tn": self.counts.tn.tolist(),
                "fp": self.counts.fp.tolist(),
                "fn": self.counts.fn.tolist(),
            },
        }


def evaluate_predictions(labels: np.ndarray, predictions: np.ndarray, k: int) -> MetricsReport:
    counts = confusion_counts(labels, predictions, k)
    return MetricsReport(
        accuracy=accuracy(counts), f1=f1(counts), precision=precision(counts), counts=counts
    )

