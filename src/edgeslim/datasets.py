"""Labelled datasets: container, CSV round-trip, splits, synthetic generator.

Instances are flat float vectors; labels run 1..k.  The CSV form has a
``label,s0,...,s{p-1}`` header and one row per instance, floats written in
shortest round-trip form so save/load is value-exact.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (n, p) float64
    labels: np.ndarray  # (n,) int, values in 1..k
    k: int

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise ValueError(f"features must be a non-empty 2-d array, got shape {feats.shape}")
        if labels.shape != (feats.shape[0],):
            raise ValueError(
                f"labels shape {labels.shape} does not match {feats.shape[0]} instances"
            )
        if self.k < 2:
            raise ValueError(f"k must be at least 2, got {self.k}")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features contain non-finite values")
        if labels.min() < 1 or labels.max() > self.k:
            raise ValueError(f"labels must lie in 1..{self.k}")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.features[indices], self.labels[indices], self.k)


def check_fraction(fraction: float, name: str = "test_fraction") -> None:
    """Reject a split fraction that :func:`train_test_split` cannot apply."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {fraction}")


def train_test_split(
    dataset: Dataset, test_fraction: float = 0.3, seed: int = 0
) -> tuple[Dataset, Dataset]:
    """One seeded shuffle, then a head/tail cut.  Both halves stay non-empty."""
    check_fraction(test_fraction)
    rng = np.random.default_rng(seed)
    order = rng.permutation(dataset.n)
    n_test = int(round(dataset.n * test_fraction))
    n_test = min(max(n_test, 1), dataset.n - 1)
    return dataset.subset(order[n_test:]), dataset.subset(order[:n_test])


def make_synthetic(
    k: int, p: int, n: int, seed: int = 0, separation: float = 2.5
) -> Dataset:
    """Gaussian blobs, one per class, centred at ``separation``-scaled points.

    Classes get near-equal counts (remainders go to the low labels), so every
    class is present whenever ``n >= k``.
    """
    if n < k:
        raise ValueError(f"need at least one instance per class: n={n}, k={k}")
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(k, p))
    centers *= separation / np.maximum(np.linalg.norm(centers, axis=1, keepdims=True), 1e-12)
    counts = [n // k + (1 if c < n % k else 0) for c in range(k)]
    feats, labels = [], []
    for cls, count in enumerate(counts):
        feats.append(centers[cls] + rng.normal(size=(count, p)))
        labels.append(np.full(count, cls + 1, dtype=np.int64))
    features = np.concatenate(feats)
    labels = np.concatenate(labels)
    order = rng.permutation(n)
    return Dataset(features[order], labels[order], k)


def save_csv(dataset: Dataset, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"] + [f"s{i}" for i in range(dataset.p)])
        for label, row in zip(dataset.labels, dataset.features):
            writer.writerow([int(label)] + [repr(float(v)) for v in row])


def load_csv(path) -> Dataset:
    """Read a dataset CSV; ``k`` is the largest label seen, at least 2."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if not header or header[0] != "label":
            raise ValueError(f"{path}: first column must be 'label'")
        p = len(header) - 1
        if p < 1 or header[1:] != [f"s{i}" for i in range(p)]:
            raise ValueError(f"{path}: feature columns must be s0..s{{p-1}}")
        labels, rows = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != p + 1:
                raise ValueError(f"{path}:{lineno}: expected {p + 1} fields, got {len(row)}")
            try:
                labels.append(np.int64(int(row[0])))
                rows.append([float(v) for v in row[1:]])
            except (ValueError, OverflowError) as exc:  # OverflowError: a label past int64
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    labels = np.asarray(labels, dtype=np.int64)
    return Dataset(np.asarray(rows, dtype=np.float64), labels, max(int(labels.max()), 2))
