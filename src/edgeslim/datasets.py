"""Labelled datasets: container, CSV round-trip, splits, synthetic generator.

Instances are flat float vectors; labels run 1..k.  The CSV form has a
``label,s0,...,s{p-1}`` header and one CRLF-ended row per instance, floats in
shortest round-trip form so save/load is value-exact.  ``load_csv`` parses the
body in one ``np.loadtxt`` call, so data rows must be ASCII without ``_``; on
a bad row it rescans the file to name the line.
"""

from __future__ import annotations

import csv
import warnings
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
    features = np.repeat(centers, counts, axis=0) + rng.normal(size=(n, p))
    labels = np.repeat(np.arange(1, k + 1, dtype=np.int64), counts)
    order = rng.permutation(n)
    return Dataset(features[order], labels[order], k)


def csv_header(p: int) -> str:
    """The header line of a dataset CSV with ``p`` features, CRLF included."""
    return f"label,{','.join(f's{i}' for i in range(p))}\r\n"


def save_csv(dataset: Dataset, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(csv_header(dataset.p))
        for label, row in zip(dataset.labels.tolist(), dataset.features):
            fh.write(f"{label},{','.join(map(repr, row.tolist()))}\r\n")


def load_csv(path) -> Dataset:
    """Read a dataset CSV; ``k`` is the largest label seen, at least 2."""
    try:
        with open(path, newline="") as fh:
            header = next(csv.reader(fh), None)
            if header is None:
                raise ValueError(f"{path}: empty file")
            if not header or header[0] != "label":
                raise ValueError(f"{path}: first column must be 'label'")
            p = len(header) - 1
            if p < 1 or header[1:] != [f"s{i}" for i in range(p)]:
                raise ValueError(f"{path}: feature columns must be s0..s{{p-1}}")
            try:
                with warnings.catch_warnings():  # a header-only file is "no data rows" below
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    body = np.loadtxt(map(_plain, fh), delimiter=",", quotechar='"', comments=None,
                                      ndmin=1, dtype=[("label", np.int64), ("x", np.float64, (p,))])
            except ValueError as exc:  # numpy's row numbers vary: name the line by rescanning
                raise ValueError(_first_bad_row(path, p) or f"{path}: {exc}") from None
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not body.size:
        raise ValueError(f"{path}: no data rows")
    return Dataset(body["x"].copy(), body["label"].copy(), max(int(body["label"].max()), 2))


def _plain(text: str) -> str:
    """``text``, unless numpy's parser could read it apart from ``int``/``float``."""
    if text.isascii() and not any(c in text for c in "_\x1c\x1d\x1e\x1f"):
        return text
    raise ValueError("a field holds a non-ASCII character, '_' or \\x1c-\\x1f")


def _first_bad_row(path, p: int) -> str | None:
    """The first data row that the ``csv`` reader, ``int``, ``float`` or
    :func:`_plain` rejects, as ``path:lineno: why``; None if every row passes."""
    with open(path, newline="") as fh:
        rows = enumerate(csv.reader(fh), start=1)
        lineno = next(rows)[0]  # the header, checked already
        try:
            for lineno, row in rows:
                if not row:
                    continue
                if len(row) != p + 1:
                    return f"{path}:{lineno}: expected {p + 1} fields, got {len(row)}"
                try:
                    np.int64(int(row[0]))
                    [float(v) for v in row[1:]]
                    _plain(",".join(row))
                except (ValueError, OverflowError) as exc:  # OverflowError: a label past int64
                    return f"{path}:{lineno}: {exc}"
        except csv.Error as exc:  # a field past csv.field_size_limit()
            return f"{path}:{lineno + 1}: {exc}"
    return None
