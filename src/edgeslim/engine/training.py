"""Plain-classifier training loop and batched evaluation helpers.

This is ordinary cross-entropy SGD, used to pretrain teachers and as the
inner loop of the dropout planner.  Batch order reshuffles every epoch from
a generator seeded by (seed, epoch), so runs are reproducible and epochs
are independent of how many came before.  A training call casts the fold
once (:func:`fold_arrays`), and each batch indexes the cast arrays.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from edgeslim import metrics
from edgeslim.engine.autodiff import softmax_cross_entropy
from edgeslim.engine.model import (
    MaskedModel,
    backward,
    check_labels,
    check_learning_rate,
    cross_entropy_node,
    forward,
    sgd_step,
)


EVAL_BATCH = 256  # rows per chunk of a tape-free pass (:func:`eval_chunks`)


def check_batch_size(batch_size: int) -> None:
    """A minibatch holds at least one row."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size!r}")


def iterate_minibatches(n: int, batch_size: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """Yield index arrays covering 0..n-1 once, shuffled, in batch-size runs."""
    check_batch_size(batch_size)
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def epoch_seed(seed: int, epoch: int) -> int:
    return int(np.random.default_rng([seed, epoch]).integers(0, 2**63 - 1))


def check_epochs(epochs: int, name: str = "epochs") -> None:
    """A training run needs at least one epoch."""
    if epochs < 1:
        raise ValueError(f"{name} must be at least 1, got {epochs!r}")


def train_classifier(
    model: MaskedModel,
    dataset,
    epochs: int,
    eta: float,
    batch_size: int = 32,
    seed: int = 0,
) -> list[float]:
    """SGD on mean cross-entropy, in place.  Returns mean loss per epoch."""
    check_epochs(epochs)
    check_learning_rate(eta)
    losses = []
    for epoch in range(1, epochs + 1):
        rng = np.random.default_rng(epoch_seed(seed, epoch))
        losses.append(run_epoch(model, dataset, eta=eta, batch_size=batch_size, rng=rng))
    return losses


def run_epoch(
    model: MaskedModel,
    dataset,
    eta: float,
    batch_size: int,
    rng: np.random.Generator,
) -> float:
    """One shuffled pass of cross-entropy SGD; returns the mean batch loss.

    The mean weights batches by size, so it equals the epoch's mean
    per-instance loss under the weights each batch was scored with.
    """
    check_labels(dataset.labels, model)
    features, labels0 = fold_arrays(dataset, model)
    total, count = 0.0, 0
    for idx in iterate_minibatches(dataset.n, batch_size, rng):
        trace = forward(model, features.take(idx, axis=0))  # take: a leaner row gather
        loss = softmax_cross_entropy(trace.logits, labels0[idx])
        grads = backward(model, trace, loss)
        sgd_step(model, grads, eta)
        total += float(loss.data) * len(idx)
        count += len(idx)
    return total / count


def fold_arrays(dataset, model: MaskedModel) -> tuple[np.ndarray, np.ndarray]:
    """``dataset``'s features in ``model``'s dtype and its labels 0-based:
    what each training batch indexes, cast once."""
    return dataset.features.astype(model.dtype, copy=False), dataset.labels - 1


def eval_chunks(n: int) -> list[slice]:
    """The row slices a tape-free pass over ``n`` rows runs, ``EVAL_BATCH``
    rows each, so the intermediates of a whole fold never live at once.  A
    trailing one-row chunk joins the one before, as numpy multiplies one
    row by gemv, which can round unlike GEMM."""
    starts = range(0, max(n - 1, 1), EVAL_BATCH)
    return [slice(b, e) for b, e in zip(starts, [*starts[1:], None])]


def evaluate_loss(model: MaskedModel, dataset) -> float:
    """Mean cross-entropy over the whole dataset, no updates."""
    check_labels(dataset.labels, model)
    total = 0.0
    for sl in eval_chunks(dataset.n):
        trace = forward(model, dataset.features[sl], trainable=False)
        node = cross_entropy_node(trace, dataset.labels[sl])
        total += float(node.data) * (trace.batch_size)
    return total / dataset.n


def predict(model: MaskedModel, features: np.ndarray) -> np.ndarray:
    """Predicted 1-based labels for a feature matrix."""
    out = []
    for rows in eval_chunks(features.shape[0]):
        out.append(forward(model, features[rows], trainable=False).predictions)
    return np.concatenate(out)


def evaluate_accuracy(model: MaskedModel, dataset) -> float:
    """Class-averaged accuracy (the reporting metric) on a dataset."""
    counts = metrics.confusion_counts(dataset.labels, predict(model, dataset.features), dataset.k)
    return metrics.accuracy(counts)
