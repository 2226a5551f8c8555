"""Classification metrics and the unseen-class protocol."""

import numpy as np
import pytest

from protocols import leave_one_out
from edgeslim.archspec import LayerKind, LayerSpec, NetworkSpec, check_valid
from edgeslim.datasets import make_synthetic, train_test_split
from edgeslim.engine.model import init_model
from edgeslim.engine.training import predict, train_classifier
from edgeslim.metrics import (
    ConfusionCounts,
    accuracy,
    confusion_counts,
    evaluate_predictions,
    f1,
    precision,
)


def counts_from(tp, tn, fp, fn):
    return ConfusionCounts(
        tp=np.array(tp), tn=np.array(tn), fp=np.array(fp), fn=np.array(fn),
        k=len(tp),
    )


def test_perfect_classifier():
    labels = np.array([1, 2, 3, 1, 2, 3])
    counts = confusion_counts(labels, labels, 3)
    assert accuracy(counts) == 1.0
    assert f1(counts) == 1.0
    assert precision(counts) == 1.0


def test_hand_fixtures():
    # 2 classes, one of everything each: per-class ratio 2/4
    counts = counts_from([1, 1], [1, 1], [1, 1], [1, 1])
    assert accuracy(counts) == pytest.approx(0.5)
    # single class, TP=1 FP=1 FN=1 -> F1 = 2/(2+1+1)
    counts = counts_from([1], [0], [1], [1])
    assert f1(counts) == pytest.approx(0.5)
    # precision 3/(3+1)
    counts = counts_from([3], [0], [1], [0])
    assert precision(counts) == pytest.approx(0.75)


def test_zero_denominator_contributes_zero():
    # class 2 never predicted and never true: F1 and precision terms drop
    counts = counts_from([2, 0], [2, 4], [0, 0], [0, 0])
    assert f1(counts) == pytest.approx(0.5 * (1.0 + 0.0))
    assert precision(counts) == pytest.approx(0.5)
    assert accuracy(counts) == 1.0  # its accuracy term is 4/4


def test_counts_invariant():
    rng = np.random.default_rng(0)
    labels = rng.integers(1, 5, size=60)
    preds = rng.integers(1, 5, size=60)
    counts = confusion_counts(labels, preds, 4)
    for i in range(4):
        assert counts.tp[i] + counts.tn[i] + counts.fp[i] + counts.fn[i] == 60
    assert 0.0 <= accuracy(counts) <= 1.0
    assert 0.0 <= f1(counts) <= 1.0
    assert 0.0 <= precision(counts) <= 1.0


def test_random_labeler_sits_near_half():
    rng = np.random.default_rng(42)
    labels = np.repeat([1, 2], 4000)
    preds = rng.integers(1, 3, size=8000)
    counts = confusion_counts(labels, preds, 2)
    assert accuracy(counts) == pytest.approx(0.5, abs=0.05)


def test_validation():
    with pytest.raises(ValueError):
        confusion_counts(np.array([0, 1]), np.array([1, 1]), 2)
    with pytest.raises(ValueError):
        confusion_counts(np.array([1, 1]), np.array([1, 3]), 2)
    with pytest.raises(ValueError):
        confusion_counts(np.array([1, 1]), np.array([1]), 2)


def test_evaluate_predictions_report():
    labels = np.array([1, 2, 2, 1])
    preds = np.array([1, 2, 1, 1])
    report = evaluate_predictions(labels, preds, 2)
    data = report.to_dict()
    assert data["accuracy"] == pytest.approx(accuracy(confusion_counts(labels, preds, 2)))
    assert len(data["per_class"]["tp"]) == 2


def harness(train_set):
    spec = check_valid(
        NetworkSpec(
            "probe",
            [LayerSpec(LayerKind.FC, I=6, O=12), LayerSpec(LayerKind.FC, I=12, O=3)],
            class_count=3,
        )
    )
    model = init_model(spec, seed=2)
    train_classifier(model, train_set, epochs=8, eta=0.1, seed=2)
    return lambda features: predict(model, features)


def test_leave_one_out_drops_accuracy():
    data = make_synthetic(k=3, p=6, n=240, seed=6, separation=3.0)
    _, test_set = train_test_split(data, 0.3, seed=0)
    full_train, _ = train_test_split(data, 0.3, seed=0)
    baseline = evaluate_predictions(
        test_set.labels, harness(full_train)(test_set.features), 3
    )
    held_out = leave_one_out(harness, data, label=2, test_fraction=0.3, seed=0)
    # class 2's test instances cannot be predicted correctly
    assert held_out.accuracy < baseline.accuracy
    counting_bound = 1.0 - (2.0 / 3.0) * (test_set.labels == 2).mean()
    assert held_out.accuracy <= counting_bound + 1e-9


def test_leave_one_out_missing_class():
    data = make_synthetic(k=3, p=6, n=60, seed=6)
    with pytest.raises(ValueError):
        leave_one_out(harness, data, label=7)


def test_leave_one_out_unused_class_matches_baseline():
    # A class with no rows on the training side changes nothing: same model,
    # same predictions, same metrics.
    rng = np.random.default_rng(3)
    features = rng.normal(size=(40, 6))
    labels = np.where(np.arange(40) < 39, rng.integers(1, 3, size=40), 3)
    from edgeslim.datasets import Dataset

    for seed in range(50):
        train_set, test_set = train_test_split(
            Dataset(features, labels.astype(np.int64), k=3), 0.3, seed=seed
        )
        if 3 not in train_set.labels and 3 in test_set.labels:
            break
    else:
        pytest.fail("no split placed class 3 entirely in the test fold")
    data = Dataset(features, labels.astype(np.int64), k=3)
    baseline = evaluate_predictions(
        test_set.labels, harness(train_set)(test_set.features), 3
    )
    held_out = leave_one_out(harness, data, label=3, test_fraction=0.3, seed=seed)
    assert held_out.to_dict() == baseline.to_dict()
