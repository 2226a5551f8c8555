"""Synthetic data, CSV round-trips, and splitting."""

import numpy as np
import pytest

from protocols import without_class
from edgeslim.datasets import (
    Dataset,
    load_csv,
    make_synthetic,
    save_csv,
    train_test_split,
)


def test_make_synthetic_shape_and_balance():
    data = make_synthetic(k=4, p=6, n=103, seed=0)
    assert data.features.shape == (103, 6)
    assert data.labels.shape == (103,)
    assert data.k == 4
    counts = np.bincount(data.labels, minlength=5)[1:]
    assert counts.min() >= 103 // 4  # near-equal class sizes
    assert data.labels.min() == 1 and data.labels.max() == 4


def test_make_synthetic_deterministic_and_separable():
    a = make_synthetic(k=2, p=5, n=200, seed=3, separation=4.0)
    b = make_synthetic(k=2, p=5, n=200, seed=3, separation=4.0)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)
    # nearest-centroid does nearly perfectly on well-separated blobs
    centroids = np.stack([a.features[a.labels == c].mean(axis=0) for c in (1, 2)])
    dists = ((a.features[:, None, :] - centroids[None]) ** 2).sum(axis=2)
    preds = dists.argmin(axis=1) + 1
    assert (preds == a.labels).mean() > 0.95


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 3)), np.array([0, 1]), k=2)  # labels are 1-based
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 3)), np.array([1, 3]), k=2)
    with pytest.raises(ValueError):
        Dataset(np.zeros((0, 3)), np.zeros(0, dtype=np.int64), k=2)


def test_split_is_disjoint_and_seeded():
    data = make_synthetic(k=3, p=4, n=50, seed=1)
    train, test = train_test_split(data, 0.3, seed=9)
    assert train.n + test.n == 50 and test.n == 15
    merged = np.concatenate([train.features, test.features])
    assert np.unique(merged, axis=0).shape[0] == 50
    train2, test2 = train_test_split(data, 0.3, seed=9)
    np.testing.assert_array_equal(test.features, test2.features)
    # extreme fractions clamp to keep both sides non-empty
    tiny_train, tiny_test = train_test_split(data, 0.999, seed=0)
    assert tiny_train.n >= 1 and tiny_test.n >= 1


def test_csv_round_trip_is_value_exact(tmp_path):
    data = make_synthetic(k=3, p=5, n=40, seed=2)
    path = tmp_path / "data.csv"
    save_csv(data, path)
    again = load_csv(path)
    np.testing.assert_array_equal(data.features, again.features)  # repr round-trip
    np.testing.assert_array_equal(data.labels, again.labels)
    assert again.k == 3


def test_csv_header_and_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,s0,s1\n1,0.5\n")
    with pytest.raises(ValueError) as err:
        load_csv(path)
    assert f"{path}:2:" in str(err.value)  # failing line is named
    path.write_text("label,x0,x1\n1,0.5,0.2\n")
    with pytest.raises(ValueError):
        load_csv(path)
    path.write_text("label,s0\n")
    with pytest.raises(ValueError):
        load_csv(path)  # no data rows


def test_csv_k_floor_is_two(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("label,s0\n1,0.5\n1,0.7\n")
    assert load_csv(path).k == 2


def test_subset_and_without_class():
    data = make_synthetic(k=3, p=4, n=30, seed=4)
    sub = data.subset(np.arange(10))
    assert sub.n == 10 and sub.k == 3
    pruned = without_class(data, 2)
    assert 2 not in pruned.labels
    assert pruned.k == 3  # label space is preserved
    assert pruned.n == 30 - (data.labels == 2).sum()
