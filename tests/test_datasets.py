"""Synthetic data, CSV round-trips, and splitting."""

import csv
import io
import json

import numpy as np
import pytest

from protocols import without_class
from edgeslim.cli import main
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


EDGE_VALUES = [-0.0, 5e-324, 2.2250738585072014e-308, 1e-05, 0.1, 1e16,
               1.7976931348623157e308, -1e-300]


def test_csv_writer_matches_csv_writer_bytes_and_round_trips_bits(tmp_path):
    """``save_csv`` writes what ``csv.writer`` with ``repr(float(v))`` wrote,
    byte for byte, and ``load_csv`` reads every bit back, -0.0's sign too."""
    k = 3
    features = np.array([EDGE_VALUES, [-v for v in EDGE_VALUES], EDGE_VALUES[::-1]])
    data = Dataset(features, np.arange(1, k + 1), k)
    path = tmp_path / "edge.csv"
    save_csv(data, path)
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(["label"] + [f"s{i}" for i in range(data.p)])
    for label, row in zip(data.labels, data.features):
        writer.writerow([int(label)] + [repr(float(v)) for v in row])
    assert path.read_bytes() == expected.getvalue().encode()
    again = load_csv(path)
    assert again.features.flags.c_contiguous and again.labels.flags.c_contiguous
    np.testing.assert_array_equal(again.features.view(np.uint64), features.view(np.uint64))
    np.testing.assert_array_equal(again.labels, np.arange(1, k + 1))


CSV_ARCH = {"name": "csv", "class_count": 3, "shared_prefix": 1, "layers": [
    {"kind": "fc", "I": 2, "O": 4}, {"kind": "fc", "I": 4, "O": 3}]}
OK = None  # the file is read
# (id, the text after the header "label,s0,s1", OK or how the error starts).
# Every outcome is the one the csv-module reader gave, but for the cases
# marked "now rejected".
READER_CASES = [
    ("quoted-numbers", '"1","0.5",0.25\n', OK),
    ("lf", "1,0.5,0.25\n2,0.1,0.2\n", OK),
    ("crlf", "1,0.5,0.25\r\n2,0.1,0.2\r\n", OK),
    ("blank-line", "1,0.5,0.25\n\n2,0.1,0.2\n", OK),
    ("spaces-only-line", "1,0.5,0.25\n   \n2,0.1,0.2\n", "{path}:3: expected 3 fields, got 1"),
    ("spaces-around", " 2 , 0.5 ,0.25\n", OK),
    ("plus-label", "+3,0.5,0.25\n", OK),
    ("trailing-comma", "1,0.5,0.25,\n", "{path}:2: expected 3 fields, got 4"),
    ("short-row", "1,0.5,0.25\n2,0.5\n", "{path}:3: expected 3 fields, got 2"),
    ("label-2.0", "1,0.5,0.25\n2.0,0.5,0.25\n", "{path}:3: invalid literal for int()"),
    ("label-1e0", "1e0,0.5,0.25\n", "{path}:2: invalid literal for int()"),
    ("feature-nan", "1,nan,0.25\n", "features contain non-finite values"),
    ("feature-1e309", "1,0.5,1e309\n", "features contain non-finite values"),
    ("header-only", "", "{path}: no data rows"),
    ("open-quote", '1,"0.5,0.25\n2,0.1,0.2\n', "{path}:2: expected 3 fields, got 2"),
    ("nul-byte", "1,0.5\x00,0.25\n", "{path}:2: could not convert string to float"),
    # numpy's integer parser reads "1\u01fe" as 472; int() rejects it, and so
    # does the reader
    ("non-ascii-label", "1\u01fe,0.5,0.25\n", "{path}:2: invalid literal for int()"),
    ("file-separator", "1,0.5\x1c,0.25\n", "{path}:2: could not convert string to float"),
    # now rejected: int()/float() read underscored digits, numpy's parser does not
    ("underscore", "1,1_0,0.25\n", "{path}:2: a field holds a non-ASCII character"),
    # now rejected: int()/float() read non-ASCII digits, numpy's parser does not
    ("non-ascii-digit", "1,\u0663,0.25\n", "{path}:2: a field holds a non-ASCII character"),
    # now rejected: any non-ASCII character, since numpy misreads some in labels
    ("non-ascii-space", "1,\xa00.5,0.25\n", "{path}:2: a field holds a non-ASCII character"),
]


@pytest.mark.parametrize("text, outcome", [c[1:] for c in READER_CASES],
                         ids=[c[0] for c in READER_CASES])
def test_csv_reader_outcomes(tmp_path, capsys, recwarn, text, outcome):
    """Each case is read or rejected as the table says; a rejection names the
    line, and through the CLI it is exit 2 with one stderr line and no
    warning (numpy warns on a header-only file)."""
    path = tmp_path / "case.csv"
    path.write_bytes(("label,s0,s1\n" + text).encode())
    if outcome is OK:
        assert load_csv(path).n >= 1
        return
    with pytest.raises(ValueError) as err:
        load_csv(path)
    assert str(err.value).startswith(outcome.format(path=path))
    (tmp_path / "arch.json").write_text(json.dumps(CSV_ARCH))
    assert main(["train", "--arch", str(tmp_path / "arch.json"), "--data", str(path),
                 "--out", str(tmp_path / "m.json")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert not recwarn.list


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
