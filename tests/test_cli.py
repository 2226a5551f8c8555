"""Command-line flows, exit codes, and byte-stable JSON reports."""

import base64
import contextlib
import csv
import io
import json
import os
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeslim.archspec import (
    LayerKind,
    LayerSpec,
    NetworkSpec,
    check_valid,
    network_from_dict,
    network_to_dict,
)
from edgeslim.cli import main
from edgeslim.compressor import minimum_flops
from edgeslim.datasets import Dataset, load_csv, save_csv
from edgeslim.distill import network_flops
from edgeslim.engine.model import load_checkpoint, save_checkpoint
from edgeslim.pipeline import derive_seed

ARCH = {
    "name": "bench",
    "class_count": 3,
    "shared_prefix": 1,
    "layers": [
        {"kind": "fc", "I": 6, "O": 12},
        {"kind": "fc", "I": 12, "O": 8},
        {"kind": "fc", "I": 8, "O": 3},
    ],
}


def device_dict(alpha, beta):
    return {
        "name": "dev",
        "b_e_bytes_per_flop": 4.0,
        "e_m_seconds_per_flop": 1e-9,
        "flops_per_second": 1e9,
        "beta_seconds": beta,
        "alpha_bytes": alpha,
    }


@pytest.fixture()
def ws(tmp_path):
    """A workspace with an architecture, a roomy device, and a dataset."""
    arch = tmp_path / "arch.json"
    arch.write_text(json.dumps(ARCH))
    device = tmp_path / "device.json"
    device.write_text(json.dumps(device_dict(alpha=1e9, beta=1.0)))
    data = tmp_path / "data.csv"
    assert main(["gendata", "--out", str(data), "--n", "120", "--p", "6", "--k", "3", "--seed", "4"]) == 0
    return tmp_path


def test_gendata_is_byte_stable_and_round_trips(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["gendata", "--n", "30", "--p", "4", "--k", "2", "--seed", "7"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    dataset = load_csv(a)
    assert (dataset.n, dataset.p, dataset.k) == (30, 4, 2)


def test_gendata_zero_rows_writes_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    assert main(["gendata", "--out", str(out), "--n", "0", "--p", "3", "--k", "2"]) == 0
    assert out.read_bytes() == b"label,s0,s1,s2\r\n"


@pytest.mark.parametrize("p", [1, 3, 12])
def test_gendata_zero_rows_writes_the_header_of_save_csv(tmp_path, p):
    """``--n 0`` writes exactly the first line ``save_csv`` writes for the
    same ``p``, CRLF included."""
    empty, full = tmp_path / "empty.csv", tmp_path / "full.csv"
    assert main(["gendata", "--out", str(empty), "--n", "0", "--p", str(p), "--k", "2"]) == 0
    save_csv(Dataset(np.zeros((1, p)), np.ones(1), 2), full)
    header = full.read_bytes().split(b"\r\n")[0] + b"\r\n"
    assert empty.read_bytes() == header


def test_gendata_rejects_one_class(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["gendata", "--out", str(out), "--n", "10", "--p", "3", "--k", "1"]) == 2
    assert "two classes" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["0", "10"])
@pytest.mark.parametrize("p", ["0", "-2"])
def test_gendata_rejects_no_features(tmp_path, capsys, n, p):
    """``--p`` below 1 is an input error whatever ``--n`` is: zero rows would
    write a bare ``label,`` header that ``load_csv`` rejects."""
    out = tmp_path / "x.csv"
    assert main(["gendata", "--out", str(out), "--n", n, "--p", p, "--k", "2"]) == 2
    err = capsys.readouterr().err
    assert "at least one feature" in err and len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_estimate_exit_codes_and_report(ws):
    report = ws / "report.json"
    rc = main(["estimate", "--arch", str(ws / "arch.json"), "--device", str(ws / "device.json"), "--out", str(report)])
    assert rc == 0
    body = json.loads(report.read_text())
    assert body["fits_alpha"] and body["fits_beta"]
    assert body["total_flops"] > 0

    # a one-byte budget cannot hold the network; the report is still written
    tight = ws / "tight.json"
    tight.write_text(json.dumps(device_dict(alpha=1.0, beta=1e-12)))
    report2 = ws / "report2.json"
    rc = main(["estimate", "--arch", str(ws / "arch.json"), "--device", str(tight), "--out", str(report2)])
    assert rc == 1
    assert not json.loads(report2.read_text())["fits_alpha"]


def test_estimate_rejects_malformed_json(ws, capsys):
    bad = ws / "bad.json"
    bad.write_text('{"name": "x",\n  broken}')
    rc = main(["estimate", "--arch", str(bad), "--device", str(ws / "device.json"), "--out", str(ws / "r.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err


def test_estimate_rejects_bool_budget(ws, capsys):
    device = device_dict(alpha=1e9, beta=1.0)
    device["alpha_bytes"] = True
    (ws / "bool.json").write_text(json.dumps(device))
    rc = main(["estimate", "--arch", str(ws / "arch.json"), "--device", str(ws / "bool.json"), "--out", str(ws / "r.json")])
    assert rc == 2
    assert "alpha must be a positive finite number, got True" in capsys.readouterr().err


@pytest.mark.parametrize("name", [[1, 2], None, 3], ids=["list", "null", "number"])
def test_estimate_rejects_a_non_string_device_name(ws, capsys, name):
    (ws / "named.json").write_text(json.dumps({**device_dict(alpha=1e9, beta=1.0), "name": name}))
    report = ws / "r.json"
    rc = main(["estimate", "--arch", str(ws / "arch.json"), "--device", str(ws / "named.json"),
               "--out", str(report)])
    assert rc == 2 and not report.exists()
    err = capsys.readouterr().err
    assert "device name must be a string" in err
    assert "Traceback" not in err and err.count("\n") == 1


def test_estimate_missing_file_is_input_error(ws, capsys):
    rc = main(["estimate", "--arch", str(ws / "nope.json"), "--device", str(ws / "device.json"), "--out", str(ws / "r.json")])
    assert rc == 2
    assert "no such file" in capsys.readouterr().err


def train_checkpoint(ws, epochs="6"):
    ckpt = ws / "model.json"
    rc = main([
        "train", "--arch", str(ws / "arch.json"), "--data", str(ws / "data.csv"),
        "--out", str(ckpt), "--epochs", epochs, "--eta", "0.1", "--seed", "3",
    ])
    assert rc == 0
    return ckpt


def test_train_writes_a_checkpoint_with_reference_loss(ws):
    ckpt = train_checkpoint(ws)
    body = json.loads(ckpt.read_text())
    extras = body["extras"]
    assert extras["reference_loss"] > 0
    assert 0 <= extras["final_accuracy"] <= 1
    assert len(extras["epoch_losses"]) == 6
    assert extras["training"]["seed"] == 3


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_exit_code(ws, capsys):
    rc = main([
        "train", "--arch", str(ws / "arch.json"), "--data", str(ws / "data.csv"),
        "--out", str(ws / "d.json"), "--epochs", "30", "--eta", "1e6",
    ])
    assert rc == 3
    assert "diverged" in capsys.readouterr().err


@pytest.mark.parametrize("exc", [
    MemoryError("Unable to allocate 298. GiB for an array with shape "
                "(4, 10000000000) and data type float64"),
    MemoryError(),
])
def test_train_on_an_architecture_too_large_to_allocate_exits_2(ws, capsys, monkeypatch, exc):
    """An allocation that fails is bad input, not an infeasible result.  The
    failure is raised by a stub: a real oversized array may be allocated
    lazily and exhaust the host instead of failing."""
    def no_memory(*args, **kwargs):
        raise exc

    monkeypatch.setattr("edgeslim.cli.init_model", no_memory)
    rc = main([
        "train", "--arch", str(ws / "arch.json"), "--data", str(ws / "data.csv"),
        "--out", str(ws / "big.json"),
    ])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith("error: out of memory: ")
    assert "Traceback" not in err and not (ws / "big.json").exists()
    assert str(exc) in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_dropout_divergence_exit_code(ws, capsys):
    # one fc layer at this eta: the round's loss overflows while every
    # gradient stays finite, so the dropout loop's own check must fire
    (ws / "one.json").write_text(json.dumps({
        "name": "one", "class_count": 3, "shared_prefix": 0,
        "layers": [{"kind": "fc", "I": 6, "O": 3}],
    }))
    ckpt = ws / "one_model.json"
    assert main([
        "train", "--arch", str(ws / "one.json"), "--data", str(ws / "data.csv"),
        "--out", str(ckpt), "--epochs", "6", "--eta", "0.1", "--seed", "3",
    ]) == 0
    capsys.readouterr()
    rc = main([
        "dropout", "--checkpoint", str(ckpt), "--data", str(ws / "data.csv"),
        "--out", str(ws / "s.json"), "--eta", "1e38", "--batch-size", "32",
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "dropout round 1: training loss diverged" in err


@pytest.mark.parametrize("eta", ["-1", "0", "nan", "inf"])
def test_train_and_dropout_reject_bad_learning_rate(ws, capsys, eta):
    out = ws / "bad.json"
    rc = main([
        "train", "--arch", str(ws / "arch.json"), "--data", str(ws / "data.csv"),
        "--out", str(out), "--epochs", "2", "--eta", eta,
    ])
    err = capsys.readouterr().err
    assert rc == 2 and err.count("\n") == 1 and "eta must be positive and finite" in err
    assert not out.exists()
    ckpt = train_checkpoint(ws, epochs="2")
    capsys.readouterr()
    rc = main([
        "dropout", "--checkpoint", str(ckpt), "--data", str(ws / "data.csv"),
        "--out", str(out), "--eta", eta,
    ])
    err = capsys.readouterr().err
    assert rc == 2 and err.count("\n") == 1 and "eta must be positive and finite" in err
    assert not out.exists()


@pytest.mark.parametrize("epochs", ["0", "-1"])
def test_train_rejects_epochs_below_one(ws, capsys, epochs):
    out = ws / "untrained.json"
    rc = main([
        "train", "--arch", str(ws / "arch.json"), "--data", str(ws / "data.csv"),
        "--out", str(out), "--epochs", epochs,
    ])
    err = capsys.readouterr().err
    assert rc == 2 and err.count("\n") == 1 and "epochs must be at least 1" in err
    assert not out.exists()


def test_dropout_rejects_bad_input_rate(ws, capsys):
    ckpt = train_checkpoint(ws, epochs="2")
    capsys.readouterr()
    rc = main([
        "dropout", "--checkpoint", str(ckpt), "--data", str(ws / "data.csv"),
        "--out", str(ws / "s.json"), "--input-rate", "1.5",
    ])
    err = capsys.readouterr().err
    assert rc == 2 and err.count("\n") == 1 and "input dropout rate must lie in (0, 1]" in err


def test_dropout_rejects_nan_c(ws, capsys):
    ckpt = train_checkpoint(ws, epochs="2")
    capsys.readouterr()
    out = ws / "s.json"
    rc = main([
        "dropout", "--checkpoint", str(ckpt), "--data", str(ws / "data.csv"),
        "--out", str(out), "--c", "nan",
    ])
    err = capsys.readouterr().err
    assert rc == 2 and err.count("\n") == 1 and "dropout c and max_iteration must be positive" in err
    assert not out.exists()


def test_dropout_and_compress_and_eval_chain(ws):
    ckpt = train_checkpoint(ws)
    slim = ws / "slim.json"
    report = ws / "drop.json"
    rc = main([
        "dropout", "--checkpoint", str(ckpt), "--data", str(ws / "data.csv"),
        "--out", str(slim), "--report", str(report), "--max-iteration", "3",
    ])
    assert rc == 0
    drop = json.loads(report.read_text())
    assert drop["rounds"]
    assert drop["surviving"] < drop["rounds"][0]["q_a"]

    packed = ws / "packed.json"
    rc = main([
        "compress", "--checkpoint", str(slim), "--device", str(ws / "device.json"),
        "--out", str(packed),
    ])
    assert rc == 0  # roomy device: already feasible

    scores = ws / "scores.json"
    rc = main(["eval", "--checkpoint", str(packed), "--data", str(ws / "data.csv"), "--out", str(scores)])
    assert rc == 0
    body = json.loads(scores.read_text())
    assert set(body) >= {"accuracy", "f1", "precision", "per_class"}


def test_dropout_without_reference_loss_fails(ws, capsys):
    ckpt = train_checkpoint(ws)
    body = json.loads(ckpt.read_text())
    del body["extras"]["reference_loss"]
    stripped = ws / "stripped.json"
    stripped.write_text(json.dumps(body))
    rc = main([
        "dropout", "--checkpoint", str(stripped), "--data", str(ws / "data.csv"),
        "--out", str(ws / "s.json"),
    ])
    assert rc == 2
    assert "reference loss" in capsys.readouterr().err


BAD_REFERENCES = pytest.mark.parametrize(
    "reference", ["abc", [1], True, float("nan"), float("inf")],
    ids=["string", "list", "bool", "nan", "inf"],
)


def _with_reference(ckpt, reference, out):
    body = json.loads(ckpt.read_text())
    body["extras"]["reference_loss"] = reference
    out.write_text(json.dumps(body))
    return out


def _one_line_reference_error(capsys) -> None:
    err = capsys.readouterr().err
    assert "reference loss must be a finite number" in err
    assert "Traceback" not in err and err.count("\n") == 1


def _dropout_rejects(ws, capsys, checkpoint, *flags) -> None:
    out, report = ws / "s.json", ws / "r.json"
    capsys.readouterr()
    rc = main([
        "dropout", "--checkpoint", str(checkpoint), "--data", str(ws / "data.csv"),
        "--out", str(out), "--report", str(report), *flags,
    ])
    assert rc == 2
    _one_line_reference_error(capsys)
    assert not out.exists() and not report.exists()


@BAD_REFERENCES
def test_dropout_rejects_a_checkpoint_reference_loss_that_is_not_finite(ws, capsys, reference):
    _dropout_rejects(ws, capsys, _with_reference(train_checkpoint(ws), reference, ws / "bad.json"))


@pytest.mark.parametrize("reference", ["nan", "inf", "-inf"])
def test_dropout_rejects_a_reference_loss_flag_that_is_not_finite(ws, capsys, reference):
    _dropout_rejects(ws, capsys, train_checkpoint(ws), f"--reference-loss={reference}")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["train", "--arch", "a.json", "--data", "d.csv", "--out", "m.json",
          "--epochs", "notanint"],
         "error: edgeslim train: argument --epochs: invalid int value: 'notanint'"),
        # a value that starts with "-" and is no plain number reads as an option
        (["dropout", "--checkpoint", "m.json", "--data", "d.csv", "--out", "s.json",
          "--reference-loss", "-inf"],
         "error: edgeslim dropout: argument --reference-loss: expected one argument"),
        (["estimate", "--arch", "a.json", "--device", "v.json", "--out", "r.json", "--omega"],
         "error: edgeslim estimate: argument --omega: expected one argument"),
        (["eval", "--checkpoint", "m.json", "--data", "d.csv"],
         "error: edgeslim eval: the following arguments are required: --out"),
    ],
    ids=["bad-value", "dash-value", "missing-value", "missing-option"],
)
def test_an_argument_error_is_one_line_and_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.err == message + "\n" and captured.out == ""


@BAD_REFERENCES
def test_pipeline_rejects_a_teacher_reference_loss_that_is_not_finite(
    pipeline_inputs, tmp_path, capsys, reference
):
    root, config, teacher = pipeline_inputs
    bad = _with_reference(teacher, reference, tmp_path / "teacher.json")
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**config, "teacher": str(bad), "output_dir": str(tmp_path / "out")}))
    capsys.readouterr()
    assert main(["pipeline", "--config", str(path)]) == 2
    _one_line_reference_error(capsys)
    assert not (tmp_path / "out").exists()


def test_compress_infeasible_exit_code(ws):
    ckpt = train_checkpoint(ws)
    tight = ws / "tight.json"
    tight.write_text(json.dumps(device_dict(alpha=8.0, beta=1e-12)))
    rc = main([
        "compress", "--checkpoint", str(ckpt), "--device", str(tight),
        "--out", str(ws / "c.json"), "--report", str(ws / "cr.json"),
    ])
    assert rc == 1
    body = json.loads((ws / "cr.json").read_text())
    assert body["feasible"] is False
    assert body["rewrites"]  # the closest model still got built


def test_compress_rejects_a_nan_size_penalty(ws, capsys):
    ckpt = train_checkpoint(ws)
    capsys.readouterr()
    rc = main([
        "compress", "--checkpoint", str(ckpt), "--device", str(ws / "device.json"),
        "--out", str(ws / "c.json"), "--size-penalty", "nan",
    ])
    err = capsys.readouterr().err
    assert rc == 2 and err.count("\n") == 1
    assert "size_penalty must be finite and non-negative" in err
    assert not (ws / "c.json").exists()


def test_eval_rejects_width_mismatch(ws, capsys):
    ckpt = train_checkpoint(ws)
    thin = ws / "thin.csv"
    assert main(["gendata", "--out", str(thin), "--n", "20", "--p", "4", "--k", "3"]) == 0
    rc = main(["eval", "--checkpoint", str(ckpt), "--data", str(thin), "--out", str(ws / "e.json")])
    assert rc == 2
    assert "features" in capsys.readouterr().err


def malformed_checkpoint(body, case):
    if case == "list":
        return [body]
    if case == "no-network":
        del body["network"]
    elif case == "no-mask":
        del body["layers"][0]["masks"]["W"]
    elif case == "non-binary-mask":
        model, extras = load_checkpoint(body)
        model.layers[0].masks["W"][0, 0] = 0.5
        body = save_checkpoint(model, extras)
    elif case == "nan-weight":
        model, extras = load_checkpoint(body)
        model.layers[0].params["W"][0, 0] = float("nan")
        body = save_checkpoint(model, extras)
    elif case == "masked-nonzero-weight":
        model, extras = load_checkpoint(body)
        assert model.layers[1].params["W"][2, 1] != 0
        model.layers[1].masks["W"][2, 1] = 0.0
        body = save_checkpoint(model, extras)
    elif case == "extras-not-object":
        body["extras"] = 5
    elif case == "layers-not-list":
        body["network"]["layers"] = 5
    elif case == "class-count-string":
        body["network"]["class_count"] = "3"
    elif case == "class-count-null":
        body["network"]["class_count"] = None
    elif case == "zero-width-layer":
        body["network"]["layers"][0]["I"] = 0
    return body


@pytest.mark.parametrize("case, message", [
    ("list", "not a model checkpoint"),
    ("no-network", "checkpoint is missing 'network'"),
    ("no-mask", "is missing 'W'"),
    ("non-binary-mask", "mask 'W' holds values other than 0 and 1"),
    ("nan-weight", "param 'W' holds NaN or infinity"),
    ("masked-nonzero-weight", "layer 1 param 'W' is non-zero under a zero mask"),
    ("extras-not-object", "extras is not a JSON object"),
    ("layers-not-list", "network layers must be a list"),
    ("class-count-string", "class_count must be an integer"),
    ("class-count-null", "class_count must be an integer, got None"),
    ("zero-width-layer", "invalid network spec: layer 0 (fc): I must be a positive integer"),
])
def test_eval_rejects_malformed_checkpoint(ws, capsys, case, message):
    ckpt = train_checkpoint(ws)
    bad = ws / "bad_model.json"
    bad.write_text(json.dumps(malformed_checkpoint(json.loads(ckpt.read_text()), case)))
    capsys.readouterr()
    rc = main(["eval", "--checkpoint", str(bad), "--data", str(ws / "data.csv"), "--out", str(ws / "e.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err and err.count("\n") == 1


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    """A workspace holding a trained checkpoint's JSON body and its data."""
    root = tmp_path_factory.mktemp("ckpt")
    (root / "arch.json").write_text(json.dumps(ARCH))
    assert main(["gendata", "--out", str(root / "data.csv"), "--n", "60", "--p", "6", "--k", "3"]) == 0
    body = json.loads(train_checkpoint(root, epochs="2").read_text())
    return root, body


def _slots(node, path=()):
    """Every (container path, key) in a JSON tree, depth first."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    for key in keys:
        yield path, key
        if isinstance(node[key], (dict, list)):
            yield from _slots(node[key], path + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


ODD_VALUES = [None, True, False, 0, -1, 1.5, "x", "", [], {}, [1], {"a": 1}, float("nan")]


CHECKPOINT_MUTATIONS = [
    "delete", "retype", "truncate", "extra", "non-finite", "bool", "masked-nonzero"
]
JSON_MUTATIONS = ["delete", "retype", "extra", "bool", "name"]  # for files that hold no arrays
CONFIG_MUTATIONS = ["delete", "retype", "extra", "bool", "range", "null"]
# numbers outside some setting's range; all small or non-finite, so a run
# that accepts one stays short (``json`` writes and reads the non-finite ones)
OUT_OF_RANGE = [-1, 0, -0.25, 1.5, float("nan"), float("inf"), float("-inf")]


def _mutate(body, draw, kinds=CHECKPOINT_MUTATIONS):
    """One random corruption of a JSON body, in place; by default of a
    checkpoint, whose arrays the other kinds corrupt.  Returns its kind."""
    kind = draw(st.sampled_from(kinds))
    if kind == "name":  # a top-level name that is no string
        body["name"] = draw(st.sampled_from([v for v in ODD_VALUES if not isinstance(v, str)]))
        return kind
    slots = list(_slots(body))
    if kind in ("truncate", "non-finite", "masked-nonzero"):
        group = "masks" if kind == "masked-nonzero" else "params"
        arrays = [(p, k) for p, k in slots if len(p) == 3 and p[2] == group]
        path, key = draw(st.sampled_from(arrays))
        entry = _at(body, path)[key]
        raw = base64.b64decode(entry["data"])
        if kind == "truncate":
            entry["data"] = entry["data"][: draw(st.integers(0, len(entry["data"]) - 1))]
            return kind
        values = np.frombuffer(raw, dtype=entry["dtype"]).copy()
        spot = draw(st.integers(0, values.size - 1))
        if kind == "non-finite":
            values[spot] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        else:  # zero a mask entry over its non-zero weight
            weight = np.frombuffer(base64.b64decode(_at(body, path[:2])["params"][key]["data"]),
                                   dtype=entry["dtype"])
            values[np.flatnonzero(weight)[spot % np.count_nonzero(weight)]] = 0.0
        entry["data"] = base64.b64encode(values.tobytes()).decode("ascii")
        return kind
    if kind in ("bool", "range"):  # a number becomes a bool, or out of range
        numbers = [(p, k) for p, k in slots if type(_at(body, p)[k]) in (int, float)]
        path, key = draw(st.sampled_from(numbers))
        _at(body, path)[key] = draw(st.booleans() if kind == "bool" else st.sampled_from(OUT_OF_RANGE))
        return kind
    path, key = draw(st.sampled_from(slots))
    parent = _at(body, path)
    if kind == "delete":
        del parent[key]
    elif kind == "null":
        parent[key] = None
    elif kind == "retype":
        parent[key] = draw(st.sampled_from(ODD_VALUES))
    elif isinstance(parent, dict):
        parent["zz_extra"] = draw(st.sampled_from(ODD_VALUES))
    else:
        parent.append(draw(st.sampled_from([*ODD_VALUES, parent[key]])))
    return kind


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_eval_survives_any_checkpoint_mutation(trained_checkpoint, data):
    root, body = trained_checkpoint
    mutated = json.loads(json.dumps(body))
    _mutate(mutated, data.draw)
    path = root / "mutated.json"
    path.write_text(json.dumps(mutated))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["eval", "--checkpoint", str(path), "--data", str(root / "data.csv"),
                   "--out", str(root / "eval.json")])
    assert rc in (0, 2)
    assert "Traceback" not in err.getvalue()
    assert rc == 0 or err.getvalue().count("\n") == 1


@pytest.mark.parametrize("case, message", [
    ("nan-weight", "holds NaN or infinity"),
    ("extras-not-object", "extras is not a JSON object"),
])
def test_dropout_rejects_malformed_checkpoint(ws, capsys, case, message):
    ckpt = train_checkpoint(ws)
    bad = ws / "bad_model.json"
    bad.write_text(json.dumps(malformed_checkpoint(json.loads(ckpt.read_text()), case)))
    capsys.readouterr()
    rc = main(["dropout", "--checkpoint", str(bad), "--data", str(ws / "data.csv"), "--out", str(ws / "d.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err and err.count("\n") == 1


@pytest.mark.parametrize("key, value, message", [
    pytest.param("class_count", "3", "class_count must be an integer", id="class-count-string"),
    pytest.param("class_count", True, "class_count must be an integer", id="class-count-bool"),
    pytest.param("layers", 5, "network layers must be a list", id="layers-not-list"),
    pytest.param("layers", [5], "layer entry must be a JSON object", id="layer-not-object"),
    pytest.param("name", [1, 2], "network name must be a string", id="name-list"),
    pytest.param("name", None, "network name must be a string", id="name-null"),
])
def test_estimate_rejects_mistyped_network(ws, capsys, key, value, message):
    (ws / "bad_arch.json").write_text(json.dumps({**ARCH, key: value}))
    rc = main(["estimate", "--arch", str(ws / "bad_arch.json"), "--device", str(ws / "device.json"),
               "--out", str(ws / "r.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err and err.count("\n") == 1


@pytest.fixture(scope="module")
def estimate_inputs(tmp_path_factory):
    """A workspace for ``estimate`` and the valid bodies of its two inputs."""
    return tmp_path_factory.mktemp("estimate"), {"arch": ARCH, "device": device_dict(1e9, 1.0)}


@pytest.mark.parametrize("target", ["arch", "device"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_estimate_survives_any_arch_or_device_mutation(estimate_inputs, target, data):
    root, bodies = estimate_inputs
    bodies = json.loads(json.dumps(bodies))
    kind = _mutate(bodies[target], data.draw, JSON_MUTATIONS)
    for name, body in bodies.items():
        (root / f"{name}.json").write_text(json.dumps(body))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["estimate", "--arch", str(root / "arch.json"), "--device",
                   str(root / "device.json"), "--out", str(root / "r.json")])
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert rc != 2 or err.getvalue().count("\n") == 1
    assert kind != "name" or rc == 2  # architecture and device names must be strings


CSV_MUTATIONS = {
    "drop-cell": None,
    "add-cell": ["0.5", "", "x"],
    "non-numeric": ["x", "", "1,5", "0x10", "--1", "1.2.3"],
    "non-finite": ["nan", "inf", "-inf", "1e309", "-1e309"],
    "out-of-range": ["1e300", "-1e300", "3.5e38"],  # finite, but past float32's range
    "label-zero": ["0", "-0", "-1"],
    "label-above-k": ["4", "1000000", str(2**63), str(10**30)],
    "label-non-integer": ["1.5", "2.0", "1e0", "x", ""],
    "bad-header": ["", "x", "Label", "s9", "label"],
    "header-only": None,
    "empty": None,
}


def _mutate_csv(rows, draw):
    """One random corruption of a dataset CSV given as a list of rows;
    returns its kind and the rows."""
    kind = draw(st.sampled_from(sorted(CSV_MUTATIONS)))
    if kind == "empty":
        return kind, []
    if kind == "header-only":
        return kind, rows[:1]
    if kind == "bad-header":
        rows[0][draw(st.integers(0, len(rows[0]) - 1))] = draw(st.sampled_from(CSV_MUTATIONS[kind]))
        return kind, rows
    # a dropped or added cell may hit the header; the other kinds edit a data row
    row = rows[draw(st.integers(0 if kind.endswith("cell") else 1, len(rows) - 1))]
    if kind == "drop-cell":
        del row[draw(st.integers(0, len(row) - 1))]
    elif kind == "add-cell":
        row.insert(draw(st.integers(0, len(row))), draw(st.sampled_from(CSV_MUTATIONS[kind])))
    else:
        column = 0 if kind.startswith("label") else draw(st.integers(1, len(row) - 1))
        row[column] = draw(st.sampled_from(CSV_MUTATIONS[kind]))
    return kind, rows


@pytest.fixture(scope="module")
def train_inputs(tmp_path_factory):
    """A workspace with ``ARCH`` and the rows of a small valid dataset for it."""
    root = tmp_path_factory.mktemp("train")
    (root / "arch.json").write_text(json.dumps(ARCH))
    assert main(["gendata", "--out", str(root / "data.csv"), "--n", "12", "--p", "6", "--k", "3",
                 "--seed", "4"]) == 0
    with open(root / "data.csv", newline="") as fh:
        return root, list(csv.reader(fh))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_train_survives_any_csv_mutation(train_inputs, data):
    root, rows = train_inputs
    kind, rows = _mutate_csv([list(row) for row in rows], data.draw)
    with open(root / "mutated.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["train", "--arch", str(root / "arch.json"), "--data", str(root / "mutated.csv"),
                   "--out", str(root / "model.json"), "--epochs", "1"])
    assert rc in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert rc != 2 or err.getvalue().count("\n") == 1
    assert rc != 3 or "diverged" in err.getvalue()
    # a feature the float32 model cannot hold is bad input, not divergence
    assert kind not in ("non-finite", "out-of-range") or rc == 2


def _huge_field(rows):
    rows[3][2] = "x" * 200_000  # past csv.field_size_limit()
    return "\r\n".join(",".join(f'"{v}"' if len(v) > 100 else v for v in row) for row in rows)


def _open_quote(rows):
    rows = rows[:1] + [list(row) for row in rows[1:] * 300]
    rows[3][2] = '"0.5'  # the quote never closes: the rest of the file is one field
    return "\r\n".join(",".join(row) for row in rows)


@pytest.mark.parametrize("make, message, encoding", [
    (_huge_field, ":4: field larger than field limit", "utf-8"),
    (_open_quote, ":4: field larger than field limit", "utf-8"),
    (lambda rows: "\r\n".join(",".join(row) for row in rows) + "\xff", ": 'utf-8' codec", "latin-1"),
], ids=["huge-field", "open-quote-on-a-large-file", "not-utf-8"])
def test_train_on_a_malformed_csv_names_the_file(train_inputs, capsys, make, message, encoding):
    """A field past the csv module's size limit and a file that is not UTF-8
    are input errors: exit 2 and one line naming the file and, where the
    reader knows it, the line."""
    root, rows = train_inputs
    bad = root / "malformed.csv"
    bad.write_bytes(make([list(row) for row in rows]).encode(encoding))
    capsys.readouterr()
    assert main(["train", "--arch", str(root / "arch.json"), "--data", str(bad),
                 "--out", str(root / "model.json"), "--epochs", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}{message}") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["train", "dropout", "eval", "pipeline"])
def test_feature_past_the_model_dtype_exits_2(ws, capsys, command):
    ckpt = train_checkpoint(ws)
    with open(ws / "data.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    rows[5][2] = "1e300"  # finite in float64, infinite once cast to float32
    big = ws / "big.csv"
    with open(big, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    config = pipeline_config(ws, ws / "run")
    config.write_text(json.dumps({**json.loads(config.read_text()), "dataset": str(big)}))
    argv = {
        "train": ["train", "--arch", str(ws / "arch.json"), "--data", str(big),
                  "--out", str(ws / "m.json")],
        "dropout": ["dropout", "--checkpoint", str(ckpt), "--data", str(big),
                    "--out", str(ws / "d.json")],
        "eval": ["eval", "--checkpoint", str(ckpt), "--data", str(big), "--out", str(ws / "e.json")],
        "pipeline": ["pipeline", "--config", str(config)],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "a feature is not a finite float32 value" in err and err.count("\n") == 1
    assert not (ws / "run" / "teacher.json").exists()


def pipeline_config(ws, out_dir, teacher=None):
    config = {
        "architecture": str(ws / "arch.json"),
        "device": str(ws / "device.json"),
        "dataset": str(ws / "data.csv"),
        "output_dir": str(out_dir),
        "pretrain_epochs": 5,
        "lambdas": [0.5, 0.3, 0.2],
        "total_epochs": 3,
        "h_max": 1,
        "dropout_max_iteration": 2,
        "seed": 0,
    }
    if teacher:
        config["teacher"] = str(teacher)
    path = ws / "config.json"
    path.write_text(json.dumps(config))
    return path


@pytest.fixture(scope="module")
def pipeline_inputs(tmp_path_factory):
    """A workspace with a tiny dataset, a teacher checkpoint trained on it,
    a valid, fast pipeline config, and a tight device beside its roomy one."""
    root = tmp_path_factory.mktemp("pipeline")
    (root / "arch.json").write_text(json.dumps(ARCH))
    (root / "device.json").write_text(json.dumps(device_dict(alpha=1e9, beta=1.0)))
    # halfway between the compressor's floor and the full cost, as the bench's
    # devices are, so the compressor rewrites layers and picks their ranks
    spec = network_from_dict(ARCH)
    budget = (minimum_flops(spec) + network_flops(spec)) / 2
    tight = device_dict(alpha=4.0 * budget, beta=1e-9 * budget)
    (root / "device-tight.json").write_text(json.dumps(tight))
    assert main(["gendata", "--out", str(root / "data.csv"), "--n", "30", "--p", "6", "--k", "3",
                 "--seed", "4"]) == 0
    teacher = root / "teacher-checkpoint.json"
    assert main(["train", "--arch", str(root / "arch.json"), "--data", str(root / "data.csv"),
                 "--out", str(teacher), "--epochs", "1"]) == 0
    config = {
        "architecture": str(root / "arch.json"),
        "device": str(root / "device.json"),
        "dataset": str(root / "data.csv"),
        "output_dir": str(root / "run" / "out"),
        "pretrain_epochs": 1,
        "lambdas": [0.5, 0.3, 0.2],
        "total_epochs": 2,
        "h_max": 1,
        "dropout_max_iteration": 1,
        "seed": 0,
        "batch_size": 32,
        "size_penalty": 0.0,
        "plateau_epsilon": 0.5,
        "dropout_c": 1.0,
    }
    return root, config, teacher


@contextlib.contextmanager
def _cwd(path):
    """Run in ``path``, so a relative ``output_dir`` lands inside it."""
    before = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(before)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pipeline_survives_any_config_mutation(pipeline_inputs, data):
    root, config, teacher = pipeline_inputs
    run = root / "run"
    shutil.rmtree(run, ignore_errors=True)
    run.mkdir()
    body = json.loads(json.dumps(config))
    if data.draw(st.booleans(), label="with teacher"):  # else the run pretrains one
        body["teacher"] = str(teacher)
    if data.draw(st.booleans(), label="tight device"):
        body["device"] = str(root / "device-tight.json")
    _mutate(body, data.draw, CONFIG_MUTATIONS)
    path = root / "config.json"
    path.write_text(json.dumps(body))
    err = io.StringIO()
    with _cwd(run), contextlib.redirect_stderr(err):
        rc = main(["pipeline", "--config", str(path)])
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if rc == 2:  # a malformed config stops before pretraining writes anything
        assert err.getvalue().count("\n") == 1
        assert not list(run.rglob("teacher.json"))


def test_pipeline_manifest_is_byte_identical_across_runs(ws):
    config = pipeline_config(ws, ws / "run")
    assert main(["pipeline", "--config", str(config)]) == 0
    first = (ws / "run" / "manifest.json").read_bytes()
    best_first = (ws / "run" / "best_student.json").read_bytes()
    assert main(["pipeline", "--config", str(config)]) == 0
    assert (ws / "run" / "manifest.json").read_bytes() == first
    assert (ws / "run" / "best_student.json").read_bytes() == best_first
    manifest = json.loads(first)
    assert manifest["result"]["best_l"] is not None
    assert (ws / "run" / "teacher.json").exists()


def test_pipeline_teacher_is_the_train_checkpoint_at_the_derived_seed(ws):
    config = json.loads(pipeline_config(ws, ws / "run").read_text())
    config.update(pretrain_epochs=3, pretrain_eta=0.05, batch_size=16, seed=5)
    path = ws / "config.json"
    path.write_text(json.dumps(config))
    assert main(["pipeline", "--config", str(path)]) == 0
    trained = ws / "trained.json"
    assert main(["train", "--arch", str(ws / "arch.json"), "--data", str(ws / "data.csv"),
                 "--out", str(trained), "--epochs", "3", "--eta", "0.05", "--batch-size", "16",
                 "--seed", str(derive_seed(5, "pretrain"))]) == 0
    assert (ws / "run" / "teacher.json").read_bytes() == trained.read_bytes()


def test_pipeline_reuses_a_teacher_checkpoint(ws):
    ckpt = train_checkpoint(ws)
    config = pipeline_config(ws, ws / "run2", teacher=ckpt)
    assert main(["pipeline", "--config", str(config)]) == 0
    # no pretraining happened, so no teacher checkpoint is written
    assert not (ws / "run2" / "teacher.json").exists()
    assert (ws / "run2" / "manifest.json").exists()


def test_pipeline_rejects_mismatched_teacher(ws, capsys):
    other_arch = ws / "other.json"
    other = check_valid(
        NetworkSpec(
            "other",
            [LayerSpec(LayerKind.FC, I=6, O=4), LayerSpec(LayerKind.FC, I=4, O=3)],
            class_count=3,
            shared_prefix=1,
        )
    )
    other_arch.write_text(json.dumps(network_to_dict(other)))
    ckpt = ws / "other_model.json"
    assert main(["train", "--arch", str(other_arch), "--data", str(ws / "data.csv"), "--out", str(ckpt), "--epochs", "2"]) == 0
    config = pipeline_config(ws, ws / "run3", teacher=ckpt)
    assert main(["pipeline", "--config", str(config)]) == 2
    assert "does not match" in capsys.readouterr().err


def test_pipeline_env_override_and_output_dir_flag(ws, monkeypatch):
    config = pipeline_config(ws, ws / "ignored")
    monkeypatch.setenv("EDGESLIM_TOTAL_EPOCHS", "2")
    monkeypatch.setenv("EDGESLIM_H_MAX", "1")
    override = ws / "elsewhere"
    assert main(["pipeline", "--config", str(config), "--output-dir", str(override)]) == 0
    manifest = json.loads((override / "manifest.json").read_text())
    assert manifest["config"]["total_epochs"] == 2
    assert manifest["config"]["output_dir"] == str(override)
    assert not (ws / "ignored").exists()


def test_pipeline_bad_config_is_input_error(ws, capsys):
    config = ws / "config.json"
    config.write_text(json.dumps({"architecture": "a.json"}))
    assert main(["pipeline", "--config", str(config)]) == 2
    assert "error:" in capsys.readouterr().err


def _config_case(key, value, env, message, id, teacher=False):
    return pytest.param(key, value, env, message, teacher, id=id)


@pytest.mark.parametrize("key, value, env, message, teacher", [
    _config_case("workers", 2, {}, "unknown config keys: ['workers']", id="workers-removed"),
    _config_case(None, None, {"EDGESLIM_WORKERS": "2"},
                 "unknown config variables: ['EDGESLIM_WORKERS']", id="env-workers-removed"),
    _config_case(None, None, {"EDGESLIM_DE_EPOCHS": "abc"}, "EDGESLIM_DE_EPOCHS='abc'",
                 id="env-de-epochs-not-a-number"),
    _config_case("batch_size", 0, {}, "batch_size must be at least 1", id="batch-size-zero"),
    _config_case("batch_size", 0, {}, "batch_size must be at least 1",
                 id="batch-size-zero-teacher", teacher=True),
    _config_case("batch_size", -3, {}, "batch_size must be at least 1",
                 id="batch-size-negative-teacher", teacher=True),
    _config_case("h_max", -1, {}, "h_max must stay below total_epochs and be non-negative",
                 id="h-max-negative"),
    _config_case("plateau_epsilon", float("nan"), {}, "plateau epsilon must be non-negative",
                 id="epsilon-nan"),
    _config_case("dropout_c", float("nan"), {}, "dropout c and max_iteration must be positive",
                 id="dropout-c-nan"),
    _config_case("plateau_window", 0, {}, "plateau window must be positive", id="window-zero"),
    _config_case("plateau_epsilon", -0.5, {}, "plateau epsilon must be non-negative",
                 id="epsilon-negative"),
    _config_case("batch_size", True, {}, "'batch_size' must be of type int", id="batch-size-bool"),
    _config_case("omega", False, {}, "'omega' must be of type float", id="omega-bool"),
    _config_case("lambdas", [True, 0.5, 0.5], {}, "'lambdas' must be of type", id="lambda-bool"),
    _config_case("scheme", "S9", {}, "unknown scheme 'S9'", id="unknown-scheme"),
    _config_case("h_max", 3, {}, "h_max must stay below total_epochs", id="h-max-too-large"),
    _config_case("val_fraction", 1.5, {}, "val_fraction must lie in (0, 1)",
                 id="val-fraction-too-large"),
    _config_case("de_population", 2, {}, "population must be at least 4", id="de-population-2"),
    _config_case("de_generations", -1, {}, "generations must be non-negative",
                 id="de-generations-negative"),
    _config_case("dropout_initial_rate", 0.0, {}, "dropout_initial_rate must lie in (0, 1]",
                 id="dropout-rate-zero"),
    _config_case("dropout_input_rate", 1.5, {}, "dropout_input_rate must lie in (0, 1]",
                 id="dropout-input-rate-too-large"),
    _config_case("dropout_c", -1, {}, "dropout c and max_iteration must be positive",
                 id="dropout-c-negative"),
    _config_case("dropout_max_iteration", 0, {}, "dropout c and max_iteration must be positive",
                 id="dropout-max-iteration-zero"),
    _config_case("eta", -1, {}, "eta must be positive and finite", id="eta-negative"),
    _config_case("eta", float("inf"), {}, "eta must be positive and finite", id="eta-infinite"),
    _config_case("dropout_eta", 0, {}, "dropout_eta must be positive and finite",
                 id="dropout-eta-zero"),
    _config_case("pretrain_eta", -0.1, {}, "pretrain_eta must be positive and finite",
                 id="pretrain-eta-negative"),
    _config_case("pretrain_epochs", 0, {}, "pretrain_epochs must be at least 1",
                 id="pretrain-epochs-zero"),
    _config_case(None, None, {"EDGESLIM_ETA": "nan"}, "eta must be positive and finite",
                 id="env-eta-nan"),
    _config_case("reference_tolerance", -1e-6, {}, "reference_tolerance must be non-negative",
                 id="reference-tolerance-negative"),
    _config_case(None, None, {"EDGESLIM_REFERENCE_TOLERANCE": "nan"},
                 "reference_tolerance must be non-negative", id="env-reference-tolerance-nan"),
    _config_case("size_penalty", float("nan"), {}, "size_penalty must be finite and non-negative",
                 id="size-penalty-nan"),
    _config_case("size_penalty", float("inf"), {}, "size_penalty must be finite and non-negative",
                 id="size-penalty-infinite"),
    _config_case("size_penalty", -1, {}, "size_penalty must be finite and non-negative",
                 id="size-penalty-negative"),
])
def test_pipeline_config_error_exits_2_before_pretraining(
    ws, capsys, monkeypatch, key, value, env, message, teacher
):
    config = pipeline_config(ws, ws / "run5", teacher=train_checkpoint(ws) if teacher else None)
    if key is not None:
        body = json.loads(config.read_text())
        config.write_text(json.dumps({**body, key: value}))
    for name, raw in env.items():
        monkeypatch.setenv(name, raw)
    assert main(["pipeline", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err and err.count("\n") == 1
    assert not (ws / "run5").exists()


def test_pipeline_missing_dataset_path(ws, capsys):
    config = pipeline_config(ws, ws / "run4")
    (ws / "data.csv").unlink()
    assert main(["pipeline", "--config", str(config)]) == 2
    assert "data.csv" in capsys.readouterr().err


def test_reports_have_no_timestamps(ws):
    report = ws / "report.json"
    main(["estimate", "--arch", str(ws / "arch.json"), "--device", str(ws / "device.json"), "--out", str(report)])
    body = report.read_text()
    assert "time" not in body and "date" not in body
    assert body.endswith("\n")
    # stable key order: the same command writes the same bytes
    report2 = ws / "report_again.json"
    main(["estimate", "--arch", str(ws / "arch.json"), "--device", str(ws / "device.json"), "--out", str(report2)])
    assert report.read_bytes() == report2.read_bytes()
