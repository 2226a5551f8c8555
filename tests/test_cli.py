"""Command-line flows, exit codes, and byte-stable JSON reports."""

import json

import pytest

from edgeslim.archspec import (
    LayerKind,
    LayerSpec,
    NetworkSpec,
    check_valid,
    network_to_dict,
)
from edgeslim.cli import main
from edgeslim.datasets import load_csv

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


def test_gendata_rejects_one_class(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["gendata", "--out", str(out), "--n", "10", "--p", "3", "--k", "1"]) == 2
    assert "two classes" in capsys.readouterr().err


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


def test_eval_rejects_width_mismatch(ws, capsys):
    ckpt = train_checkpoint(ws)
    thin = ws / "thin.csv"
    assert main(["gendata", "--out", str(thin), "--n", "20", "--p", "4", "--k", "3"]) == 0
    rc = main(["eval", "--checkpoint", str(ckpt), "--data", str(thin), "--out", str(ws / "e.json")])
    assert rc == 2
    assert "features" in capsys.readouterr().err


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
