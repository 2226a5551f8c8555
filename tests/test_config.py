"""Run-configuration parsing and environment overrides."""

import dataclasses
import json

import pytest

from edgeslim import pipeline
from edgeslim.cli import main
from edgeslim.config import ENV_PREFIX, RunConfig, apply_env_overrides, config_from_dict
from edgeslim.pipeline import PipelineSettings

REQUIRED = {
    "architecture": "arch.json",
    "device": "device.json",
    "dataset": "data.csv",
    "output_dir": "out",
}


def test_defaults_and_round_trip():
    config = config_from_dict(dict(REQUIRED))
    assert config.scheme == "S6"
    assert config.lambdas is None
    assert config.teacher is None
    again = config_from_dict(config.to_dict())
    assert again == config


def test_lambdas_become_a_float_tuple():
    config = config_from_dict({**REQUIRED, "lambdas": [0.5, 0.3, 0.2]})
    assert config.lambdas == (0.5, 0.3, 0.2)
    assert isinstance(config.lambdas, tuple)
    assert config.to_dict()["lambdas"] == [0.5, 0.3, 0.2]
    with pytest.raises(ValueError):
        config_from_dict({**REQUIRED, "lambdas": [0.5, 0.5]})


def test_unknown_and_missing_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        config_from_dict({**REQUIRED, "turbo": True})
    with pytest.raises(ValueError, match="requires keys"):
        config_from_dict({"architecture": "a.json"})


def test_validation():
    with pytest.raises(ValueError):
        config_from_dict({**REQUIRED, "omega": 2.0})
    with pytest.raises(ValueError):
        config_from_dict({**REQUIRED, "total_epochs": 0})


def test_env_overrides_coerce_by_field_type():
    raw = dict(REQUIRED)
    env = {
        ENV_PREFIX + "SEED": "7",
        ENV_PREFIX + "OMEGA": "0.25",
        ENV_PREFIX + "SCHEME": "S5",
        ENV_PREFIX + "LAMBDAS": "0.5,0.3,0.2",
        ENV_PREFIX + "H_MAX": "12",
        ENV_PREFIX + "TEACHER": "none",
    }
    changed = config_from_dict(apply_env_overrides(raw, env))
    assert changed.seed == 7
    assert changed.omega == 0.25
    assert changed.scheme == "S5"
    assert changed.lambdas == (0.5, 0.3, 0.2)
    assert changed.h_max == 12
    assert changed.teacher is None
    # untouched fields keep their values; no env means no copy
    assert changed.architecture == REQUIRED["architecture"]
    assert apply_env_overrides(raw, {}) is raw
    assert "seed" not in raw  # the merge leaves the parsed file alone
    # the one parse checks an override like a value from the file
    with pytest.raises(ValueError, match="omega"):
        config_from_dict(apply_env_overrides(raw, {ENV_PREFIX + "OMEGA": "2"}))


def test_check_paths_reports_every_missing_file(tmp_path):
    present = tmp_path / "arch.json"
    present.write_text("{}")
    config = config_from_dict(
        {
            "architecture": str(present),
            "device": str(tmp_path / "missing-device.json"),
            "dataset": str(tmp_path / "missing-data.csv"),
            "output_dir": str(tmp_path),
        }
    )
    with pytest.raises(FileNotFoundError) as err:
        config.check_paths()
    assert "missing-device.json" in str(err.value)
    assert "missing-data.csv" in str(err.value)


# a non-default value for every PipelineSettings field
SWEEP = {
    "omega": 0.7, "dropout_c": 2.0, "dropout_max_iteration": 3, "dropout_initial_rate": 0.4,
    "dropout_input_rate": 0.6, "dropout_eta": 0.02, "size_penalty": 0.1, "scheme": "S5",
    "lambdas": (0.2, 0.3, 0.5), "de_population": 5, "de_generations": 2, "de_epochs": 3,
    "total_epochs": 9, "h_max": 5, "plateau_epsilon": 0.25, "plateau_window": 4,
    "eta": 0.01, "batch_size": 16, "val_fraction": 0.2, "seed": 11,
    "reference_tolerance": 1e-5,
}


class _Stop(Exception):
    """Raised by the stand-in sweep once it has seen its settings."""


def test_pipeline_settings_mirror(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the REQUIRED paths are relative
    layers = [{"kind": "fc", "I": 4, "O": 6}, {"kind": "fc", "I": 6, "O": 2}]
    (tmp_path / "arch.json").write_text(json.dumps({"name": "t", "class_count": 2, "layers": layers}))
    (tmp_path / "device.json").write_text(json.dumps({
        "name": "dev", "b_e_bytes_per_flop": 4.0, "e_m_seconds_per_flop": 1e-9,
        "flops_per_second": 1e9, "beta_seconds": 1.0, "alpha_bytes": 1e9,
    }))
    assert main(["gendata", "--out", "data.csv", "--n", "20", "--p", "4", "--k", "2"]) == 0
    seen = []

    def sweep(teacher, reference_loss, dataset, device, settings):
        seen.append(settings)
        raise _Stop

    monkeypatch.setattr(pipeline, "run", sweep)
    (tmp_path / "config.json").write_text(json.dumps({**REQUIRED, **SWEEP, "pretrain_epochs": 1}))
    with pytest.raises(_Stop):
        main(["pipeline", "--config", "config.json"])
    # the sweep reads the run config itself, whose every sweep field came from the file
    [settings] = seen
    assert type(settings) is RunConfig and settings.pretrain_epochs == 1
    fields = dataclasses.fields(PipelineSettings)
    assert sorted(f.name for f in fields) == sorted(SWEEP)
    for f in fields:
        assert getattr(settings, f.name) == SWEEP[f.name] != f.default, f.name
