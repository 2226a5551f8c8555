"""Run configuration: one JSON file drives a full pipeline run.

:class:`RunConfig` is :class:`~edgeslim.pipeline.PipelineSettings` plus the
input paths and the pretraining knobs.
Any scalar field can be overridden from the environment with the
``EDGESLIM_`` prefix (``EDGESLIM_SEED=7``, ``EDGESLIM_SCHEME=S5``, ...),
merged into the file's values before they are checked, so ad-hoc
experiments keep the file intact.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from pathlib import Path

from edgeslim.archspec import is_json_number
from edgeslim.engine.model import check_learning_rate
from edgeslim.engine.training import check_epochs
from edgeslim.pipeline import PipelineSettings

ENV_PREFIX = "EDGESLIM_"


@dataclass(frozen=True, kw_only=True)
class RunConfig(PipelineSettings):
    """The input paths and the pretraining knobs, plus every sweep setting
    inherited from :class:`PipelineSettings`."""

    architecture: str
    device: str
    dataset: str
    output_dir: str
    teacher: str | None = None  # checkpoint path; None pretrains in-run
    pretrain_epochs: int = 30
    pretrain_eta: float = 0.1

    def __post_init__(self) -> None:
        super().__post_init__()
        check_epochs(self.pretrain_epochs, "pretrain_epochs")
        check_learning_rate(self.pretrain_eta, "pretrain_eta")

    def check_paths(self) -> None:
        """The referenced input files must exist before a run starts."""
        missing = [
            p
            for p in (self.architecture, self.device, self.dataset, self.teacher)
            if p is not None and not Path(p).is_file()
        ]
        if missing:
            raise FileNotFoundError(f"missing input files: {', '.join(missing)}")

    def pipeline_settings(self) -> PipelineSettings:
        return PipelineSettings(
            **{f.name: getattr(self, f.name) for f in dataclasses.fields(PipelineSettings)}
        )

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        if out["lambdas"] is not None:
            out["lambdas"] = list(out["lambdas"])
        return out


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def _check_type(name: str, value) -> None:
    field_type = _FIELD_TYPES[name]
    if value is None:
        ok = "None" in field_type
    elif "tuple" in field_type:
        ok = isinstance(value, (list, tuple)) and all(is_json_number(v) for v in value)
    elif "int" in field_type or "float" in field_type:
        ok = is_json_number(value, integral="int" in field_type)
    else:
        ok = isinstance(value, str)
    if not ok:
        raise ValueError(f"config key {name!r} must be of type {field_type}, got {value!r}")


def config_from_dict(data: dict) -> RunConfig:
    """Build a :class:`RunConfig` from parsed JSON; every field's type is
    checked before the settings are validated."""
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = set(data) - set(_FIELD_TYPES)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    missing = {"architecture", "device", "dataset", "output_dir"} - set(data)
    if missing:
        raise ValueError(f"config requires keys: {sorted(missing)}")
    for name, value in data.items():
        _check_type(name, value)
    return RunConfig(**data)


def _coerce(name: str, raw: str) -> object:
    field_type = _FIELD_TYPES[name]
    if raw.lower() in ("none", "null") and "None" in field_type:
        return None
    try:
        if "tuple" in field_type:
            return tuple(float(part) for part in raw.split(","))
        if "int" in field_type:
            return int(raw)
        if "float" in field_type:
            return float(raw)
    except ValueError:
        raise ValueError(
            f"{ENV_PREFIX}{name.upper()}={raw!r} is not a valid {field_type}"
        ) from None
    return raw


def apply_env_overrides(data: dict, env=None) -> dict:
    """Merge the converted ``EDGESLIM_*`` values into the parsed config file,
    so :func:`config_from_dict` checks them; one naming no setting is an error."""
    env = os.environ if env is None else env
    known = {ENV_PREFIX + name.upper(): name for name in _FIELD_TYPES}
    unknown = sorted(key for key in env if key.startswith(ENV_PREFIX) and key not in known)
    if unknown:
        raise ValueError(f"unknown config variables: {unknown}")
    overrides = {name: _coerce(name, env[key]) for key, name in known.items() if key in env}
    # a file that is not an object keeps its own error in config_from_dict
    return {**data, **overrides} if overrides and isinstance(data, dict) else data

