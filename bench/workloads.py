"""The benchmark's workloads: inputs from a seed, one operation, its gate.

Each workload has three steps.  ``setup`` generates every input from the
seed (dataset CSV, architecture, device and config files, and where the
workload says so a pretrained teacher checkpoint).  ``run`` is one timed
operation.  ``check`` is the correctness gate for that operation, run after
the clock stops; it raises :class:`GateFailure` and returns the observables
the end-to-end metrics read.

Why these workloads (the pipeline ones drive the CLI in-process, exactly as
``edgeslim pipeline --config ...`` would):

* ``dense``  -- fc only, pretraining inside the slim run, 30 epochs with
  plateau halting.  No recurrent layer, so a recurrent-kernel change should
  not move it; the one workload where pretraining and post-halt training
  carry much of the time.
* ``mixed``  -- conv -> lstm -> fc -> fc with a teacher pretrained in setup
  and fixed loss weights: one long distillation, dominated by the LSTM tape.
* ``mixed-search`` -- ``mixed`` with the loss-weight search on: 41 short
  distillations on one teacher and dataset, so repeated frozen-teacher
  forwards and per-call fixed costs dominate.
* ``layers`` -- forward, cross-entropy, backward and SGD step of one layer of
  every kind (plus an fc head) at batch 32 and 256: the only workload where
  gru, mgu, coupled_lstm and factorized_conv do real work.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

CLASSES = 4
# Device coefficients; the budgets are set per architecture in setup.
BYTES_PER_FLOP = 4.0
SECONDS_PER_FLOP = 1e-9


class GateFailure(Exception):
    """An operation finished but its outputs fail the correctness gate."""


def _layer(kind: str, I: int, O: int, **dims) -> dict:
    return {"kind": kind, "I": I, "O": O, **dims}


MIXED_LAYERS = (
    _layer("conv", 1, 4, f=3, g=3, h=6, w=6),
    _layer("lstm", 36, 16, s=4),
    _layer("fc", 16, 16),
    _layer("fc", 16, CLASSES),
)


@dataclass(frozen=True)
class PipelineWorkload:
    """One ``edgeslim pipeline`` slim run per operation."""

    name: str
    layers: tuple[dict, ...]
    rows: int
    features: int
    teacher_in_setup: bool
    config: dict
    spans: tuple[str, ...]  # trace points the workload must exercise
    setup_repeats: int = 9  # setup_s is their median; fixed, as each adds to peak RSS

    def setup(self, workdir: Path, seed: int) -> "PipelineState":
        from edgeslim import cli
        from edgeslim.archspec import network_from_dict
        from edgeslim.compressor import minimum_flops
        from edgeslim.distill import network_flops

        workdir.mkdir(parents=True, exist_ok=True)
        files = {key: str(workdir / name) for key, name in (
            ("architecture", "arch.json"), ("device", "device.json"),
            ("dataset", "data.csv"), ("teacher", "teacher.json"),
            ("config", "config.json"), ("output_dir", "run"))}
        arch = {"name": self.name, "class_count": CLASSES, "layers": list(self.layers)}
        spec = network_from_dict(arch)
        # Budgets halfway between the compressor's floor and the full cost,
        # so the compressor always has work to do and can always finish it.
        budget = (minimum_flops(spec) + network_flops(spec)) / 2
        cli.write_json(files["architecture"], arch)
        cli.write_json(files["device"], {
            "name": "bench-device", "b_e_bytes_per_flop": BYTES_PER_FLOP,
            "e_m_seconds_per_flop": SECONDS_PER_FLOP, "flops_per_second": 1.0 / SECONDS_PER_FLOP,
            "beta_seconds": SECONDS_PER_FLOP * budget, "alpha_bytes": BYTES_PER_FLOP * budget,
        })
        _cli(["gendata", "--out", files["dataset"], "--n", str(self.rows),
              "--p", str(self.features), "--k", str(CLASSES), "--seed", str(seed)])
        config = {key: files[key] for key in ("architecture", "device", "dataset", "output_dir")}
        config.update(self.config, seed=seed)
        if self.teacher_in_setup:
            _cli(["train", "--arch", files["architecture"], "--data", files["dataset"],
                  "--out", files["teacher"], "--seed", str(seed)])
            config["teacher"] = files["teacher"]
        cli.write_json(files["config"], config)
        return PipelineState(config=files["config"], output_dir=Path(files["output_dir"]))

    def prepare(self, state: "PipelineState") -> None:
        # Every repeat writes into the same directory; clearing it first
        # keeps a stale checkpoint from passing the gate.
        shutil.rmtree(state.output_dir, ignore_errors=True)

    def run(self, state: "PipelineState", tracer=None) -> int:
        from edgeslim import cli

        return cli.main(["pipeline", "--config", state.config])

    def check(self, state: "PipelineState", exit_code: int) -> dict:
        from edgeslim.archspec import network_from_dict
        from edgeslim.engine.model import load_checkpoint

        if exit_code != 0:
            raise GateFailure(f"pipeline exited with code {exit_code}")
        raw = (state.output_dir / "manifest.json").read_bytes()
        if state.manifest is None:
            state.manifest = raw
        elif raw != state.manifest:
            raise GateFailure("manifest.json differs from the first repeat's")
        result = json.loads(raw)["result"]
        best = next((r for r in result["records"] if r["l"] == result["best_l"]), None)
        if best is None or not best["feasible"]:
            raise GateFailure("best candidate missing or infeasible")
        with open(state.output_dir / "best_student.json") as fh:
            student, _ = load_checkpoint(json.load(fh))
        if student.spec.layers != network_from_dict(best["spec"]).layers:
            raise GateFailure("best_student.json does not hold the best candidate")
        return {
            "digest": hashlib.sha256(raw).hexdigest(),
            "student_val_accuracy": best["val_accuracy"],
            "student_flops": best["report"]["total_flops"],
            "train_flops": best["training_flops"],
            "pipeline.candidates": len(result["records"]),
            "pipeline.feasible": sum(r["feasible"] for r in result["records"]),
        }


@dataclass
class PipelineState:
    config: str
    output_dir: Path
    manifest: bytes | None = None


def _cli(argv: list[str]) -> None:
    from edgeslim import cli

    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"setup step `edgeslim {' '.join(argv)}` exited with code {code}")


# -- layer grid -------------------------------------------------------------

LAYER_KINDS = {
    "fc": _layer("fc", 64, 64),
    "factorized_fc": _layer("factorized_fc", 64, 64, R=16),
    "conv": _layer("conv", 1, 8, f=3, g=3, h=6, w=6),
    "factorized_conv": _layer("factorized_conv", 1, 8, f=3, g=3, h=6, w=6, R=4),
    "lstm": _layer("lstm", 16, 32, s=8),
    "gru": _layer("gru", 16, 32, s=8),
    "coupled_lstm": _layer("coupled_lstm", 16, 32, s=8),
    "mgu": _layer("mgu", 16, 32, s=8),
}
BATCHES = (32, 256)
STEPS = 4  # SGD steps per grid cell and operation
EVAL_ROWS = 256
LAYER_ETA = 0.1


@dataclass
class Cell:
    kind: str
    batch: int
    model: object
    x: object
    y: object
    x_eval: object
    y_eval: object


@dataclass
class LayersState:
    cells: list[Cell]
    losses: list[float] | None = None
    trained: list = field(default_factory=list)


@dataclass(frozen=True)
class LayersWorkload:
    """One pass over the kind x batch grid per operation."""

    name: str = "layers"
    setup_repeats: int = 9
    spans: tuple[str, ...] = tuple(
        [f"engine.layers.{kind}.fwd" for kind in LAYER_KINDS]
        + [f"engine.layers.{kind}.b{batch}.step" for kind in LAYER_KINDS for batch in BATCHES]
        + ["engine.autodiff.backward"]
    )

    def setup(self, workdir: Path, seed: int) -> LayersState:
        from edgeslim.archspec import layer_from_dict, network_from_dict
        from edgeslim.datasets import make_synthetic
        from edgeslim.engine.model import init_model
        from edgeslim.pipeline import derive_seed

        cells = []
        for kind, layer in LAYER_KINDS.items():
            head = _layer("fc", layer_from_dict(layer).output_width, CLASSES)
            spec = network_from_dict({"name": f"bench-{kind}", "class_count": CLASSES,
                                      "layers": [layer, head]})
            for batch in BATCHES:
                cell_seed = derive_seed(seed, "layers", kind, batch)
                data = make_synthetic(k=CLASSES, p=spec.layers[0].input_width,
                                      n=batch + EVAL_ROWS, seed=cell_seed)
                x, y = data.features.astype("float32"), data.labels
                cells.append(Cell(kind, batch, init_model(spec, seed=cell_seed),
                                  x[:batch], y[:batch], x[batch:], y[batch:]))
        return LayersState(cells)

    def prepare(self, state: LayersState) -> None:
        from edgeslim.engine.model import copy_model

        state.trained = [copy_model(cell.model) for cell in state.cells]

    def run(self, state: LayersState, tracer=None) -> list[float]:
        from edgeslim.engine.model import backward, cross_entropy_node, forward, sgd_step

        losses = []
        for cell, model in zip(state.cells, state.trained):
            name = f"engine.layers.{cell.kind}.b{cell.batch}.step"
            with tracer.span(name) if tracer else nullcontext():
                for _ in range(STEPS):
                    trace = forward(model, cell.x)
                    loss = cross_entropy_node(trace, cell.y)
                    sgd_step(model, backward(model, trace, loss), LAYER_ETA)
            losses.append(float(loss.data))
        return losses

    def check(self, state: LayersState, losses: list[float]) -> dict:
        from edgeslim.distill import network_flops
        from edgeslim.engine.training import predict

        if not all(math.isfinite(v) for v in losses):
            raise GateFailure("non-finite loss after the fixed steps")
        if state.losses is None:
            state.losses = losses
        elif losses != state.losses:
            raise GateFailure("losses differ from the first repeat's")
        accuracy = [
            float((predict(model, cell.x_eval) == cell.y_eval).mean())
            for cell, model in zip(state.cells, state.trained)
        ]
        flops = [network_flops(cell.model.spec) for cell in state.cells]
        return {
            "student_val_accuracy": sum(accuracy) / len(accuracy),
            "student_flops": sum(flops) // len(BATCHES),
            "train_flops": sum(3 * f * cell.batch * STEPS for f, cell in zip(flops, state.cells)),
        }


_PIPELINE_SPANS = (
    "cli.main", "cli.read_json", "cli.write_json", "datasets.load_csv",
    "config.config_from_dict", "config.apply_env_overrides", "engine.training.reference",
    "pipeline.run", "pipeline.candidate", "pruning.run", "pruning.apply_dropout",
    "engine.training.run_epoch", "compressor.run", "distill.train", "distill.forward_trainable",
    "distill.forward_frozen", "distill.val_eval", "engine.training.predict",
    "engine.autodiff.backward", "engine.model.save_checkpoint", "engine.layers.fc.fwd",
)
_MIXED_SPANS = _PIPELINE_SPANS + (
    "engine.model.load_checkpoint", "engine.layers.conv.fwd", "engine.layers.lstm.fwd",
)
_MIXED_CONFIG = {"scheme": "S6", "total_epochs": 10}

WORKLOADS = {
    w.name: w
    for w in (
        PipelineWorkload(
            "dense",
            layers=(_layer("fc", 16, 48), _layer("fc", 48, 32), _layer("fc", 32, 16),
                    _layer("fc", 16, CLASSES)),
            rows=2000, features=16, teacher_in_setup=False,
            config={"pretrain_epochs": 30, "scheme": "S6", "total_epochs": 30,
                    "lambdas": [0.5117, 0.3972, 0.0911]},
            spans=_PIPELINE_SPANS + ("engine.training.pretrain", "engine.layers.factorized_fc.fwd"),
        ),
        PipelineWorkload(
            "mixed", layers=MIXED_LAYERS, rows=1200, features=64, teacher_in_setup=True,
            config={**_MIXED_CONFIG, "lambdas": [0.5, 0.3, 0.2]}, spans=_MIXED_SPANS,
            setup_repeats=3,
        ),
        PipelineWorkload(
            "mixed-search", layers=MIXED_LAYERS, rows=1200, features=64, teacher_in_setup=True,
            config={**_MIXED_CONFIG, "de_population": 8, "de_generations": 4, "de_epochs": 2},
            spans=_MIXED_SPANS + ("distill.lambda_search",), setup_repeats=3,
        ),
        LayersWorkload(),
    )
}
