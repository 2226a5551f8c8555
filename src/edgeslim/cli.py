"""Command-line front end.

Subcommands::

    estimate   price an architecture file against a device profile
    gendata    write a synthetic sensory-window dataset as CSV
    train      supervised pretraining; records the reference loss
    dropout    magnitude-dropout a checkpoint against its reference loss
    compress   factorize/reduce a checkpoint until the device budgets hold
    eval       score a checkpoint on a dataset (accuracy/F1/precision)
    pipeline   full sweep from a config file; writes a run manifest

Exit codes: 0 success (and budgets met), 1 infeasible result, 2 bad input
(an architecture too large to allocate included), 3 training divergence.
All reports are JSON written atomically (temp file + rename) with stable
key order, so re-running with identical inputs and seeds reproduces the
bytes exactly.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from edgeslim import __version__, compressor, pruning
from edgeslim import pipeline as pipeline_mod
from edgeslim.archspec import check_valid, network_from_dict
from edgeslim.config import apply_env_overrides, config_from_dict
from edgeslim.datasets import csv_header, load_csv, make_synthetic, save_csv
from edgeslim.engine.model import (
    TrainingDiverged,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from edgeslim.engine.training import (
    evaluate_accuracy,
    evaluate_loss,
    predict,
    train_classifier,
)
from edgeslim.metrics import evaluate_predictions
from edgeslim.pipeline import derive_seed
from edgeslim.resources import (
    device_from_dict,
    device_to_dict,
    estimate_network,
    resolve_alpha,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2
EXIT_DIVERGED = 3


class InputError(Exception):
    """Bad file, malformed JSON, or failed validation: exit code 2."""


def read_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"{path}: no such file") from None
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None


def write_json(path, payload: dict) -> None:
    """Atomic write with stable bytes (sorted keys, trailing newline)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load(path, build):
    """``build`` applied to the JSON at ``path``; a ValueError is an input error."""
    try:
        return build(read_json(path))
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None


def _arch(raw):
    return check_valid(network_from_dict(raw))


def _load_dataset(path):
    try:
        return load_csv(path)
    except FileNotFoundError:
        raise InputError(f"{path}: no such file") from None
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _check_fits(model, dataset, path) -> None:
    """Where a command's dataset meets its model: one feature per model
    input, each within the model dtype's range, since a float64 value past
    it turns infinite when the first forward casts the batch."""
    width = model.spec.layers[0].input_width
    if width != dataset.p:
        raise InputError(f"{path}: model expects {width} features, dataset has {dataset.p}")
    limit, features = np.finfo(model.dtype).max, dataset.features
    if not -limit <= features.min(initial=0.0) <= features.max(initial=0.0) <= limit:
        raise InputError(f"{path}: a feature is not a finite {model.dtype} value")


def _stamp(payload: dict, **resolved) -> dict:
    payload["tool_version"] = __version__
    payload.update(resolved)
    return payload


# -- subcommands -------------------------------------------------------------


def cmd_estimate(args) -> int:
    spec = _load(args.arch, _arch)
    device = _load(args.device, device_from_dict)
    report = estimate_network(
        spec, resolve_alpha(device, pipeline_mod.network_flops(spec)), args.omega
    )
    write_json(args.out, _stamp(report.to_dict(), omega=args.omega))
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def cmd_gendata(args) -> int:
    if args.k < 2:
        raise InputError("gendata needs at least two classes")
    if args.p < 1:
        raise InputError(f"gendata needs at least one feature, got --p {args.p}")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_name(out.name + ".tmp")
    if args.n == 0:
        tmp.write_text(csv_header(args.p), newline="")
    else:
        dataset = make_synthetic(
            k=args.k, p=args.p, n=args.n, seed=args.seed, separation=args.separation
        )
        save_csv(dataset, tmp)
    os.replace(tmp, out)
    return EXIT_OK


def cmd_train(args) -> int:
    spec = _load(args.arch, _arch)
    dataset = _load_dataset(args.data)
    model = init_model(spec, seed=args.seed)
    _check_fits(model, dataset, args.data)
    history = train_classifier(
        model, dataset, epochs=args.epochs, eta=args.eta,
        batch_size=args.batch_size, seed=args.seed,
    )
    reference_loss = evaluate_loss(model, dataset)
    extras = {
        "reference_loss": reference_loss,
        "final_accuracy": evaluate_accuracy(model, dataset),
        "epoch_losses": history,
        "training": {"epochs": args.epochs, "eta": args.eta,
                     "batch_size": args.batch_size, "seed": args.seed},
    }
    write_json(args.out, save_checkpoint(model, extras))
    return EXIT_OK


def cmd_dropout(args) -> int:
    model, extras = _load(args.checkpoint, load_checkpoint)
    dataset = _load_dataset(args.data)
    _check_fits(model, dataset, args.data)
    reference = args.reference_loss
    if reference is None:
        reference = extras.get("reference_loss")
    if reference is None:
        raise InputError(
            "no reference loss: pass --reference-loss or use a checkpoint "
            "written by `train`"
        )
    result = pruning.run(
        model, dataset, eta=args.eta, reference_loss=reference, c=args.c,
        max_iteration=args.max_iteration, initial_rate=args.rate,
        input_rate=args.input_rate, batch_size=args.batch_size, seed=args.seed,
    )
    write_json(args.out, save_checkpoint(result.model, {"reference_loss": reference}))
    if args.report:
        write_json(args.report, _stamp(result.log_dict(), reference_loss=reference))
    return EXIT_OK


def cmd_compress(args) -> int:
    model, extras = _load(args.checkpoint, load_checkpoint)
    device = resolve_alpha(_load(args.device, device_from_dict), pipeline_mod.network_flops(model.spec))
    outcome = compressor.run(model, device, args.omega, size_penalty=args.size_penalty)
    write_json(args.out, save_checkpoint(outcome.model, extras or None))
    if args.report:
        write_json(args.report, _stamp(outcome.log_dict(), omega=args.omega))
    return EXIT_OK if outcome.feasible else EXIT_INFEASIBLE


def cmd_eval(args) -> int:
    model, _ = _load(args.checkpoint, load_checkpoint)
    dataset = _load_dataset(args.data)
    _check_fits(model, dataset, args.data)
    report = evaluate_predictions(dataset.labels, predict(model, dataset.features), dataset.k)
    write_json(args.out, _stamp(report.to_dict()))
    return EXIT_OK


def cmd_pipeline(args) -> int:
    raw = read_json(args.config)
    try:
        config = config_from_dict(apply_env_overrides(raw))
        if args.output_dir:
            config = dataclasses.replace(config, output_dir=args.output_dir)
        config.check_paths()
    except (ValueError, TypeError, FileNotFoundError) as exc:
        raise InputError(f"{args.config}: {exc}") from None

    spec = _load(config.architecture, _arch)
    device = _load(config.device, device_from_dict)
    dataset = _load_dataset(config.dataset)
    out_dir = Path(config.output_dir)

    if config.teacher is not None:
        teacher, extras = _load(config.teacher, load_checkpoint)
        if teacher.spec.layers != spec.layers:
            raise InputError(
                f"{config.teacher}: checkpoint architecture does not match "
                f"{config.architecture}"
            )
        reference_loss = extras.get("reference_loss")
        if reference_loss is None:
            raise InputError(f"{config.teacher}: checkpoint records no reference loss")
    else:
        teacher = init_model(spec, seed=derive_seed(config.seed, "pretrain"))
    _check_fits(teacher, dataset, config.dataset)
    if config.teacher is None:
        train_classifier(
            teacher, dataset, epochs=config.pretrain_epochs, eta=config.pretrain_eta,
            batch_size=config.batch_size, seed=derive_seed(config.seed, "pretrain"),
        )
        reference_loss = evaluate_loss(teacher, dataset)
        write_json(out_dir / "teacher.json", save_checkpoint(teacher, {"reference_loss": reference_loss}))

    try:
        result = pipeline_mod.run(
            teacher, reference_loss, dataset, device, config.pipeline_settings()
        )
    except pipeline_mod.ReferenceMismatch as exc:
        raise InputError(str(exc)) from None

    manifest = _stamp(
        {
            "config": config.to_dict(),
            "device": device_to_dict(device),
            "reference_loss": reference_loss,
            "result": result.to_dict(),
        }
    )
    write_json(out_dir / "manifest.json", manifest)
    if result.best is not None and result.best.model is not None:
        write_json(
            out_dir / "best_student.json",
            save_checkpoint(
                result.best.model,
                {
                    "l": result.best.l,
                    "lambdas": list(result.best.lambdas),
                    "halting_epoch": result.best.halting_epoch,
                    "metrics": result.best.metrics.to_dict(),
                },
            ),
        )
        return EXIT_OK
    return EXIT_INFEASIBLE


# -- argument parsing --------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Argument errors end like every other input error: one ``error:``
    line on stderr and exit code 2, without the usage block.  The
    subcommand parsers are of this class too (``add_subparsers`` makes them
    with the class of the parser it is called on)."""

    def error(self, message: str):
        self.exit(EXIT_INPUT, f"error: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="edgeslim",
        description="Slim a declared network to an edge budget and distill it.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="price an architecture on a device")
    p.add_argument("--arch", required=True)
    p.add_argument("--device", required=True)
    p.add_argument("--omega", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("gendata", help="write a synthetic dataset CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--separation", type=float, default=2.5)
    p.set_defaults(func=cmd_gendata)

    p = sub.add_parser("train", help="supervised pretraining of an architecture")
    p.add_argument("--arch", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--eta", type=float, default=0.1)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("dropout", help="magnitude-dropout a trained checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.add_argument("--reference-loss", type=float)
    p.add_argument("--eta", type=float, default=0.05)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--max-iteration", type=int, default=20)
    p.add_argument("--rate", type=float, default=0.5)
    p.add_argument("--input-rate", type=float, default=0.8)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_dropout)

    p = sub.add_parser("compress", help="rewrite a checkpoint to fit a device")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--device", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.add_argument("--omega", type=float, default=0.5)
    p.add_argument("--size-penalty", type=float, default=0.0)
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("eval", help="score a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("pipeline", help="full sweep from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir", help="override the config's output_dir")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except TrainingDiverged as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:  # numpy's names the size that failed
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
