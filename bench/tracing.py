"""Span tracer that times edgeslim's layers from outside the package.

Nothing under ``src/`` knows about it.  :func:`install` replaces public
functions at the module where they are *called* (``pipeline.train``, not
``distill.train``) with timing wrappers, so a traced run sees exactly the
calls the program makes.  Spans stay in memory and are written out once, at
the end of the run: name, start, end, parent, run id, and the number of
autodiff tape nodes (``Tensor`` constructions) created inside the span.

A layer's self time is its span minus the time covered by its child spans.
Only the traced process pays for any of this; end-to-end metrics come from
an untraced run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        # one list per span: [name, start, end, parent index, run id, nodes]
        self.spans: list[list] = []
        self.counters: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.run = "setup"
        self.nodes = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run, self.nodes])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = self.nodes - span[5]
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def count(self, name: str, value: float = 1) -> None:
        self.counters[self.run][name] += value

    # -- patching ----------------------------------------------------------

    def wrap(self, owner, attr: str, name, on_result=None) -> None:
        """Time every call of ``owner.attr``.

        ``name`` is a span name or a function of the call's (args, kwargs)
        returning one; ``on_result(tracer, args, kwargs, result)`` records
        counters from the returned value.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer.open(name(args, kwargs) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def count_constructions(self, cls) -> None:
        original = cls.__init__
        tracer = self

        def counted(obj, *args, **kwargs):
            tracer.nodes += 1
            original(obj, *args, **kwargs)

        cls.__init__ = counted
        self._patched.append((cls, "__init__", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for index, (name, start, end, parent, run, nodes) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": run, "nodes": nodes}) + "\n")


def _trainable(args, kwargs) -> bool:
    return kwargs.get("trainable", args[2] if len(args) > 2 else True)


def _pruning_result(tracer, args, kwargs, result) -> None:
    tracer.count("pruning.rounds", len(result.rounds))
    tracer.count("pruning.accepted", sum(r.accepted for r in result.rounds))


def _distill_result(tracer, args, kwargs, result) -> None:
    from edgeslim.datasets import train_test_split

    dataset, plan = args[3], args[4]
    train_rows = train_test_split(dataset, plan.val_fraction, plan.seed)[0].n
    epochs = len(result.history)
    tracer.count("distill.train_calls")
    tracer.count("distill.epochs", epochs)
    tracer.count("distill.rows", epochs * train_rows)
    if result.halting_epoch is not None:
        tracer.count("distill.epochs_after_halt", epochs - result.halting_epoch)


def _written(tracer, args, kwargs, result) -> None:
    tracer.count("cli.bytes_written", os.path.getsize(args[0]))


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the freshly imported edgeslim package."""
    from edgeslim import cli, compressor, distill, pipeline, pruning
    from edgeslim.engine import autodiff, model

    w = tracer.wrap
    w(cli, "main", "cli.main")
    w(cli, "read_json", "cli.read_json")
    w(cli, "write_json", "cli.write_json", _written)
    w(cli, "load_csv", "datasets.load_csv")
    w(cli, "save_csv", "datasets.save_csv")
    w(cli, "make_synthetic", "datasets.make_synthetic")
    w(cli, "load_checkpoint", "engine.model.load_checkpoint")
    w(cli, "save_checkpoint", "engine.model.save_checkpoint")
    w(cli, "config_from_dict", "config.config_from_dict")
    w(cli, "apply_env_overrides", "config.apply_env_overrides")
    w(cli, "train_classifier", "engine.training.pretrain")
    w(cli, "evaluate_loss", "engine.training.reference")
    w(pipeline, "run", "pipeline.run")
    w(pipeline, "_evaluate_candidate", "pipeline.candidate")
    w(pipeline, "evaluate_loss", "engine.training.reference")
    w(pipeline, "optimize_lambdas", "distill.lambda_search",
      lambda t, a, k, r: t.count("distill.lambda_evals", r.evaluations))
    w(pipeline, "train", "distill.train", _distill_result)
    w(pipeline, "predict", "engine.training.predict")
    w(pruning, "run", "pruning.run", _pruning_result)
    w(pruning, "apply_dropout", "pruning.apply_dropout")
    w(pruning, "run_epoch", "engine.training.run_epoch")
    w(compressor, "run", "compressor.run",
      lambda t, a, k, r: t.count("compressor.rewrites", len(r.records)))
    w(distill, "forward",
      lambda a, k: "distill.forward_trainable" if _trainable(a, k) else "distill.forward_frozen")
    w(distill, "predict", "distill.val_eval")
    w(model, "layer_forward", lambda a, k: f"engine.layers.{a[0].kind.value}.fwd")
    w(autodiff.Tensor, "backward", "engine.autodiff.backward")
    tracer.count_constructions(autodiff.Tensor)
    if tracer.missing:
        print(f"bench: trace points not found: {', '.join(tracer.missing)}", file=sys.stderr)


# -- aggregation ------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the duration of its direct children."""
    out = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def per_run(spans: list[list], runs: list[str]) -> dict[str, dict[str, float]]:
    """Per run id: total and self seconds, call count and tape nodes per name.

    Keys are ``<name>``, ``<name>.self``, ``<name>.calls`` and ``<name>.nodes``.
    """
    selfs = self_times(spans)
    table: dict[str, dict[str, float]] = {run: defaultdict(float) for run in runs}
    for index, (name, start, end, _, run, nodes) in enumerate(spans):
        if run not in table:
            continue
        row = table[run]
        row[name] += end - start
        row[name + ".self"] += selfs[index]
        row[name + ".calls"] += 1
        row[name + ".nodes"] += nodes
    return table
