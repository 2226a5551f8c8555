"""edgeslim benchmark: one workload, one seed, closed loop, one result line.

    python3 bench/run.py --workload mixed --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  One client drives the
public API and the CLI in-process, and the next operation starts only after
the previous one ends.  The inputs are generated from ``--seed`` (see
``workloads.py``), set up several times (the median is ``setup_s``), then
operations repeat until ``--seconds`` have passed.  Every operation goes
through the correctness gate.  ``setup_s`` and ``run_s`` are medians of
wall time rescaled by the host speed sampled during every step (see
``REF_UNIT_S``); the printout gives the plain wall times too.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from a traced run and writes its spans to
``.bench_out/spans-<workload>-seed<seed>.jsonl``.  Human-readable lines come
first; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(".bench_out")  # relative to ROOT: the manifests record these paths

# Host-speed reference.  The speed of a shared host swings by a third within
# seconds and drifts over minutes, which medians inside a 30 s run cannot
# remove.  While a run lasts, a timer interrupts the benchmark every
# REF_INTERVAL_S and times one reference unit, fixed work that never touches
# edgeslim; every timed step is rescaled by the host speed sampled during
# it, with the sampler's own time taken out.  The timed metrics read as
# seconds on a host on which one unit takes REF_UNIT_S (a 2-CPU x86_64 VM,
# Intel Xeon 2.1 GHz, does about that).
REF_UNIT_S = 0.0009
REF_INTERVAL_S = 0.04
REF_LOOPS = 6000
REF_PRODUCTS = 60


def _limit_threads() -> None:
    """Cap BLAS/OpenMP threads at nproc; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(min(max(wanted, 1), nproc))


def _scrub_env() -> list[str]:
    """``config.apply_env_overrides`` reads EDGESLIM_*; none may reach a run."""
    removed = sorted(k for k in os.environ if k.startswith("EDGESLIM_"))
    for key in removed:
        del os.environ[key]
    return removed


def provenance() -> dict:
    import ctypes
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                threads = func()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads if threads is not None else os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def code_id() -> str:
    """Hash of the package sources, so digests from other code never match."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _import_fresh(tracer):
    """Import edgeslim anew; drop earlier copies and their trace points."""
    if tracer is not None:
        tracer.uninstall()
    for name in [m for m in sys.modules if m == "edgeslim" or m.startswith("edgeslim.")]:
        del sys.modules[name]
    import edgeslim

    if Path(edgeslim.__file__).resolve().parent != SRC / "edgeslim":
        raise ImportError(f"edgeslim imported from {edgeslim.__file__}, not {SRC}")
    if tracer is not None:
        import tracing

        tracing.install(tracer)


def reference_unit(a, x) -> None:
    """One unit of the host-speed reference: interpreter-bound integer
    arithmetic, then small float32 products, the two kinds of work that
    edgeslim's small-array code does.  It allocates nothing the garbage
    collector tracks, so the size of the workload's heap never reaches it."""
    import numpy as np

    acc = 0
    for i in range(REF_LOOPS):
        acc += i * i
    for _ in range(REF_PRODUCTS):
        x = np.tanh(x @ a)


class SpeedSampler:
    """Times one reference unit every REF_INTERVAL_S of wall time, from a
    SIGALRM handler in the benchmark's own (main) thread."""

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.a = (rng.standard_normal((64, 64)) / 8).astype(np.float32)
        self.x = rng.standard_normal((32, 64)).astype(np.float32)
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self.busy = False

    def _sample(self, signum, frame) -> None:
        if self.busy:  # a late signal never nests a second unit
            return
        self.busy = True
        start = time.perf_counter()
        reference_unit(self.a, self.x)
        self.samples.append((start, time.perf_counter() - start))
        self.busy = False

    def __enter__(self) -> "SpeedSampler":
        self.previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def rescale(self, start: float, end: float) -> float:
        """Seconds that [start, end) takes on the reference host: its wall
        time less the units run inside it, times the mean relative speed of
        those units (of the three nearest when fewer ran inside)."""
        inside = [d for t, d in self.samples if start <= t < end]
        speeds = inside
        if len(speeds) < 3:
            middle = (start + end) / 2
            speeds = [d for _, d in sorted(self.samples, key=lambda s: abs(s[0] - middle))[:3]]
        return (end - start - sum(inside)) * statistics.fmean(REF_UNIT_S / d for d in speeds)


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest of p50/p75/p90/p95/p99 with at least ten samples beyond it."""
    import numpy as np

    for p in (99, 95, 90, 75, 50):
        if len(samples) * (100 - p) / 100 >= 10:
            return p, float(np.percentile(samples, p))
    return None


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            setup_repeats: int | None = None) -> dict:
    """Set up, run the closed loop, gate every operation; return the report."""
    import tracing
    from workloads import WORKLOADS, GateFailure

    workload = WORKLOADS[workload_name]
    scrubbed = _scrub_env()
    workdir = OUT / f"{workload_name}-seed{seed}"
    tracer = tracing.Tracer() if trace else None

    with SpeedSampler() as sampler:
        setups = []
        for repeat in range(setup_repeats or workload.setup_repeats):
            if tracer is not None:
                tracer.run = f"setup{repeat}"
            start = time.perf_counter()
            _import_fresh(tracer)
            state = workload.setup(workdir, seed)
            setups.append((start, time.perf_counter()))

        ops, ok, failures, observed = [], [], [], None
        deadline = time.perf_counter() + seconds
        while not ops or time.perf_counter() < deadline:
            run_id = f"op{len(ops)}"
            workload.prepare(state)
            if tracer is not None:
                tracer.run = run_id
            start = time.perf_counter()
            try:
                with tracer.span("op") if tracer is not None else nullcontext():
                    outcome = workload.run(state, tracer)
            except Exception:  # an operation that raises counts as failed
                outcome, error = None, traceback.format_exc(limit=3)
            ops.append((start, time.perf_counter()))
            if outcome is not None:
                try:
                    found = workload.check(state, outcome)
                    error = None
                except (GateFailure, OSError, ValueError, KeyError) as exc:
                    error = f"gate: {exc}"
            if error is not None:
                failures.append(f"{run_id}: {error}")
                print(f"bench: {run_id} failed: {error}", file=sys.stderr)
                continue
            ok.append(len(ops) - 1)
            observed = observed or found
            if tracer is not None:
                for key in ("pipeline.candidates", "pipeline.feasible"):
                    tracer.counters[run_id][key] = found.get(key, 0)

    digest_ok = _check_digest(workload_name, seed, observed)
    if not digest_ok:
        failures.append("manifest differs from another run of this code and seed")
    timed = [ops[i] for i in ok] or ops
    wall = [end - start for start, end in timed]
    report = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": trace,
        "provenance": provenance(), "code_id": code_id(), "scrubbed_env": scrubbed,
        "setup_wall_s": [end - start for start, end in setups],
        "samples": [end - start for start, end in ops], "failures": failures,
        "attempted": len(ops), "failed": len(ops) - len(ok) + (not digest_ok),
        "ref_units": len(sampler.samples),
        "ref_unit_s": statistics.median(d for _, d in sampler.samples),
        "setup_s": statistics.median(sampler.rescale(*span) for span in setups),
        "run_s": statistics.median(sampler.rescale(*span) for span in timed),
        "run_wall_s": statistics.median(wall), "tail": tail_percentile(wall),
        "setup_spans": setups, "op_spans": ops, "ref_samples": sampler.samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "observed": observed or {},
    }
    if tracer is not None:
        tracer.uninstall()
        report["layers"] = layer_metrics(tracer, len(ops), len(setups), report["run_s"])
        report["missing_spans"] = missing_spans(tracer, workload)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload_name}-seed{seed}.jsonl"
        tracer.write(spans_path)
        report["spans_file"] = str(spans_path)
    return report


def _check_digest(workload_name: str, seed: int, observed: dict | None) -> bool:
    """The manifest must match any earlier run of the same code and seed,
    traced or not; the first run records it."""
    if not observed or "digest" not in observed:
        return True
    path = OUT / "digests" / f"{workload_name}-seed{seed}-{code_id()}.sha256"
    if path.exists():
        return path.read_text().strip() == observed["digest"]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(observed["digest"] + "\n")
    return True


def missing_spans(tracer, workload) -> list[str]:
    fired = {span[0] for span in tracer.spans}
    return sorted(set(workload.spans) - fired) + tracer.missing


def layer_metrics(tracer, operations: int, setups: int, traced_run_s: float) -> dict:
    """Per-layer metrics: the median over operations of each per-op value."""
    import tracing
    from workloads import BATCHES, LAYER_KINDS, STEPS

    runs = [f"op{i}" for i in range(operations)]
    table = tracing.per_run(tracer.spans, runs)
    setup_table = tracing.per_run(tracer.spans, [f"setup{i}" for i in range(setups)])
    roots = _stage_coverage(tracer.spans)
    rows = []
    for run in runs:
        t, c = table[run], tracer.counters[run]
        rows_trained = c.get("distill.rows", 0)
        rounds = c.get("pruning.rounds", 0)
        row = {
            "engine.training.pretrain_s": t["engine.training.pretrain"],
            "engine.training.reference_s": t["engine.training.reference"],
            "cli.load_s": t["cli.read_json"] + t["datasets.load_csv"]
            + t["engine.model.load_checkpoint"],
            "cli.write_s": t["cli.write_json"],
            "cli.bytes_written": c.get("cli.bytes_written", 0),
            "pruning.run_s": t["pruning.run.self"],
            "pruning.apply_dropout_s": t["pruning.apply_dropout"],
            "pruning.rounds": rounds,
            "pruning.accept_ratio": c.get("pruning.accepted", 0) / rounds if rounds else 0.0,
            "compressor.run_s": t["compressor.run"],
            "compressor.rewrites": c.get("compressor.rewrites", 0),
            "distill.lambda_search_s": t["distill.lambda_search.self"],
            "distill.lambda_evals": c.get("distill.lambda_evals", 0),
            "distill.train_s": t["distill.train.self"],
            "distill.train_calls": c.get("distill.train_calls", 0),
            "distill.epochs": c.get("distill.epochs", 0),
            "distill.epochs_after_halt": c.get("distill.epochs_after_halt", 0),
            "distill.rows": rows_trained,
            "distill.val_eval_s": t["distill.val_eval"],
            "distill.fwd_frozen_s": t["distill.forward_frozen"],
            "distill.fwd_frozen_calls": t["distill.forward_frozen.calls"],
            "distill.fwd_trainable_s": t["distill.forward_trainable"],
            "engine.backward_s": t["engine.autodiff.backward"],
            "engine.tape_nodes": t["op.nodes"],
            "engine.tape_nodes_per_row": t["distill.train.nodes"] / rows_trained
            if rows_trained else 0.0,
            "pipeline.candidates": c.get("pipeline.candidates", 0),
            "pipeline.feasible": c.get("pipeline.feasible", 0),
            "trace.stage_coverage": roots.get(run, 0.0),
        }
        for kind in LAYER_KINDS:
            row[f"engine.layers.{kind}.fwd_s"] = t[f"engine.layers.{kind}.fwd"]
            for batch in BATCHES:
                name = f"engine.layers.{kind}.b{batch}"
                row[f"{name}.step_ms"] = t[f"{name}.step"] * 1000 / STEPS
                row[f"{name}.nodes"] = t[f"{name}.step.nodes"] / STEPS
        rows.append(row)
    out = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
    if not out["engine.training.pretrain_s"]:
        # workloads that pretrain the teacher in setup
        out["engine.training.pretrain_s"] = statistics.median(
            row["engine.training.pretrain"] for row in setup_table.values())
    out["trace.run_s"] = traced_run_s
    return out


def _stage_coverage(spans) -> dict[str, float]:
    """Per operation: share of its time covered by its top-level stage spans
    (the children of ``cli.main``, or of the operation itself)."""
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        children.setdefault(span[3], []).append(index)
    out = {}
    for index, (name, start, end, _, run, _) in enumerate(spans):
        if name != "op":
            continue
        stage_parent = index
        top = children.get(index, [])
        if len(top) == 1 and spans[top[0]][0] == "cli.main":
            stage_parent = top[0]
        covered = sum(spans[i][2] - spans[i][1] for i in children.get(stage_parent, []))
        out[run] = covered / (end - start)
    return out


E2E_UNITS = {
    "setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "ok_ratio": "1",
    "student_val_accuracy": "1", "student_flops": "FLOP", "train_flops": "FLOP",
}


def result_line(report: dict) -> dict:
    if report["trace"]:
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in report["layers"].items()}
    else:
        attempted, failed = report["attempted"], report["failed"]
        values = {
            "setup_s": report["setup_s"],
            "run_s": report["run_s"],
            "peak_rss_mb": report["peak_rss_mb"],
            "ok_ratio": (attempted - failed) / attempted,
            **{k: report["observed"].get(k, 0)
               for k in ("student_val_accuracy", "student_flops", "train_flops")},
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "coverage")):
        return "1"
    if name.endswith("bytes_written"):
        return "bytes"
    if name.endswith("per_row"):
        return "count/row"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _limit_threads()
    if not (SRC / "edgeslim" / "__init__.py").is_file():
        print(f"bench: no edgeslim sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, default=str) + "\n")
    result = result_line(report)
    prov = report["provenance"]
    print(f"workload {args.workload}  seed {args.seed}  "
          + "  ".join(f"{k} {v}" for k, v in prov.items()))
    for name, metric in result["metrics"].items():
        print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  wall time: run {report['run_wall_s']:.6g} s, setup "
          f"{statistics.median(report['setup_wall_s']):.6g} s; reference unit "
          f"{report['ref_unit_s'] * 1000:.4g} ms (median of {report['ref_units']})")
    if report["tail"] is not None:
        p, value = report["tail"]
        print(f"  run wall time p{p}: {value:.6g} s over {report['attempted']} operations")
    print(f"  operations {report['attempted']}  failed {report['failed']}  "
          f"fail_ratio {report['failed'] / report['attempted']:.4g}")
    for line in report.get("missing_spans", []):
        print(f"bench: expected trace point never fired: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
