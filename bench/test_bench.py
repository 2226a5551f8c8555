"""Self-checks of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q bench/test_bench.py     # from the repository root

Every trace point a workload must exercise fires at least once on it, so a
refactor that changes how a function is imported or called fails here
instead of quietly reporting 0.  Takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run as bench  # noqa: E402
from workloads import BATCHES, LAYER_KINDS, WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def reports():
    """One traced run per workload, plus an untraced ``mixed`` run."""
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        out = {("untraced", "mixed"): bench.measure("mixed", 0, 0, False, setup_repeats=1)}
        for name in WORKLOADS:
            out[name] = bench.measure(name, 0, 0, True, setup_repeats=1)
        yield out
    finally:
        os.chdir(cwd)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_trace_point_fires(reports, name):
    report = reports[name]
    assert report["failed"] == 0, report["failures"]
    assert report["missing_spans"] == []
    layers = report["layers"]
    assert (layers["distill.lambda_search_s"] > 0) == (name == "mixed-search")
    assert (layers["distill.lambda_evals"] > 0) == (name == "mixed-search")
    if name == "layers":
        for kind in LAYER_KINDS:
            assert layers[f"engine.layers.{kind}.fwd_s"] > 0
            for batch in BATCHES:
                assert layers[f"engine.layers.{kind}.b{batch}.step_ms"] > 0
                assert layers[f"engine.layers.{kind}.b{batch}.nodes"] > 0
    else:
        for key in ("distill.train_s", "distill.fwd_frozen_calls", "distill.rows",
                    "engine.tape_nodes_per_row", "pruning.rounds", "compressor.rewrites",
                    "engine.training.pretrain_s", "cli.bytes_written", "pipeline.feasible"):
            assert layers[key] > 0, key


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_stage_spans_cover_the_operation(reports, name):
    assert reports[name]["layers"]["trace.stage_coverage"] >= 0.95


def test_traced_manifest_matches_untraced(reports):
    untraced, traced = reports[("untraced", "mixed")], reports["mixed"]
    assert untraced["observed"]["digest"] == traced["observed"]["digest"]


def test_rescale_takes_out_the_sampler_and_applies_the_sampled_speed():
    sampler = bench.SpeedSampler()
    slow = 2 * bench.REF_UNIT_S  # the host runs at half the reference speed
    sampler.samples = [(10.0 + 0.1 * i, slow) for i in range(10)]
    assert sampler.rescale(10.0, 11.0) == pytest.approx((1.0 - 10 * slow) / 2)
    # one unit inside: it is subtracted, and the three nearest give the speed
    sampler.samples.append((20.0, bench.REF_UNIT_S))
    assert sampler.rescale(19.99, 20.01) == pytest.approx(
        (0.02 - bench.REF_UNIT_S) * (1 + 0.5 + 0.5) / 3)


def test_sampler_stops_its_timer_on_exit():
    before = signal.getsignal(signal.SIGALRM)
    with bench.SpeedSampler() as sampler:
        deadline = time.perf_counter() + 3 * bench.REF_INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    assert sampler.samples
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_edgeslim_environment_is_scrubbed(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("EDGESLIM_SEED", "7")
    report = bench.measure("layers", 0, 0, False, setup_repeats=1)
    assert report["scrubbed_env"] == ["EDGESLIM_SEED"]
    assert "EDGESLIM_SEED" not in os.environ


def test_result_line_carries_every_declared_metric(reports):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = bench.result_line(reports[("untraced", "mixed")])
    assert sorted(e2e["metrics"]) == sorted(m["name"] for m in declared["end_to_end"])
    assert all(m["value"] != 0 for m in e2e["metrics"].values())
    traced = bench.result_line(reports["mixed"])
    assert sorted(traced["metrics"]) == sorted(m["name"] for m in declared["per_layer"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "layers", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
