"""tools/bench_pairs.py on canned result lines: parsing and pair statistics.

No benchmark runs here; the runs are built from result lines in the format
``bench/run.py`` prints last.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def result_line(run_s, setup_s=0.1, accuracy=0.9, failed=0, peak_rss_mb=50.0):
    values = {
        "setup_s": setup_s, "run_s": run_s, "peak_rss_mb": peak_rss_mb, "ok_ratio": 1 - failed / 10,
        "student_val_accuracy": accuracy, "student_flops": 1000, "train_flops": 5000,
    }
    metrics = {name: {"value": value, "unit": "1"} for name, value in values.items()}
    return json.dumps({"correct": failed == 0, "attempted": 10, "failed": failed, "metrics": metrics})


def canned_runs(workload, parent, change, metric="run_s", **change_kw):
    """Pairs whose ``metric`` reads ``parent[i]`` and ``change[i]``; the other
    timed metrics keep ``result_line``'s defaults, run_s 1.0."""
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        sides = [("parent", result_line(**{"run_s": 1.0, metric: p})),
                 ("change", result_line(**{"run_s": 1.0, metric: c}, **change_kw))]
        for side, line in sides if pair % 2 == 0 else sides[::-1]:
            stdout = f"workload {workload}  seed {pair}\n  run_s {p} s\n{line}\n"
            runs.append({"workload": workload, "pair": pair, "seed": pair, "side": side,
                         **bench_pairs.parse_result(stdout)})
    return runs


def test_parse_result_reads_the_last_line():
    got = bench_pairs.parse_result("workload dense\n" + result_line(2.5, failed=3) + "\n")
    assert got["run_s"] == 2.5 and got["student_flops"] == 1000
    assert got["attempted"] == 10 and got["failed"] == 3


def test_summarize_gives_quartiles_changes_and_wins_per_workload():
    runs = canned_runs("dense", [2.0, 2.2, 2.1, 2.4, 2.3], [1.8, 1.9, 2.0, 2.5, 1.7])
    runs += canned_runs("mixed", [1.0, 1.0], [1.0, 1.1], accuracy=0.8, failed=1)
    runs.append({**runs[0], "pair": 9})  # a pair missing its other side is left out
    out = bench_pairs.summarize(runs)

    dense = out["dense"]
    assert dense["pairs"] == 5
    assert dense["parent"]["run_s"] == {"median": 2.2, "q1": 2.1, "q3": 2.3}
    assert dense["change"]["run_s"] == {"median": 1.9, "q1": 1.8, "q3": 2.0}
    assert dense["run_s_change_pct"] == round(100 * (1.9 - 2.2) / 2.2, 2)
    assert dense["run_s_change_lower_in"] == 4
    assert dense["setup_s_change_lower_in"] == 0  # ties count for neither side
    assert dense["parent"]["ok_ratio"] == dense["change"]["ok_ratio"] == 1.0
    assert dense["outputs_equal_in_every_pair"]

    mixed = out["mixed"]
    assert mixed["pairs"] == 2 and mixed["run_s_change_lower_in"] == 0
    assert mixed["change"]["ok_ratio"] == 18 / 20
    assert not mixed["outputs_equal_in_every_pair"]


@pytest.mark.parametrize("metric", bench_pairs.TIMED)
def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_parent_iqr(metric):
    """``<metric>_gain_holds``, for each timed metric, by one rule; a metric
    that did not move reads false beside it."""
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]  # IQR 0.035
    out = bench_pairs.summarize(
        canned_runs("clear", parent, [p - 0.1 for p in parent], metric)
        + canned_runs("one-loss", parent, [p - 0.1 for p in parent[:9]] + [1.2], metric)
        + canned_runs("two-losses", parent, [p - 0.1 for p in parent[:8]] + [1.2, 1.2], metric)
        + canned_runs("one-tie", parent, [p - 0.1 for p in parent[:8]] + parent[8:9] + [0.9],
                      metric)
        + canned_runs("inside-iqr", parent, [p - 0.02 for p in parent], metric)
        + canned_runs("worse", parent, [p + 0.1 for p in parent], metric)
    )
    holds = {workload: entry[f"{metric}_gain_holds"] for workload, entry in out.items()}
    assert holds == {"clear": True, "one-loss": True, "two-losses": False, "one-tie": True,
                     "inside-iqr": False, "worse": False}
    assert out["one-loss"][f"{metric}_change_lower_in"] == 9
    assert out["one-tie"][f"{metric}_change_lower_in"] == 9  # a tie counts for neither side
    assert out["inside-iqr"][f"{metric}_change_lower_in"] == 10
    others = {name for name in bench_pairs.TIMED if name != metric}
    assert not any(entry[f"{name}_gain_holds"] for entry in out.values() for name in others)


def test_runs_last_as_long_as_the_benchmark_declares():
    declared = json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text())["run_seconds"]
    assert bench_pairs.SECONDS == declared
    cmd = bench_pairs.command("dense", 3)
    assert cmd[cmd.index("--seconds") + 1] == str(declared)


def test_parent_commit_is_read_from_the_tree_or_is_none(tmp_path):
    assert bench_pairs.tree_commit(tmp_path) is None  # not a git checkout
    git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "x"], check=True)
    head = subprocess.run(git + ["rev-parse", "--short", "HEAD"], check=True,
                          capture_output=True, text=True).stdout.strip()
    assert bench_pairs.tree_commit(tmp_path) == head
    (tmp_path / "sub").mkdir()
    assert bench_pairs.tree_commit(tmp_path / "sub") is None  # inside a checkout, not its top


def bench_tree(root, run_py="print('run')\n"):
    """A tree holding the files the benchmark digest covers."""
    (root / "bench" / "__pycache__").mkdir(parents=True)
    (root / "bench" / "run.py").write_text(run_py)
    (root / "bench" / "workloads.py").write_text("WORKLOADS = {}\n")
    (root / "bench" / "__pycache__" / "run.cpython.pyc").write_bytes(root.name.encode())
    (root / "BENCHMARK.json").write_text('{"run_seconds": 30}\n')
    return root


def test_the_bench_digest_covers_bench_files_and_the_benchmark_declaration(tmp_path):
    a, b = bench_tree(tmp_path / "a"), bench_tree(tmp_path / "b")
    assert bench_pairs.bench_digest(a) == bench_pairs.bench_digest(b)  # __pycache__ left out
    (b / "BENCHMARK.json").write_text('{"run_seconds": 20}\n')
    assert bench_pairs.bench_digest(a) != bench_pairs.bench_digest(b)
    c = bench_tree(tmp_path / "c")
    (c / "bench" / "extra.py").write_text("")
    assert bench_pairs.bench_digest(a) != bench_pairs.bench_digest(c)
    d = bench_tree(tmp_path / "d")
    (d / "bench" / "workloads.py").rename(d / "bench" / "workloads2.py")  # same bytes, new name
    assert bench_pairs.bench_digest(a) != bench_pairs.bench_digest(d)


def test_two_trees_with_different_benchmarks_exit_2_before_any_run(tmp_path, monkeypatch, capsys):
    parent = bench_tree(tmp_path / "parent")
    change = bench_tree(tmp_path / "change", run_py="print('changed')\n")
    monkeypatch.chdir(tmp_path)
    runs = []
    monkeypatch.setattr(bench_pairs, "run_one", lambda *a: runs.append(a))
    argv = ["--parent", str(parent), "--change", str(change), "--tag", "t", "--seeds", "1", "2"]
    assert bench_pairs.main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "differ" in err
    assert runs == [] and not (tmp_path / "BENCH_t.json").exists()


def test_two_trees_with_one_benchmark_run_and_record_its_digest(tmp_path, monkeypatch):
    parent, change = bench_tree(tmp_path / "parent"), bench_tree(tmp_path / "change")
    monkeypatch.chdir(tmp_path)
    line = result_line(1.0)
    monkeypatch.setattr(bench_pairs, "run_one",
                        lambda tree, workload, seed: (bench_pairs.parse_result(line), {}))
    argv = ["--parent", str(parent), "--change", str(change), "--tag", "t", "--seeds", "1", "2",
            "--workloads", "dense"]
    assert bench_pairs.main(argv) == 0
    body = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert body["method"]["bench_sha256"] == bench_pairs.bench_digest(parent)
    assert body["workloads"]["dense"]["pairs"] == 2
