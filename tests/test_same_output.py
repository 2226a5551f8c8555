"""tools/same_output.py: two runs on one workdir take turns, and a run that
exits non-zero prints its exit code alone."""

import importlib.util
import json
import threading
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent


def load_tool(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))  # the tool imports bench/workloads.py
    spec = importlib.util.spec_from_file_location("same_output", ROOT / "tools" / "same_output.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_holders_of_the_workdir_lock_run_one_after_the_other(tmp_path, monkeypatch):
    same_output = load_tool(monkeypatch)
    workdir = tmp_path / "work"
    events, held = [], threading.Event()

    def first():
        with same_output.exclusive(workdir):
            events.append("first in")
            held.set()
            time.sleep(0.2)  # the second holder must wait this out
            events.append("first out")

    def second():
        held.wait()
        with same_output.exclusive(workdir):
            events.append("second in")

    threads = [threading.Thread(target=f) for f in (first, second)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert events == ["first in", "first out", "second in"]
    assert (tmp_path / "work.lock").is_file()


def test_a_run_that_exits_non_zero_prints_its_exit_code_alone(tmp_path, monkeypatch, capsys):
    """A failed pipeline run writes no manifest: its line carries no digests
    and no candidate lines follow it, and the runs after it still print."""
    same_output = load_tool(monkeypatch)
    record = {"l": 1, "val_accuracy": 0.5, "halting_epoch": 2, "final_combined_loss": 0.25,
              "report": {"total_flops": 10}, "training_flops": 20}
    runs = []

    def fake_run(name, workdir, seed):
        runs.append((name, seed))
        if name == "layers":
            return SimpleNamespace(cells=[SimpleNamespace(kind="fc", batch=32)]), [0.5]
        out = workdir / f"{name}-{seed}"
        if seed == 405:
            return SimpleNamespace(output_dir=out), 3
        out.mkdir(parents=True)
        (out / "manifest.json").write_text(json.dumps({"result": {"best_l": 1, "records": [record]}}))
        (out / "best_student.json").write_text("{}")
        return SimpleNamespace(output_dir=out), 0

    monkeypatch.setattr(same_output, "_run", fake_run)
    same_output.main(["--workdir", str(tmp_path / "work"), "--seeds", "405", "7"])
    lines = capsys.readouterr().out.splitlines()
    assert runs == [("dense", 405), ("dense", 7), ("mixed", 405), ("mixed", 7), ("layers", 0)]
    assert lines[0] == "dense seed=405 exit=3"
    assert lines[1].startswith("dense seed=7 exit=0 manifest=") and "best_student=" in lines[1]
    assert lines[2].startswith("  candidate l=1 ")
    assert lines[3] == "mixed seed=405 exit=3"
    assert lines[6] == f"layers seed=0 kind=fc batch=32 loss={float.hex(0.5)}"
    assert len(lines) == 7
