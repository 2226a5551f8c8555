"""tools/same_output.py: two runs on one workdir take turns, every pipeline
line carries its dataset's digest, a run that exits non-zero prints no
manifest digests, ``layers`` runs at every seed, and the compare step sums
two printouts up, with or without dataset digests."""

import hashlib
import importlib.util
import json
import re
import threading
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
DATA = b"label,s0\r\n1,0.5\r\n"
DATA_SHA256 = hashlib.sha256(DATA).hexdigest()


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


def test_a_run_that_exits_non_zero_prints_no_manifest_digests(tmp_path, monkeypatch, capsys):
    """Every pipeline line carries the digest of the run's dataset CSV.  A
    failed pipeline run writes no manifest: its line carries no manifest
    digests and no candidate lines follow it, and the runs after it still
    print.  ``layers`` runs at each seed, its lines under the seed."""
    same_output = load_tool(monkeypatch)
    record = {"l": 1, "val_accuracy": 0.5, "halting_epoch": 2, "final_combined_loss": 0.25,
              "report": {"total_flops": 10}, "training_flops": 20, "dropout_rounds": 1,
              "compression_steps": 2}
    runs = []

    def fake_run(name, workdir, seed):
        runs.append((name, seed))
        if name == "layers":
            cells = [SimpleNamespace(kind="fc", batch=32), SimpleNamespace(kind="gru", batch=256)]
            return SimpleNamespace(cells=cells), [0.5, seed / 4]
        out = workdir / f"{name}-{seed}"
        out.mkdir(parents=True)
        (out / "data.csv").write_bytes(DATA)
        (out / "config.json").write_text(json.dumps({"dataset": str(out / "data.csv")}))
        state = SimpleNamespace(output_dir=out, config=str(out / "config.json"))
        if seed == 405:
            return state, 3
        (out / "manifest.json").write_text(json.dumps({"result": {"best_l": 1, "records": [record]}}))
        (out / "best_student.json").write_text("{}")
        return state, 0

    monkeypatch.setattr(same_output, "_run", fake_run)
    same_output.main(["--workdir", str(tmp_path / "work"), "--seeds", "405", "7"])
    lines = capsys.readouterr().out.splitlines()
    assert runs == [("dense", 405), ("dense", 7), ("mixed", 405), ("mixed", 7),
                    ("layers", 405), ("layers", 7)]
    assert lines[0] == f"dense seed=405 exit=3 data={DATA_SHA256}"
    assert lines[1].startswith(f"dense seed=7 exit=0 data={DATA_SHA256} manifest=")
    assert "best_student=" in lines[1]
    assert lines[2] == ("  candidate l=1 val_accuracy=0.5 halting_epoch=2 total_flops=10"
                        " training_flops=20 dropout_rounds=1 compression_steps=2")
    assert lines[3] == f"mixed seed=405 exit=3 data={DATA_SHA256}"
    assert lines[6:] == [
        f"layers seed=405 kind=fc batch=32 loss={float.hex(0.5)}",
        f"layers seed=405 kind=gru batch=256 loss={float.hex(405 / 4)}",
        f"layers seed=7 kind=fc batch=32 loss={float.hex(0.5)}",
        f"layers seed=7 kind=gru batch=256 loss={float.hex(7 / 4)}",
    ]


BEFORE = """\
dense seed=0 exit=0 manifest=aa best_student=bb val_accuracy=0.95 halting_epoch=11 final_combined_loss=0x1p-1
  candidate l=2 val_accuracy=0.95 halting_epoch=11 total_flops=10 training_flops=20 dropout_rounds=1 compression_steps=1
dense seed=1 exit=0 manifest=cc best_student=dd val_accuracy=0.9 halting_epoch=11 final_combined_loss=0x1p-1
dense seed=2 exit=0 manifest=ee best_student=ff val_accuracy=0.8 halting_epoch=5 final_combined_loss=0x1p-1
dense seed=3 exit=0 manifest=gg best_student=hh val_accuracy=0.7 halting_epoch=5 final_combined_loss=0x1p-1
dense seed=36 exit=0 manifest=ii best_student=jj val_accuracy=0.9575 halting_epoch=11 final_combined_loss=0x1p-1
dense seed=405 exit=3
src/edgeslim/engine/layers.py:158: RuntimeWarning: overflow encountered in matmul
  pre = pre @ W + params[bias_name]

mixed seed=0 exit=0 manifest=kk best_student=ll val_accuracy=0.825 halting_epoch=9 final_combined_loss=0x1p+2
layers seed=0 kind=fc batch=32 loss=0x1.0p-1
layers seed=0 kind=gru batch=256 loss=0x1.8p-1
layers seed=1 kind=gru batch=256 loss=0x1.8p-1
"""

AFTER = """\
dense seed=0 exit=0 manifest=aa best_student=bb val_accuracy=0.95 halting_epoch=11 final_combined_loss=0x1p-1
  candidate l=2 val_accuracy=0.95 halting_epoch=11 total_flops=10 training_flops=20 dropout_rounds=0 compression_steps=1
dense seed=1 exit=0 manifest=xx best_student=yy val_accuracy=0.925 halting_epoch=11 final_combined_loss=0x1p-1
dense seed=2 exit=0 manifest=xx best_student=yy val_accuracy=0.85 halting_epoch=7 final_combined_loss=0x1p-1
dense seed=3 exit=3
dense seed=36 exit=0 manifest=xx best_student=yy val_accuracy=0.636 halting_epoch=11 final_combined_loss=0x1p-1
dense seed=405 exit=3
dense seed=1104 exit=3
mixed seed=0 exit=0 manifest=kk best_student=ll val_accuracy=0.825 halting_epoch=9 final_combined_loss=0x1p+2
layers seed=0 kind=fc batch=32 loss=0x1.0p-1
layers seed=0 kind=gru batch=256 loss=0x1.9p-1
layers seed=1 kind=gru batch=256 loss=0x1.8p-1
layers seed=2 kind=mgu batch=32 loss=0x1.8p-1
"""


def test_compare_reports_exit_codes_halting_epochs_and_accuracy_moves(tmp_path, monkeypatch, capsys):
    """Per workload: a changed exit code, a moved halting epoch, each
    direction's count, worst move and seeds, and the layers cells (seed,
    kind, batch) whose loss changed; runs in one printout only are named,
    not compared, and lines that are no run's (a warning on stderr) are
    skipped."""
    same_output = load_tool(monkeypatch)
    assert same_output.compare(BEFORE, AFTER) == [
        "dense: 6 runs in both printouts",
        "  in one printout only: 1104",
        "  halting epoch moved: seed=2 5 -> 7",
        "  exit changed: seed=3 0 -> 3",
        "  val_accuracy rose: 2, worst +0.050000 at seed=2 (seeds 1, 2)",
        "  val_accuracy fell: 1, worst -0.321500 at seed=36 (seeds 36)",
        "mixed: 1 runs in both printouts",
        "  val_accuracy rose: 0",
        "  val_accuracy fell: 0",
        "layers: 3 runs in both printouts",
        "  in one printout only: seed=2 mgu/32",
        "  loss changed: 1 (seed=0 gru/256)",
    ]
    paths = [tmp_path / "before.txt", tmp_path / "after.txt"]
    for path, text in zip(paths, (BEFORE, AFTER)):
        path.write_text(text)
    same_output.main(["--compare", *map(str, paths)])
    assert capsys.readouterr().out.splitlines() == same_output.compare(BEFORE, AFTER)


def test_compare_reads_printouts_with_and_without_data_digests(monkeypatch):
    """``data=`` is read like any other field: a printout from before it was
    added compares with one that has it as with its own kind."""
    same_output = load_tool(monkeypatch)
    before, after = (re.sub(r"^(\w+ seed=\d+ exit=\d+)", r"\1 data=d0", text, flags=re.M)
                     for text in (BEFORE, AFTER))
    assert "dense seed=405 exit=3 data=d0" in before.splitlines()
    expected = same_output.compare(BEFORE, AFTER)
    assert same_output.compare(before, after) == expected
    assert same_output.compare(BEFORE, after) == expected
    assert same_output.compare(before, AFTER) == expected
