"""Print digests of the benchmark workloads' outputs for a refactor proof.

A pure refactor must leave every result byte-identical.  Run this script
once against each source tree and compare the two printouts:

    PYTHONPATH=<parent>/src:<parent>/bench python3 tools/same_output.py > parent.txt
    PYTHONPATH=<change>/src:<change>/bench python3 tools/same_output.py > change.txt
    diff parent.txt change.txt

It runs the ``dense`` and ``mixed`` workloads of ``bench/workloads.py`` at
seeds 0-2 (or the ``--seeds`` given) and prints the exit code and the sha256
of ``manifest.json`` and of ``best_student.json`` for each; a run that exits
non-zero writes no manifest, so its line is the exit code alone.  It then
runs ``layers`` at seed 0 and prints
each loss as float hex on its own line, labelled with its layer kind and
batch.  Every run uses the same working directory, because the manifest
records the paths of its inputs.  A run holds an exclusive lock on
``<workdir>.lock`` from start to end, so a second run on the same workdir
waits for the first instead of emptying the directory under it.

Each pipeline line also carries the best candidate's ``val_accuracy``,
``halting_epoch`` and ``final_combined_loss`` (float hex), and is followed by
one line per candidate with its ``l``, ``val_accuracy``, ``halting_epoch``,
``report.total_flops`` and ``training_flops``.  When a change moves float
rounding and the digests differ, the diff shows how far the results moved
and whether any candidate's outcome changed.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import hashlib
import json
import shutil
import tempfile
from pathlib import Path

import workloads  # bench/workloads.py, found through PYTHONPATH

SEEDS = (0, 1, 2)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _best_summary(manifest: Path) -> str:
    """The best record's accuracy, halting epoch and final combined loss."""
    result = json.loads(manifest.read_text())["result"]
    best = next(r for r in result["records"] if r["l"] == result["best_l"])
    return (
        f"val_accuracy={best['val_accuracy']!r}"
        f" halting_epoch={best['halting_epoch']}"
        f" final_combined_loss={float.hex(best['final_combined_loss'])}"
    )


def _candidates(manifest: Path) -> list[str]:
    """One line per candidate: its outcome, without float rounding."""
    return [
        f"  candidate l={r['l']} val_accuracy={r['val_accuracy']!r}"
        f" halting_epoch={r['halting_epoch']}"
        f" total_flops={r['report']['total_flops']} training_flops={r['training_flops']}"
        for r in json.loads(manifest.read_text())["result"]["records"]
    ]


@contextlib.contextmanager
def exclusive(workdir: Path):
    """Hold an exclusive ``flock`` on the lock file beside ``workdir``."""
    workdir.parent.mkdir(parents=True, exist_ok=True)
    with open(workdir.with_name(workdir.name + ".lock"), "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # released when the file closes
        yield


def _run(name: str, workdir: Path, seed: int):
    shutil.rmtree(workdir, ignore_errors=True)
    workload = workloads.WORKLOADS[name]
    state = workload.setup(workdir, seed)
    workload.prepare(state)
    return state, workload.run(state)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workdir",
        default=str(Path(tempfile.gettempdir()) / "edgeslim-same-output"),
        help="scratch directory, emptied before every run (default: %(default)s)",
    )
    parser.add_argument(
        "--seeds", type=int, nargs="+", default=SEEDS,
        help="seeds of the dense and mixed runs (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    workdir = Path(args.workdir)
    with exclusive(workdir):
        for name in ("dense", "mixed"):
            for seed in args.seeds:
                state, code = _run(name, workdir, seed)
                if code != 0:
                    print(f"{name} seed={seed} exit={code}", flush=True)
                    continue
                out = state.output_dir
                print(
                    f"{name} seed={seed} exit={code}"
                    f" manifest={_sha256(out / 'manifest.json')}"
                    f" best_student={_sha256(out / 'best_student.json')}"
                    f" {_best_summary(out / 'manifest.json')}",
                )
                print("\n".join(_candidates(out / "manifest.json")), flush=True)
        state, losses = _run("layers", workdir, 0)
        for cell, loss in zip(state.cells, losses):
            print(f"layers seed=0 kind={cell.kind} batch={cell.batch} loss={float.hex(loss)}")
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
