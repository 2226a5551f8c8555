"""Print digests of the benchmark workloads' outputs for a refactor proof.

A pure refactor must leave every result byte-identical.  Run this script
once against each source tree and compare the two printouts:

    PYTHONPATH=<parent>/src:<parent>/bench python3 tools/same_output.py > parent.txt
    PYTHONPATH=<change>/src:<change>/bench python3 tools/same_output.py > change.txt
    diff parent.txt change.txt

It runs the ``dense`` and ``mixed`` workloads of ``bench/workloads.py`` at
seeds 0-2 (or the ``--seeds`` given) and prints, for each, the exit code,
the sha256 of the dataset CSV that ``gendata`` wrote (``data=``), and the
sha256 of ``manifest.json`` and of ``best_student.json``; a run that exits
non-zero writes no manifest, so its line ends at ``data=``.  It then runs
``layers`` at each of the same seeds and prints, under each seed, its 16
losses as float hex, one line each, labelled with the seed, the layer kind
and the batch; ``layers`` is the only workload that runs the gru, mgu,
coupled_lstm and factorized_conv kinds.  The default seeds print 72 lines.
Every run uses the same working directory, because the manifest
records the paths of its inputs.  A run holds an exclusive lock on
``<workdir>.lock`` from start to end, so a second run on the same workdir
waits for the first instead of emptying the directory under it.

Each pipeline line also carries the best candidate's ``val_accuracy``,
``halting_epoch`` and ``final_combined_loss`` (float hex), and is followed by
one line per candidate with its ``l``, ``val_accuracy``, ``halting_epoch``,
``report.total_flops``, ``training_flops``, ``dropout_rounds`` and
``compression_steps``.  When a change moves float
rounding and the digests differ, the diff shows how far the results moved
and whether any candidate's outcome changed.

A change that moves rounding is swept wider (``--seeds`` 0 to 59), and the
compare step sums two such printouts up instead of a diff:

    python3 tools/same_output.py --compare parent.txt change.txt

It prints, per pipeline workload, the runs whose exit code changed, the
runs whose best halting epoch moved, and how many runs' best
``val_accuracy`` rose and fell, each direction with its worst move and the
seeds that moved; and for ``layers``, the cells (seed, kind and batch)
whose loss changed.  It reads printouts with or without ``data=`` alike,
and ones that ran ``layers`` at seed 0 only.
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
        f" dropout_rounds={r['dropout_rounds']} compression_steps={r['compression_steps']}"
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
    import workloads  # bench/workloads.py, found through PYTHONPATH

    shutil.rmtree(workdir, ignore_errors=True)
    workload = workloads.WORKLOADS[name]
    state = workload.setup(workdir, seed)
    workload.prepare(state)
    return state, workload.run(state)


def _fields(text: str) -> dict[tuple, dict[str, str]]:
    """The run lines of a printout, keyed by (workload, seed) or, for
    ``layers``, by (workload, seed, kind, batch); each maps to its ``key=value``
    fields.  Candidate lines and any other line (a warning a run printed to
    stderr, say) are skipped."""
    runs = {}
    for line in text.splitlines():
        words = line.split()
        if len(words) < 2 or not words[1].startswith("seed="):
            continue
        name, *pairs = words
        fields = dict(pair.split("=", 1) for pair in pairs)
        if "kind" in fields:
            runs[name, int(fields["seed"]), fields["kind"], int(fields["batch"])] = fields
        else:
            runs[name, int(fields["seed"])] = fields
    return runs


def _label(key: tuple) -> str:
    """A run as a compare line names it: a pipeline run by its seed, a
    ``layers`` cell by its seed, kind and batch."""
    return f"seed={key[1]} {key[2]}/{key[3]}" if len(key) == 4 else str(key[1])


def compare(before: str, after: str) -> list[str]:
    """Report how the runs of printout ``after`` moved from ``before``."""
    old, new = _fields(before), _fields(after)
    lines = []
    for name in dict.fromkeys(key[0] for key in [*old, *new]):
        keys = [key for key in dict.fromkeys([*old, *new]) if key[0] == name]
        both = [key for key in keys if key in old and key in new]
        lines.append(f"{name}: {len(both)} runs in both printouts")
        if len(both) < len(keys):
            only = [_label(key) for key in keys if key not in both]
            lines.append(f"  in one printout only: {', '.join(only)}")
        if name == "layers":
            moved = [_label(k) for k in both if old[k]["loss"] != new[k]["loss"]]
            listed = f" ({', '.join(moved)})" if moved else ""
            lines.append(f"  loss changed: {len(moved)}{listed}")
            continue
        for key in both:
            a, b = old[key], new[key]
            if a["exit"] != b["exit"]:
                lines.append(f"  exit changed: seed={key[1]} {a['exit']} -> {b['exit']}")
            elif a.get("halting_epoch") != b.get("halting_epoch"):
                h, g = a["halting_epoch"], b["halting_epoch"]
                lines.append(f"  halting epoch moved: seed={key[1]} {h} -> {g}")
        moves = sorted(
            (float(new[key]["val_accuracy"]) - float(old[key]["val_accuracy"]), key[1])
            for key in both
            if "val_accuracy" in old[key] and "val_accuracy" in new[key]
        )
        for label, side in (("rose", [m for m in reversed(moves) if m[0] > 0]),
                            ("fell", [m for m in moves if m[0] < 0])):
            line = f"  val_accuracy {label}: {len(side)}"
            if side:
                line += f", worst {side[0][0]:+.6f} at seed={side[0][1]}"
                line += f" (seeds {', '.join(map(str, sorted(seed for _, seed in side)))})"
            lines.append(line)
    return lines


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workdir",
        default=str(Path(tempfile.gettempdir()) / "edgeslim-same-output"),
        help="scratch directory, emptied before every run (default: %(default)s)",
    )
    parser.add_argument(
        "--seeds", type=int, nargs="+", default=SEEDS,
        help="seeds of the dense, mixed and layers runs (default: %(default)s)",
    )
    parser.add_argument(
        "--compare", nargs=2, metavar=("BEFORE", "AFTER"),
        help="run nothing; report how the runs of printout AFTER moved from BEFORE",
    )
    args = parser.parse_args(argv)
    if args.compare:
        before, after = (Path(path).read_text() for path in args.compare)
        print("\n".join(compare(before, after)))
        return
    workdir = Path(args.workdir)
    with exclusive(workdir):
        for name in ("dense", "mixed"):
            for seed in args.seeds:
                state, code = _run(name, workdir, seed)
                dataset = Path(json.loads(Path(state.config).read_text())["dataset"])
                line = f"{name} seed={seed} exit={code} data={_sha256(dataset)}"
                if code != 0:
                    print(line, flush=True)
                    continue
                out = state.output_dir
                print(
                    f"{line} manifest={_sha256(out / 'manifest.json')}"
                    f" best_student={_sha256(out / 'best_student.json')}"
                    f" {_best_summary(out / 'manifest.json')}",
                )
                print("\n".join(_candidates(out / "manifest.json")), flush=True)
        for seed in args.seeds:
            state, losses = _run("layers", workdir, seed)
            for cell, loss in zip(state.cells, losses):
                print(f"layers seed={seed} kind={cell.kind} batch={cell.batch}"
                      f" loss={float.hex(loss)}", flush=True)
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
