"""Run the benchmark on two source trees in alternating pairs; write BENCH_<tag>.json.

    python3 tools/bench_pairs.py --parent <tree> --change <tree> --tag <tag> \\
        --change-note "what the change does" --seeds 810 811 812 813 814

Each tree is a source checkout holding ``bench/run.py`` and ``src/``.  For
every workload and seed, one pair runs ``bench/run.py --trace 0`` once on
each tree: the parent first in even pairs, the change first in odd pairs,
so a drift of the host's speed weighs on both sides alike.  Every run lasts
``SECONDS``, the run length ``BENCHMARK.json`` fixes.  The record's
``parent_commit`` is read from the parent tree with git, and is null when
that tree is not a git checkout.  A pair reads
the last line of each run's standard output (the JSON result) and the
provenance from the run's ``.bench_out/result-*.json``.

The output holds, per workload and side, the median and quartiles of
``run_s``, ``setup_s`` and ``peak_rss_mb`` over the pairs and the share of
operations that passed; the change of each median in percent and the
number of pairs in which the change read lower; and whether the workload's
outputs (``student_val_accuracy``, ``student_flops``, ``train_flops``) were
equal in every pair; and, for each of ``run_s``, ``setup_s`` and
``peak_rss_mb``, ``<metric>_gain_holds``, whether the pairs show a gain in
that metric: the change read lower in at least nine tenths of them (ties
count for neither side) and its median sits below the parent's by more than
the parent's interquartile range.  Every run is listed under ``runs``.  Only
the standard library is used.

Both sides must run the same benchmark: the tool exits 2 with one line,
before any run, when the sha256 digests of the two trees' ``bench/`` files
and ``BENCHMARK.json`` differ.  The digest is recorded under ``method``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

TIMED = ("run_s", "setup_s", "peak_rss_mb")
OUTPUTS = ("student_val_accuracy", "student_flops", "train_flops")
SIDES = ("parent", "change")
SECONDS = 30  # every run's length, BENCHMARK.json's run_seconds


def command(workload: str, seed: int) -> list[str]:
    return [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0"]


def tree_commit(tree: Path) -> str | None:
    """The short hash of the commit checked out at the top of ``tree``, or None
    when ``tree`` is not the top of a git checkout (say, a ``git archive``
    copy).  Uncommitted edits in the checkout are not seen."""
    try:
        done = subprocess.run(["git", "-C", str(tree), "rev-parse", "--show-toplevel", "--short",
                               "HEAD"], capture_output=True, text=True)
    except OSError:  # no git
        return None
    lines = done.stdout.split()
    if done.returncode or len(lines) != 2 or Path(lines[0]).resolve() != tree.resolve():
        return None
    return lines[1]


def bench_digest(tree: Path) -> str:
    """The sha256 over ``BENCHMARK.json`` and the files under ``bench/``, in
    sorted path order, each path hashed with its contents; ``__pycache__``
    is left out."""
    files = [tree / "BENCHMARK.json"] + sorted(
        p for p in (tree / "bench").rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.relative_to(tree).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def parse_result(stdout: str) -> dict:
    """The metric values of one run's JSON result line, the last of ``stdout``."""
    result = json.loads(stdout.strip().splitlines()[-1])
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    return {**values, "attempted": result["attempted"], "failed": result["failed"]}


def run_one(tree: Path, workload: str, seed: int) -> tuple[dict, dict]:
    """One benchmark run in ``tree``: its metric values and its provenance."""
    done = subprocess.run(command(workload, seed), cwd=tree, capture_output=True,
                          text=True, check=True)
    report = tree / ".bench_out" / f"result-{workload}-seed{seed}-trace0.json"
    return parse_result(done.stdout), json.loads(report.read_text())["provenance"]


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def summarize(runs: list[dict]) -> dict:
    """Per-workload statistics over the pairs in ``runs`` (see the module docstring)."""
    out = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        pairs: dict[int, dict] = {}
        for run in runs:
            if run["workload"] == workload:
                pairs.setdefault(run["pair"], {})[run["side"]] = run
        pairs = {i: p for i, p in sorted(pairs.items()) if len(p) == 2}
        entry: dict = {"pairs": len(pairs)}
        for side in SIDES:
            sided = [p[side] for p in pairs.values()]
            entry[side] = {name: quartiles([r[name] for r in sided]) for name in TIMED}
            attempted = sum(r["attempted"] for r in sided)
            entry[side]["ok_ratio"] = (attempted - sum(r["failed"] for r in sided)) / attempted
        for name in TIMED:
            parent, change = entry["parent"][name], entry["change"][name]
            entry[f"{name}_change_pct"] = round(
                100 * (change["median"] - parent["median"]) / parent["median"], 2)
            lower_in = sum(p["change"][name] < p["parent"][name] for p in pairs.values())
            entry[f"{name}_change_lower_in"] = lower_in
            entry[f"{name}_gain_holds"] = (10 * lower_in >= 9 * len(pairs)
                                           and parent["median"] - change["median"]
                                           > parent["q3"] - parent["q1"])
        entry["outputs_equal_in_every_pair"] = all(
            p["parent"][k] == p["change"][k] for p in pairs.values() for k in OUTPUTS)
        out[workload] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent source tree")
    parser.add_argument("--change", type=Path, required=True, help="changed source tree")
    parser.add_argument("--tag", required=True,
                        help="names the output, BENCH_<tag>.json in the working directory")
    parser.add_argument("--change-note", default="", help="one line on what the change does")
    parser.add_argument("--seeds", type=int, nargs="+", required=True, help="one pair per seed")
    parser.add_argument("--workloads", nargs="+", default=["dense", "mixed", "layers"])
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two pairs")
    digest = bench_digest(args.parent)
    if bench_digest(args.change) != digest:
        print("bench_pairs: the two trees' bench/ files or BENCHMARK.json differ; "
              "both sides must run the same benchmark", file=sys.stderr)
        return 2

    runs, provenance, parent_commit = [], None, tree_commit(args.parent)
    for workload in args.workloads:
        for pair, seed in enumerate(args.seeds):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                tree = args.parent if side == "parent" else args.change
                values, provenance = run_one(tree.resolve(), workload, seed)
                runs.append({"workload": workload, "pair": pair, "seed": seed, "side": side,
                             **values})
                print(f"{workload} pair {pair} seed {seed} {side}: run_s {values['run_s']:.6g}",
                      file=sys.stderr, flush=True)
    body = {
        "tag": args.tag,
        "change": args.change_note,
        "parent_commit": parent_commit,
        "method": {
            "command": "python3 bench/run.py --workload <w> --seed <s> "
                       f"--seconds {SECONDS} --trace 0",
            "pairs_per_workload": len(args.seeds),
            "order": "alternating: parent first in even pairs, change first in odd pairs",
            "seeds": args.seeds,
            "bench_sha256": digest,
            "note": "setup_s and run_s are medians over one run's operations, host-speed "
                    "rescaled by bench/run.py; the stats below are over the pairs",
        },
        "provenance": provenance,
        "workloads": summarize(runs),
        "runs": runs,
    }
    Path(f"BENCH_{args.tag}.json").write_text(json.dumps(body, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
