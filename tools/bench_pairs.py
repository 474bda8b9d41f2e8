"""Paired benchmark runs of a parent ref against the working tree.

    python3 tools/bench_pairs.py --parent c0da100 --out BENCH_31.json

Exports the parent ref with ``git archive`` into a temporary directory,
then for each workload of ``BENCHMARK.json`` runs the unmodified

    python3 perfbench/run.py --workload W --seconds S --seed SEED

at its ``run_seconds`` S, there and in the working tree, alternately: the
parent first in odd-numbered pairs (1-based), the change first in even
ones, pair i at seed ``--seed`` + i, ``--pairs`` pairs (10 by default, as
many as a claimed gain is judged on).  Every run keeps its end-to-end metrics, its
attempted and failed operation counts and the ``calibration_s`` of its
provenance line.  Per metric of ``BENCHMARK.json``, each side gets its
median, quartiles and range, and the comparison the pairs in which the
change is better and the relative change of the medians.  Writes one JSON
file.  Run from the repository root; nothing of the package is imported.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMAND = "python3 perfbench/run.py --workload {workload} --seconds {seconds} --seed {seed}"


def parse_run(output: str) -> dict:
    """One run from the lines ``perfbench/run.py`` prints: the result line
    (the last line that is a JSON object) and the provenance line."""
    lines = output.strip().splitlines()
    result = next(json.loads(line) for line in reversed(lines)
                  if line.startswith("{"))
    provenance = next(line for line in lines if line.startswith("provenance: "))
    fields = dict(item.split("=", 1)
                  for item in provenance[len("provenance: "):].split())
    return {"metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"],
            "correct": result["correct"],
            "calibration_s": float(fields["calibration_s"])}


def side(values: list) -> dict:
    """Median, quartiles (inclusive method), range and runs of one side."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "runs": list(values)}


def summarize(pairs: list, end_to_end: list) -> dict:
    """A workload's block from its (parent, change) pairs of parsed runs;
    ``end_to_end`` is the metric list of ``BENCHMARK.json``."""
    out = {
        "pairs": len(pairs),
        "runs": [{"parent": p, "change": c} for p, c in pairs],
        "attempted_ops": {name: sum(pair[i]["attempted"] for pair in pairs)
                          for i, name in enumerate(("parent", "change"))},
        "failed_ops": {name: sum(pair[i]["failed"] for pair in pairs)
                       for i, name in enumerate(("parent", "change"))},
        "correct": all(run["correct"] for pair in pairs for run in pair),
        "metrics": {},
    }
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        parent = [p["metrics"][name] for p, _ in pairs]
        change = [c["metrics"][name] for _, c in pairs]
        a, b = side(parent), side(change)
        out["metrics"][name] = {
            "unit": spec["unit"], "bound": spec["bound"], "parent": a,
            "change": b,
            "change_better_pairs": sum((c < p) if lower else (c > p)
                                       for p, c in zip(parent, change)),
            "median_change": b["median"] / a["median"] - 1.0,
        }
    return out


def run_once(checkout: Path, workload: str, seconds: float, seed: int) -> dict:
    command = COMMAND.format(workload=workload, seconds=f"{seconds:g}", seed=seed)
    done = subprocess.run(command.split(), cwd=checkout, capture_output=True,
                          text=True, timeout=30 * 60)
    if done.returncode:
        raise RuntimeError(f"{command} in {checkout} exited {done.returncode}:"
                           f" {done.stderr.strip()[-2000:]}")
    return parse_run(done.stdout)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="git ref of the parent")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=3100,
                    help="pair i runs at this seed + i")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    seconds = bench["run_seconds"]
    commit = subprocess.run(["git", "rev-parse", "--short", args.parent],
                            cwd=ROOT, capture_output=True, text=True,
                            check=True).stdout.strip()
    doc = {"command": COMMAND.format(workload="W", seconds=f"{seconds:g}",
                                     seed="S")
           + f" (unmodified), in a git archive of the parent ({commit}) and"
             " in the working tree of the change, alternately: parent first"
             " in odd-numbered pairs (1-based), change first in even ones;"
             f" pair i at seed {args.seed} + i",
           "host": f"{os.cpu_count()} CPUs, {platform.machine()},"
                   f" Python {platform.python_version()}",
           "parent": commit, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent = Path(tmp)
        archive = subprocess.run(["git", "archive", commit], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive,
                       check=True)
        for workload in (w["name"] for w in bench["workloads"]):
            pairs = []
            for i in range(1, args.pairs + 1):
                seed = args.seed + i
                order = [parent, ROOT] if i % 2 else [ROOT, parent]
                runs = {where: run_once(where, workload, seconds, seed)
                        for where in order}
                pairs.append((runs[parent], runs[ROOT]))
                print(f"{workload} pair {i}/{args.pairs} seed {seed}: "
                      + " ".join(f"{name} {runs[parent]['metrics'][name]:.4g}"
                                 f"->{runs[ROOT]['metrics'][name]:.4g}"
                                 for name in runs[ROOT]["metrics"]),
                      flush=True)
            block = summarize(pairs, bench["end_to_end"])
            block["seeds"] = [args.seed + i for i in range(1, args.pairs + 1)]
            doc["workloads"][workload] = block
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
