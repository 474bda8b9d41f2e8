"""Residual ledger: the worst residual of every catalog check over a seed list.

    python3 tools/residual_ledger.py --seeds 0-39,2026 --out RESIDUALS.json
    python3 tools/residual_ledger.py --seeds 0-39,2026 --out new.json \\
        --against RESIDUALS.json

Runs the default catalog once per seed in this process and writes one row
per check: the worst residual over the seeds (NaN counts as worst), the
seed of the worst, the tolerance, the margin (worst over tolerance), the
cases evaluated over all seeds (null for a check whose report counts
none), the seeds whose report failed, and the
residual at every seed.  ``--against`` prints, per check, the ratio of
the worst residuals (this run over the other file) and the seeds whose
residual moved, then lists every check whose worst residual grew by more
than ``GROWTH_MAX`` times the other file's (a NaN worst counts as grown)
and exits 1 if there is one.  Run from the repository root; the package
is imported from ``src``.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mockmod import SuiteConfig, run_suite  # noqa: E402

# the params key a runner counts its evaluated cases under; a check whose
# report has none gets a null count, not a zero that reads as vacuous
COUNT_KEYS = ("cases", "matrices", "points", "entries")
# the growth of a check's worst residual that ``--against`` fails on
GROWTH_MAX = 2.0


def parse_seeds(text: str) -> list:
    """Seeds from a comma list of integers and ranges a-b (inclusive)."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.strip().partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def ledger(seeds) -> dict:
    """Rows keyed by check id, from one default suite per seed."""
    rows: dict = {}
    for seed in seeds:
        reports, _ = run_suite(SuiteConfig(seed=seed))
        for r in reports:
            row = rows.setdefault(r.check_id, {
                "tolerance": r.tolerance, "cases": None, "failed_seeds": [],
                "residuals": {}})
            row["residuals"][str(seed)] = r.residual
            count = next((r.params[k] for k in COUNT_KEYS if k in r.params),
                         None)
            if count is not None:
                row["cases"] = (row["cases"] or 0) + count
            if r.verdict == "fail":
                row["failed_seeds"].append(seed)
    for row in rows.values():
        res = row["residuals"]
        seed = max(res, key=lambda s: math.inf if math.isnan(res[s]) else res[s])
        row["worst"] = res[seed]
        row["worst_seed"] = int(seed)
        row["margin"] = row["worst"] / row["tolerance"] \
            if row["tolerance"] else None
    return rows


def seed_ranges(seeds) -> str:
    """Integer seeds as a comma list of runs a-b, as ``parse_seeds`` reads."""
    runs: list = []
    for s in sorted(int(x) for x in seeds):
        if runs and s == runs[-1][1] + 1:
            runs[-1][1] = s
        else:
            runs.append([s, s])
    return ",".join(f"{a}-{b}" if b > a else str(a) for a, b in runs)


def moves(new: dict, old: dict) -> list:
    """Lines of the comparison of two ledgers, one per check in both."""
    lines = []
    for check in sorted(new.keys() & old.keys()):
        a, b = new[check], old[check]
        moved = [s for s in a["residuals"]
                 if s in b["residuals"] and a["residuals"][s] != b["residuals"][s]]
        ratio = a["worst"] / b["worst"] if b["worst"] else \
            (1.0 if a["worst"] == b["worst"] else math.inf)
        lines.append(f"{check:28s} {b['worst']:.3e} -> {a['worst']:.3e}"
                     f" ({ratio:.3g}x); moved at {len(moved)} seeds"
                     + (f": {seed_ranges(moved)}" if moved else ""))
    return lines


def grown(new: dict, old: dict) -> list:
    """Checks in both ledgers whose worst residual in ``new`` is NaN or
    more than ``GROWTH_MAX`` times the worst in ``old``."""
    return sorted(c for c in new.keys() & old.keys()
                  if math.isnan(new[c]["worst"])
                  or new[c]["worst"] > GROWTH_MAX * old[c]["worst"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="0-39,2026",
                    help="comma list of seeds and inclusive ranges a-b")
    ap.add_argument("--out", default="RESIDUALS.json")
    ap.add_argument("--against", metavar="OTHER.json", default=None)
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    rows = ledger(seeds)
    with open(args.out, "w") as fh:
        json.dump({"seeds": seeds, "checks": rows}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    failed = sorted({s for row in rows.values() for s in row["failed_seeds"]})
    print(f"{len(seeds)} seeds, {len(failed)} failing"
          + (f": {failed}" if failed else ""))
    for check, row in sorted(rows.items()):
        margin = "" if row["margin"] is None else f" margin {row['margin']:.2e}"
        print(f"{check:28s} worst {row['worst']:.3e} at seed"
              f" {row['worst_seed']}{margin}")
    if args.against:
        with open(args.against) as fh:
            other = json.load(fh)["checks"]
        print(f"against {args.against}:")
        print("\n".join(moves(rows, other)))
        worse = grown(rows, other)
        print(f"worst residual grew by more than {GROWTH_MAX:g}x:"
              f" {', '.join(worse) if worse else 'none'}")
        if worse:
            return 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
