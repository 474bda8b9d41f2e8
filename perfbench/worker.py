"""One benchmark process: imports mockmod, sets up, runs timed operations.

Run by ``run.py`` as ``python3 worker.py '<json spec>'`` with ``src`` on
``PYTHONPATH``.  The worker prints ``ready`` once its set-up is done (the
parent times set-up up to that line) and, as its last line,
``result <json>`` with one record per operation.  Everything the parent
needs to check an operation is in its record; the exact-layer oracles
run in the parent, which never imports mockmod.
"""
from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import sys
from pathlib import Path
from time import perf_counter

import oracles

HERE = Path(__file__).resolve().parent
GOLDEN_FINGERPRINT = HERE / "golden" / "fingerprint-2026.json"
GOLDEN_SEED = 2026

EXPECTED_CHECKS = (
    "appell.elliptic-shift", "appell.modular", "appell.moment-difference",
    "appell.torsion-points", "exact.bracket-coefficients",
    "exact.partition-congruences", "exact.rank-specialize", "exact.rank-table",
    "exact.theta-blocks", "exact.triple-product", "joyce.appell-limit",
    "joyce.lowering", "joyce.s-lowering", "joyce.s-routes",
    "joyce.theta-block-routes", "joyce.theta-star", "joyce.transform",
    "rank.completion-circle", "rank.completion-collapse",
    "rank.completion-routes", "rank.lowering", "rank.oddness",
    "rank.single-mode", "rank.three-halves", "rank.transform",
    "theta.e2-completed", "theta.e2-shift", "theta.elliptic",
    "theta.eta-multiplier", "theta.modular", "theta.rho-degenerate-row",
    "theta.taylor-psi", "theta.taylor-rho",
)

# Report fields that count evaluated samples; zero means a vacuous pass.
COUNT_FIELDS = ("matrices", "cases", "points", "entries")

# Exact expansions of the exact-expand workload, as ``mockmod expand``
# builds them.
THETA_KINDS = ("theta1", "theta3", "vartheta_minus", "vartheta_zero")
EXPAND_OBJECTS = (
    ("eta", "P", "E2", "rank-moment-1", "rank-moment-2", "rank-moment-3",
     "joyce-2", "joyce-4", "joyce-6")
    + THETA_KINDS
    + ("rank-plus-1", "rank-plus-2", "rank-plus-3"))
EXPAND_TRUNCS = range(120, 241)


def expand_builder(name: str):
    """Callable T -> QSeries for one exact-expand object."""
    from mockmod import exactq, rank
    from mockmod.cli import _THETA_DENS  # theta T is in units of its grid

    if name == "eta":
        return lambda t: exactq.eta_expansion(24 * t)
    if name == "P":
        return exactq.partition_series
    if name == "E2":
        return exactq.e2_expansion
    if name in THETA_KINDS:
        return lambda t: exactq.theta_q_expansion(name, _THETA_DENS[name] * t)
    kind, _, index = name.rpartition("-")
    if kind == "rank-moment":
        return lambda t: exactq.rank_moment_series(int(index), t)
    if kind == "joyce":
        return lambda t: exactq.joyce_expansion(int(index), t)
    if kind == "rank-plus":
        return lambda t: rank.rank_plus_series(int(index), t)
    raise ValueError(f"unknown expand object {name!r}")


def clear_caches() -> None:
    """Empty every ``lru_cache`` of the package, as a fresh process has
    them."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("mockmod."):
            for obj in list(vars(mod).values()):
                if callable(obj) and hasattr(obj, "cache_clear"):
                    obj.cache_clear()


def suite_problems(reports, code: int) -> list:
    """Reasons a catalog run counts as a failed operation."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    seen = {r.check_id for r in reports}
    problems += [f"missing check {c}" for c in EXPECTED_CHECKS if c not in seen]
    for r in reports:
        if not math.isfinite(r.residual):
            problems.append(f"{r.check_id}: non-finite residual {r.residual}")
        for name in COUNT_FIELDS:
            if r.params.get(name, 1) == 0:
                problems.append(f"{r.check_id}: {name}=0")
    return problems


class Worker:
    def __init__(self, spec: dict) -> None:
        import mockmod

        self.spec = spec
        self.mockmod = mockmod
        self.tracer = None
        self.cache = {}
        if spec["trace"]:
            from tracer import Tracer
            self.tracer = Tracer()

    def traced(self, index: int) -> bool:
        """Traced runs alternate traced and untraced operations, so the
        untraced ones give the overhead baseline."""
        return self.tracer is not None and index % 2 == 1

    def timed(self, traced: bool, fn, *args):
        """(result, seconds) of fn(*args), under the tracer if asked."""
        if not traced:
            start = perf_counter()
            out = fn(*args)
            return out, perf_counter() - start
        before = self.tracer.cache_counts()
        self.tracer.install()
        try:
            start = perf_counter()
            out = fn(*args)
            elapsed = perf_counter() - start
        finally:
            self.tracer.remove()
        for layer, (hits, misses) in self.tracer.cache_counts().items():
            acc = self.cache.setdefault(layer, [0, 0])
            acc[0] += hits - before[layer][0]
            acc[1] += misses - before[layer][1]
        return out, elapsed

    # -- verify-warm ---------------------------------------------------------

    def suite(self, seed: int):
        config = self.mockmod.SuiteConfig(seed=seed)
        return self.mockmod.run_suite(config)

    def run_verify(self) -> dict:
        spec = self.spec
        fingerprint = self.mockmod.report_fingerprint
        seeds = spec["seeds"]
        reports, _ = self.suite(seeds[0])
        cold = fingerprint(reports)
        ready()
        ops = []
        start = perf_counter()
        for i, seed in enumerate(seeds):
            if i >= spec["min_ops"] and perf_counter() - start >= spec["budget"]:
                break
            index = spec["first_index"] + i
            traced = self.traced(index)
            (reports, code), elapsed = self.timed(traced, self.suite, seed)
            problems = suite_problems(reports, code)
            # the first operation repeats the warm-up seed: caching must not
            # change a report
            if i == 0 and fingerprint(reports) != cold:
                problems.append(f"seed {seed}: cold and warm fingerprints differ")
            transform = next((r.params for r in reports
                              if r.check_id == "rank.transform"), {})
            ops.append({"seconds": elapsed, "traced": traced,
                        "problems": problems,
                        "evaluated": transform.get("matrices", 0),
                        "skipped": transform.get("skipped", 0)})
        out = {"ops": ops, "maxrss_kb": maxrss_kb()}
        if spec["golden"]:
            reports, _ = self.suite(GOLDEN_SEED)
            golden = json.loads(GOLDEN_FINGERPRINT.read_text())
            out["fingerprint_match"] = \
                json.loads(fingerprint(reports)) == golden
        return out

    # -- exact-expand --------------------------------------------------------

    def run_expand(self) -> dict:
        spec = self.spec
        builders = {name: expand_builder(name) for name in EXPAND_OBJECTS}
        ready()

        def expand(name: str, t: int):
            series = builders[name](t)
            return series, json.dumps(series.to_json_dict())

        ops = []
        start = perf_counter()
        for r, batch in enumerate(spec["plan"]):
            traced = self.traced(spec["first_index"] + r)
            ops.append(self.expand_round(expand, batch, traced))
        return {"ops": ops, "busy_s": perf_counter() - start,
                "maxrss_kb": maxrss_kb()}

    def expand_round(self, expand, batch: list, traced: bool) -> dict:
        """One operation: every object once, each at its own truncation.
        Its time is the sum of the expansions' times; an expansion that
        raises leaves the operation without one."""
        records = [self.expand_one(expand, name, t, traced) for name, t in batch]
        times = [record.pop("seconds") for record in records]
        return {"seconds": None if None in times else sum(times),
                "traced": traced,
                "problems": [p for record in records for p in record.pop("problems")],
                "expansions": records}

    def expand_one(self, expand, name: str, t: int, traced: bool) -> dict:
        """One expansion from empty caches, as ``mockmod expand`` runs it;
        the collector starts empty too, so no expansion pays for an earlier
        one's garbage."""
        record = {"object": name, "T": t, "problems": []}
        clear_caches()
        gc.collect()
        try:
            (series, text), record["seconds"] = self.timed(traced, expand, name, t)
        except Exception as exc:  # noqa: BLE001 - a failed operation
            record["seconds"] = None
            record["problems"].append(f"{name} T={t}: {exc!r}")
            return record
        doc = json.loads(text)
        keep = max(0, oracles.PREFIX_Q * doc["den"] - doc["offset"])
        record.update(
            nonzero=sum(1 for c in series.coeffs if c),
            digest=hashlib.sha256(text.encode()).hexdigest()[:16],
            den=doc["den"], offset=doc["offset"], prefix=doc["coeffs"][:keep])
        return record

    def run(self) -> dict:
        import numpy
        import scipy

        out = self.run_verify() if self.spec["mode"] == "verify" \
            else self.run_expand()
        out["versions"] = {"python": sys.version.split()[0],
                           "numpy": numpy.__version__,
                           "scipy": scipy.__version__}
        if self.tracer is not None:
            out["trace"] = self.tracer.snapshot()
            out["trace"]["cache"] = self.cache
        return out


def maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def ready() -> None:
    print("ready", flush=True)


def main(argv: list) -> int:
    spec = json.loads(argv[1])
    result = Worker(spec).run()
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
