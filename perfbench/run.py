"""Benchmark for mockmod: warm catalog runs and exact expansions.

    python3 perfbench/run.py --workload verify-warm --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root; the package is imported from ``src``.
Every workload is a closed loop with one client: one worker process at a
time, each with at most two threads (the catalog runs serially under
``MOCKMOD_WORKERS=1``; BLAS pools are pinned to one thread).  The seed
only chooses inputs: catalog seeds and expansion plans are drawn from it,
and the program sees nothing else of it.

Workloads
  verify-warm   Long-lived processes: an untimed catalog run fills the
                caches, then each operation is a full default catalog run
                (trunc 120, jet_order 13, f64) at the next seed.  Exact
                series come from cache, so the time is the numeric layers';
                set-up (import plus the cold warm-up run) is what
                ``mockmod verify all`` costs a CI job, exact series
                construction included.  The first operation of each process
                repeats the warm-up seed and must reproduce its cold report
                fingerprint.  The last process then runs the default seed
                and compares with the committed golden fingerprint
                (``fingerprint_match``, information only).
  exact-expand  Each operation is one round: every exact expansion built
                and serialised with ``to_json_dict`` (the ``mockmod
                expand`` path) at a truncation T in 120..240 and at its
                mirror image 360 - T: eta, P, E2, rank moments l = 1..3,
                Joyce k = 2, 4, 6, the four theta nulls and the assembled
                rank plus-part l = 1..3.  Every expansion starts from empty
                caches, as in a fresh ``mockmod expand`` process, so every
                rank moment and plus-part builds its own rank table.  No
                numeric layer runs.

Both workloads split the run over several processes, so that set-up is
measured several times: VERIFY_PROCESSES for verify-warm, and for
exact-expand as many processes of EXPAND_ROUNDS rounds as the time needs.

Output: readable lines (provenance, every metric with its sample count),
then one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones:

  setup_s      median set-up: interpreter start and ``import mockmod``,
               plus the warm-up run on verify-warm
  op_s_p50     median operation time: ``suite_s_p50`` on verify-warm,
               ``expand_s_p50`` (one round) on exact-expand
  peak_rss_mb  largest peak resident set of the worker processes

With ``--trace 1`` a traced run alternates traced and untraced
operations and reports per-layer metrics (see ``per_layer_metrics``) per
traced operation, and the tracing overhead.  The 90th percentiles,
``failed_frac`` and ``coeffs_per_s`` are printed on the readable lines;
the result line carries the failure count itself.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
from worker import (EXPAND_OBJECTS, EXPAND_TRUNCS, EXPECTED_CHECKS,  # noqa: E402
                    GOLDEN_SEED)

WORKLOADS = ("verify-warm", "exact-expand")
VERIFY_PROCESSES = 4
EXPAND_ROUNDS = 2  # per process
RUN_LIMIT_S = 170.0  # the whole run, set-ups and checks included
LAYERS = ("core", "exactq", "special", "jets", "appell", "rank", "joyce")
END_TO_END_UNITS = {"setup_s": "s", "op_s_p50": "s", "peak_rss_mb": "MB"}

# Where each object's truncation sits in a round, as a share of the range.
# The costly objects are spread over the range so that a round's
# expansions do not all grow at once; the cheap ones keep their place in
# EXPAND_OBJECTS.
EXPAND_PHASE = {
    **{name: i / len(EXPAND_OBJECTS) for i, name in enumerate(EXPAND_OBJECTS)},
    "rank-plus-3": 0.0, "rank-plus-2": 1 / 3, "rank-plus-1": 2 / 3,
    "eta": 1 / 2, "rank-moment-1": 1 / 6, "rank-moment-2": 5 / 12,
    "rank-moment-3": 5 / 6}


class BenchError(RuntimeError):
    """The benchmark could not measure (not a failed operation)."""


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def catalog_seeds(seed: int, count: int = 1000) -> list:
    rng = random.Random(f"verify:{seed}")
    return [rng.randrange(2 ** 31) for _ in range(count)]


def van_der_corput(k: int) -> float:
    """k-th point of the base-2 van der Corput sequence in [0, 1)."""
    x, scale = 0.0, 0.5
    while k:
        x += (k & 1) * scale
        k >>= 1
        scale /= 2
    return x


def expand_plan(seed: int, process: int) -> list:
    """EXPAND_ROUNDS rounds of [object, T] pairs, each round every object
    at a truncation T and at its mirror image 120 + 240 - T, in a seeded
    order.  Round k of process p places each object at phase EXPAND_PHASE
    + rotation + van der Corput(p * EXPAND_ROUNDS + k) in the range, with
    the rotation drawn once from the seed.  An expansion's cost grows
    about linearly with T over the range, so a mirrored pair, and so a
    round, costs about the same wherever it falls: the median round time
    does not hinge on the seed's draws."""
    lo, hi = EXPAND_TRUNCS[0], EXPAND_TRUNCS[-1]
    rotation = random.Random(f"expand:{seed}").random()
    rng = random.Random(f"expand:{seed}:{process}")
    rounds = []
    for k in range(EXPAND_ROUNDS):
        shift = rotation + van_der_corput(process * EXPAND_ROUNDS + k)
        batch = []
        for name in EXPAND_OBJECTS:
            t = lo + int((EXPAND_PHASE[name] + shift) % 1.0 * len(EXPAND_TRUNCS))
            batch += [[name, t], [name, lo + hi - t]]
        rng.shuffle(batch)
        rounds.append(batch)
    return rounds


# ---------------------------------------------------------------------------
# worker processes
# ---------------------------------------------------------------------------


class Run:
    """Worker results, set-up times and the run's time limit."""

    def __init__(self) -> None:
        self.deadline = perf_counter() + RUN_LIMIT_S
        self.setups: list = []
        self.results: list = []
        self.crashes: list = []
        self.longest = 0.0

    def time_left(self) -> bool:
        """Whether another worker of the longest kind seen still fits."""
        return self.deadline - perf_counter() > max(20.0, 2.0 * self.longest)

    def spawn(self, spec: dict) -> dict | None:
        """Run one worker; returns its result, or None if it crashed."""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   MOCKMOD_WORKERS="1", OMP_NUM_THREADS="1",
                   OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
        try:
            if read_line(proc, self.deadline) == "ready":
                self.setups.append(perf_counter() - start)
            out, _ = proc.communicate(
                timeout=max(1.0, self.deadline - perf_counter()))
        except (subprocess.TimeoutExpired, TimeoutError):
            out = ""
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        self.longest = max(self.longest, perf_counter() - start)
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines or not lines[-1].startswith("result "):
            self.crashes.append(f"worker exited with code {proc.returncode}")
            return None
        result = json.loads(lines[-1][len("result "):])
        self.results.append(result)
        return result


def read_line(proc, deadline: float) -> str:
    ready, _, _ = select.select([proc.stdout], [], [],
                                max(0.0, deadline - perf_counter()))
    if not ready:
        raise TimeoutError("worker did not finish set-up in time")
    return proc.stdout.readline().strip()


def run_verify_warm(run: Run, seed: int, seconds: float, trace: int,
                    processes: int) -> None:
    seeds = catalog_seeds(seed)
    index = 0
    for p in range(processes):
        if p and not run.time_left():
            break
        result = run.spawn({
            "mode": "verify", "seeds": seeds[index:index + 100],
            "first_index": index, "trace": trace,
            "budget": seconds / processes,
            # a traced run needs a traced and an untraced operation
            "min_ops": 1 + trace if processes == 1 else 1,
            "golden": p == processes - 1})
        index += len(result["ops"]) if result else 1


def run_exact_expand(run: Run, seed: int, seconds: float, trace: int) -> None:
    """Processes of EXPAND_ROUNDS rounds each, until their rounds took
    ``seconds``; at least one process."""
    busy = 0.0
    p = 0
    while p == 0 or (busy < seconds and run.time_left()):
        result = run.spawn({"mode": "expand", "plan": expand_plan(seed, p),
                            "first_index": p * EXPAND_ROUNDS, "trace": trace})
        p += 1
        if result is None:
            break
        busy += result["busy_s"]


def check_expansions(ops: list) -> None:
    """Add oracle and digest mismatches to each exact-expand round."""
    digests = json.loads(oracles.DIGESTS_PATH.read_text())
    for op in ops:
        for rec in op["expansions"]:
            if "digest" not in rec:  # raised, already a problem
                continue
            key = f"{rec['object']}:{rec['T']}"
            if digests.get(key) != rec["digest"]:
                op["problems"].append(f"{key}: digest {rec['digest']} differs"
                                      f" from the committed {digests.get(key)}")
            op["problems"] += oracles.prefix_problems(
                rec["object"], rec["T"], rec["den"], rec["offset"], rec["prefix"])


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def p90(values: list) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def merged_trace(results: list) -> dict:
    layers = {layer: [0, 0.0, 0] for layer in LAYERS + ("harness",)}
    functions: dict = {}
    counts: dict = {}
    cache: dict = {}
    for result in results:
        trace = result["trace"]
        for layer, vals in trace["layers"].items():
            layers[layer] = [a + b for a, b in zip(layers[layer], vals)]
        for key, vals in trace["functions"].items():
            functions[key] = [a + b for a, b in zip(functions.get(key, [0, 0.0]), vals)]
        for key, val in trace["counts"].items():
            counts[key] = counts.get(key, 0) + val
        for layer, vals in trace["cache"].items():
            cache[layer] = [a + b for a, b in zip(cache.get(layer, [0, 0]), vals)]
    return {"layers": layers, "functions": functions, "counts": counts,
            "cache": cache}


def per_layer_metrics(results: list, ops: list) -> dict:
    """name -> (value, unit); counts and times are per traced operation."""
    trace = merged_trace(results)
    timed = [op for op in ops if op["seconds"] is not None]
    traced = [op["seconds"] for op in timed if op["traced"]]
    plain = [op["seconds"] for op in timed if not op["traced"]]
    n = max(1, len(traced))
    fn = trace["functions"]
    counts = trace["counts"]

    def calls(key):
        return fn.get(key, [0, 0.0])[0] / n, "1/op"

    def seconds(key):
        return fn.get(key, [0, 0.0])[1] / n, "s/op"

    def hit_ratio(layer):
        hits, misses = trace["cache"].get(layer, [0, 0])
        return ratio(hits, hits + misses), "ratio"

    out = {}
    for layer in LAYERS:
        boundary_calls, self_s, errors = trace["layers"][layer]
        out[f"{layer}.calls"] = (boundary_calls / n, "1/op")
        out[f"{layer}.self_s"] = (self_s / n, "s/op")
        out[f"{layer}.domain_errors"] = (errors / n, "1/op")
    out["jets.mul_calls"] = calls("jets.Jet.__mul__")
    out["jets.mul_s"] = seconds("jets.Jet.__mul__")
    out["jets.S_jet_s"] = seconds("jets.zwegers_S_jet")
    out["special.eval_qseries_s"] = seconds("special.eval_qseries")
    out["special.eval_qseries_useful_ratio"] = (
        ratio(counts.get("eval_qseries_nonzero", 0),
              counts.get("eval_qseries_stored", 0)), "ratio")
    out["special.period_integral_s"] = seconds("special.period_integral")
    out["exactq.qseries_mul_calls"] = calls("exactq.QSeries.__mul__")
    out["exactq.qseries_mul_s"] = seconds("exactq.QSeries.__mul__")
    out["exactq.qseries_mul_products"] = (
        counts.get("qseries_mul_products", 0) / n, "1/op")
    out["exactq.rank_table_s"] = seconds("exactq.rank_table")
    out["exactq.cache_hit_ratio"] = hit_ratio("exactq")
    out["rank.series_cache_hit_ratio"] = hit_ratio("rank")
    out["joyce.series_cache_hit_ratio"] = hit_ratio("joyce")
    evaluated = sum(op.get("evaluated", 0) for op in ops)
    skipped = sum(op.get("skipped", 0) for op in ops)
    out["rank.useful_ratio"] = (ratio(evaluated, evaluated + skipped), "ratio")
    out["harness.self_s"] = (trace["layers"]["harness"][1] / n, "s/op")
    for check_id in EXPECTED_CHECKS:
        out[f"harness.check_s.{check_id}"] = seconds(f"check:{check_id}")
    overhead = statistics.median(traced) - statistics.median(plain) \
        if traced and plain else 0.0
    out["trace.overhead_s"] = (overhead, "s")
    return out


def measure(workload: str, seed: int, seconds: float, trace: int,
            processes: int = VERIFY_PROCESSES) -> dict:
    run = Run()
    if workload == "verify-warm":
        run_verify_warm(run, seed, seconds, trace, processes)
    else:
        run_exact_expand(run, seed, seconds, trace)
    ops = [op for result in run.results for op in result["ops"]]
    if workload == "exact-expand":
        check_expansions(ops)
    # failed operations keep their time; only a raised one has none
    times = [op["seconds"] for op in ops
             if not op["traced"] and op["seconds"] is not None]
    if not times or not run.setups:
        raise BenchError(f"{workload}: no operation completed; "
                         + "; ".join(run.crashes[:3]))
    attempted = len(ops) + len(run.crashes)
    failures = run.crashes + [p for op in ops for p in op["problems"]]
    failed = len(run.crashes) + sum(1 for op in ops if op["problems"])
    rss_mb = max(r["maxrss_kb"] for r in run.results) / 1024.0

    prefix = "expand" if workload == "exact-expand" else "suite"
    detail = {
        "setup_s": (statistics.median(run.setups), "s", len(run.setups)),
        f"{prefix}_s_p50": (statistics.median(times), "s", len(times)),
        f"{prefix}_s_p90": (p90(times), "s", len(times)),
        "failed_frac": (failed / attempted, "ratio", attempted),
        "peak_rss_mb": (rss_mb, "MB", len(run.results)),
    }
    if workload == "exact-expand":
        produced = sum(rec.get("nonzero", 0) for op in ops if not op["traced"]
                       for rec in op["expansions"])
        detail["coeffs_per_s"] = (produced / sum(times), "1/s", len(times))

    if trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u)
                   in per_layer_metrics(run.results, ops).items()}
    else:
        e2e = {"setup_s": detail["setup_s"][0],
               "op_s_p50": detail[f"{prefix}_s_p50"][0],
               "peak_rss_mb": rss_mb}
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]}
                   for name, v in e2e.items()}
    matches = [r["fingerprint_match"] for r in run.results
               if "fingerprint_match" in r]
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "provenance": provenance(run.results[0]["versions"]),
        "fingerprint_match": matches[0] if matches else None,
        "detail": {k: {"value": v, "unit": u, "samples": n}
                   for k, (v, u, n) in detail.items()},
        "failures": failures,
        "result": {"correct": failed == 0, "attempted": attempted,
                   "failed": failed, "metrics": metrics},
    }


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def calibration_s() -> float:
    """Median time of a fixed pure-Python loop: tells a slow machine from
    slow code.  Not a metric."""
    times = []
    for _ in range(3):
        start = perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append(perf_counter() - start)
    return statistics.median(times)


def provenance(versions: dict) -> dict:
    return {"commit": git_commit(), **versions, "nproc": os.cpu_count(),
            "calibration_s": calibration_s()}


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def print_report(report: dict) -> None:
    print(f"mockmod benchmark: workload={report['workload']} seed={report['seed']}"
          f" seconds={report['seconds']} trace={report['trace']}")
    print("provenance: " + " ".join(f"{k}={v}" for k, v in report["provenance"].items()))
    if report["fingerprint_match"] is not None:
        print(f"fingerprint_match (seed {GOLDEN_SEED}, information only):"
              f" {str(report['fingerprint_match']).lower()}")
    for name, m in report["detail"].items():
        print(f"{name:<14} {m['value']:.6g} {m['unit']} (n={m['samples']})")
    if report["trace"]:
        for name, m in report["result"]["metrics"].items():
            print(f"{name:<46} {m['value']:.6g} {m['unit']}")
    for problem in report["failures"][:20]:
        print(f"FAILED: {problem}", file=sys.stderr)


def smoke() -> int:
    """Every workload at a tiny size in both modes; asserts that every
    metric BENCHMARK.json names, and every readable-line metric, appears
    with its unit."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    missing = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            report = measure(workload, seed=1, seconds=0.0, trace=trace,
                             processes=1)
            got = {k: m["unit"] for k, m in report["result"]["metrics"].items()}
            got.update((k, m["unit"]) for k, m in report["detail"].items())
            need = dict(wanted[trace], setup_s="s", failed_frac="ratio",
                        peak_rss_mb="MB")
            if workload == "exact-expand":
                need.update(expand_s_p50="s", expand_s_p90="s",
                            coeffs_per_s="1/s")
            else:
                need.update(suite_s_p50="s", suite_s_p90="s")
            missing += [f"{workload} trace={trace}: {name} [{unit}]"
                        for name, unit in need.items() if got.get(name) != unit]
            if not report["result"]["correct"]:
                missing.append(f"{workload} trace={trace}: "
                               + "; ".join(report["failures"][:3]))
            if workload == "verify-warm" and report["fingerprint_match"] is None:
                missing.append(f"{workload} trace={trace}: no fingerprint_match")
            print(f"smoke {workload} trace={trace}: {len(got)} metrics,"
                  f" fingerprint_match={report['fingerprint_match']}")
    for line in missing:
        print(f"smoke: missing or failed: {line}", file=sys.stderr)
    print("smoke: " + ("FAILED" if missing else "ok"))
    return 1 if missing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run of every workload; checks the metric names")
    args = parser.parse_args(argv)
    # a terminated run still stops its worker (``Run.spawn``'s finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "mockmod" / "__init__.py").is_file():
        print(f"mockmod sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        report = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print_report(report)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
