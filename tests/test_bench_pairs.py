"""The paired-benchmark tool on canned output of the benchmark runner; no
benchmark runs here."""
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _output(op_s: float, attempted: int = 100, failed: int = 0,
            calibration: float = 0.031) -> str:
    """What the runner prints for one verify-warm run, readable lines first
    and the result line last."""
    metrics = {"setup_s": {"value": 0.42, "unit": "s"},
               "op_s_p50": {"value": op_s, "unit": "s"},
               "peak_rss_mb": {"value": 66.8, "unit": "MB"}}
    return "\n".join([
        "mockmod benchmark: workload=verify-warm seed=3101 seconds=40 trace=0",
        "provenance: commit=unknown python=3.11.7 numpy=2.4.6 nproc=2"
        f" calibration_s={calibration}",
        "fingerprint_match (seed 2026, information only): false",
        f"suite_s_p50    {op_s:.6g} s (n={attempted})",
        json.dumps({"correct": failed == 0, "attempted": attempted,
                    "failed": failed, "metrics": metrics}),
    ]) + "\n"


def test_a_run_is_read_from_its_result_and_provenance_lines():
    run = _tool().parse_run(_output(0.0361, attempted=412, calibration=0.0287))
    assert run == {"metrics": {"setup_s": 0.42, "op_s_p50": 0.0361,
                               "peak_rss_mb": 66.8},
                   "attempted": 412, "failed": 0, "correct": True,
                   "calibration_s": 0.0287}


def test_pairs_summarize_each_side_and_the_comparison():
    tool = _tool()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent = [0.040, 0.036, 0.038, 0.050, 0.037]
    change = [0.030, 0.031, 0.039, 0.029, 0.030]
    pairs = [(tool.parse_run(_output(p)), tool.parse_run(_output(c, failed=1)))
             for p, c in zip(parent, change)]
    block = tool.summarize(pairs, bench["end_to_end"])
    assert block["pairs"] == 5 and len(block["runs"]) == 5
    assert block["attempted_ops"] == {"parent": 500, "change": 500}
    assert block["failed_ops"] == {"parent": 0, "change": 5}
    assert block["correct"] is False
    op = block["metrics"]["op_s_p50"]
    assert op["unit"] == "s" and op["bound"] == 0.25
    assert op["parent"]["runs"] == parent
    # sorted parent: 0.036 0.037 0.038 0.040 0.050
    assert op["parent"]["median"] == 0.038
    assert op["parent"]["q1"] == pytest.approx(0.037)
    assert op["parent"]["q3"] == pytest.approx(0.040)
    assert (op["parent"]["min"], op["parent"]["max"]) == (0.036, 0.050)
    assert op["change"]["median"] == 0.030
    # lower is better: the change wins every pair but the third
    assert op["change_better_pairs"] == 4
    assert op["median_change"] == pytest.approx(0.030 / 0.038 - 1.0)
    # equal values are not a win
    assert block["metrics"]["setup_s"]["change_better_pairs"] == 0
