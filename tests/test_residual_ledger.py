import importlib.util
from pathlib import Path

from mockmod import SuiteConfig, run_suite

TOOL = Path(__file__).resolve().parents[1] / "tools" / "residual_ledger.py"


def _ledger_module():
    spec = importlib.util.spec_from_file_location("residual_ledger", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ledger_rows_equal_report_residuals():
    tool = _ledger_module()
    seeds = [1, 2026]
    rows = tool.ledger(seeds)
    for seed in seeds:
        reports, code = run_suite(SuiteConfig(seed=seed))
        assert code == 0
        assert {r.check_id: r.residual for r in reports} \
            == {c: row["residuals"][str(seed)] for c, row in rows.items()}
    for check, row in rows.items():
        assert row["worst"] == max(row["residuals"].values())
        assert row["residuals"][str(row["worst_seed"])] == row["worst"]
        assert row["failed_seeds"] == []
        if row["tolerance"]:
            assert row["margin"] == row["worst"] / row["tolerance"]
    assert rows["rank.transform"]["cases"] == 2 * 3 * 3 * 12


def test_ledger_compares_two_runs():
    tool = _ledger_module()
    assert tool.parse_seeds("0-3,7,9-10") == [0, 1, 2, 3, 7, 9, 10]
    assert tool.seed_ranges(["10", "0", "1", "2", "7"]) == "0-2,7,10"
    new = {"a.law": {"worst": 4e-12, "residuals": {"1": 4e-12, "2": 1e-13}}}
    old = {"a.law": {"worst": 2e-12, "residuals": {"1": 2e-12, "2": 1e-13}}}
    (line,) = tool.moves(new, old)
    assert line.split() == ["a.law", "2.000e-12", "->", "4.000e-12", "(2x);",
                            "moved", "at", "1", "seeds:", "1"]
