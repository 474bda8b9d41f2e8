import importlib.util
import json
from pathlib import Path

from mockmod import SuiteConfig, run_suite

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "residual_ledger.py"


def _ledger_module():
    spec = importlib.util.spec_from_file_location("residual_ledger", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ledger_rows_equal_report_residuals():
    tool = _ledger_module()
    seeds = [1, 2026]
    rows = tool.ledger(seeds)
    # the committed ledger, its floats written by repr: a change that moves
    # a residual regenerates it
    committed = json.loads((ROOT / "RESIDUALS.json").read_text())["checks"]
    for seed in seeds:
        reports, code = run_suite(SuiteConfig(seed=seed))
        assert code == 0
        got = {r.check_id: r.residual for r in reports}
        for ledger_rows in (rows, committed):
            assert got == {c: row["residuals"][str(seed)]
                           for c, row in ledger_rows.items()}
    for check, row in rows.items():
        assert row["worst"] == max(row["residuals"].values())
        assert row["residuals"][str(row["worst_seed"])] == row["worst"]
        assert row["failed_seeds"] == []
        if row["tolerance"]:
            assert row["margin"] == row["worst"] / row["tolerance"]
    assert rows["rank.transform"]["cases"] == 2 * 3 * 3 * 12
    # an exact check counts its entries; one that counts nothing has no
    # count, not a zero that reads as a vacuous pass
    assert rows["exact.rank-table"]["cases"] == 2 * 239
    for check in ("bracket-coefficients", "rank-specialize", "theta-blocks",
                  "triple-product"):
        assert rows[f"exact.{check}"]["cases"] is None
        assert committed[f"exact.{check}"]["cases"] is None


def test_ledger_compares_two_runs():
    tool = _ledger_module()
    assert tool.parse_seeds("0-3,7,9-10") == [0, 1, 2, 3, 7, 9, 10]
    assert tool.seed_ranges(["10", "0", "1", "2", "7"]) == "0-2,7,10"
    new = {"a.law": {"worst": 4e-12, "residuals": {"1": 4e-12, "2": 1e-13}}}
    old = {"a.law": {"worst": 2e-12, "residuals": {"1": 2e-12, "2": 1e-13}}}
    (line,) = tool.moves(new, old)
    assert line.split() == ["a.law", "2.000e-12", "->", "4.000e-12", "(2x);",
                            "moved", "at", "1", "seeds:", "1"]


def test_against_fails_on_a_check_whose_worst_grew(tmp_path, capsys):
    tool = _ledger_module()
    old = {"a.law": {"worst": 1e-12}, "b.law": {"worst": 1e-12},
           "c.law": {"worst": 0.0}, "d.law": {"worst": 1e-12}}
    new = {"a.law": {"worst": 2e-12}, "b.law": {"worst": 2.1e-12},
           "c.law": {"worst": 0.0}, "d.law": {"worst": float("nan")},
           "e.law": {"worst": 1.0}}
    # exactly GROWTH_MAX times passes, more fails, a NaN worst counts as
    # grown, and a check in one ledger only is not compared
    assert tool.GROWTH_MAX == 2.0
    assert tool.grown(new, old) == ["b.law", "d.law"]
    # a canned ledger of the committed residuals at seed 1, one of them
    # shrunk below half its residual: --against lists it and exits 1
    committed = json.loads((ROOT / "RESIDUALS.json").read_text())["checks"]
    canned = {c: {"worst": row["residuals"]["1"], "residuals": {}}
              for c, row in committed.items()}
    against = tmp_path / "canned.json"
    args = ["--seeds", "1", "--out", str(tmp_path / "new.json"),
            "--against", str(against)]
    against.write_text(json.dumps({"checks": canned}))
    assert tool.main(args) == 0
    assert capsys.readouterr().out.endswith(
        "worst residual grew by more than 2x: none\n")
    canned["rank.transform"]["worst"] /= 3.0
    against.write_text(json.dumps({"checks": canned}))
    assert tool.main(args) == 1
    assert capsys.readouterr().out.endswith(
        "worst residual grew by more than 2x: rank.transform\n")
