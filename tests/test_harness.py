import inspect
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mockmod import (CATALOG, CheckSpec, DomainError, QSeries, SuiteConfig,
                     coverage_table, report_fingerprint, run_suite,
                     sample_inputs)
from mockmod.core import (GEN_S, GEN_T, Report, relative_residual,
                          sample_mobius, sample_tau, sample_z)
from mockmod.harness import (adjudicated, grid, selected_specs, suite_json,
                             suite_report)
from mockmod.jets import triangle

FAST = SuiteConfig(groups=("theta", "exact"))


def test_catalog_ids_unique_and_namespaced():
    ids = [s.check_id for s in CATALOG]
    assert len(ids) == len(set(ids))
    prefixes = {i.split(".")[0] for i in ids}
    assert prefixes == {"exact", "theta", "appell", "rank", "joyce"}
    for s in CATALOG:
        assert s.law
        assert s.tolerance >= 0.0
        assert s.groups


def test_coverage_table_matches_catalog():
    rows = coverage_table()
    assert len(rows) == len(CATALOG)
    by_id = {r["check_id"]: r for r in rows}
    for s in CATALOG:
        assert by_id[s.check_id]["tolerance"] == s.tolerance


def test_group_selection():
    assert all("rank" in s.groups or "exact" in s.groups
               for s in selected_specs(SuiteConfig(groups=("rank",))))
    assert selected_specs(SuiteConfig(groups=("all",))) == list(CATALOG)
    only = SuiteConfig(groups=("all",), only=("rank.transform",))
    assert [s.check_id for s in selected_specs(only)] == ["rank.transform"]


def test_sample_inputs_deterministic():
    a = sample_inputs(42, 5)
    b = sample_inputs(42, 5)
    assert [(t.u, t.v, g.entries()) for t, g in a] \
        == [(t.u, t.v, g.entries()) for t, g in b]
    c = sample_inputs(43, 5)
    assert [(t.u, t.v) for t, _ in a] != [(t.u, t.v) for t, _ in c]


def test_fast_groups_pass_and_fingerprint_is_stable():
    r1, code1 = run_suite(FAST)
    r2, code2 = run_suite(SuiteConfig(groups=("theta", "exact")))
    assert code1 == code2 == 0
    assert report_fingerprint(r1) == report_fingerprint(r2)
    ids = [r.check_id for r in r1]
    assert ids == sorted(ids)


def test_fingerprint_ignores_runtime():
    reports, _ = run_suite(SuiteConfig(groups=("exact",)))
    fp = report_fingerprint(reports)
    for r in reports:
        r.runtime_ms += 1234
    assert report_fingerprint(reports) == fp


def test_seed_changes_random_grids():
    a, _ = run_suite(SuiteConfig(groups=("theta",), seed=1))
    b, _ = run_suite(SuiteConfig(groups=("theta",), seed=2))
    assert report_fingerprint(a) != report_fingerprint(b)


def test_crash_becomes_failed_report(monkeypatch):
    import mockmod.harness as hz

    def boom(rng, config):
        raise RuntimeError("synthetic failure")

    def fine(rng, config):
        return 0.0, {}

    fake = (
        CheckSpec("aa.boom", "always crashes", 1e-6, ("fake",), boom),
        CheckSpec("zz.fine", "always passes", 1e-6, ("fake",), fine),
    )
    monkeypatch.setattr(hz, "CATALOG", fake)
    reports, code = hz.run_suite(SuiteConfig(groups=("fake",)))
    assert code == 1
    assert reports[0].check_id == "aa.boom"
    assert reports[0].verdict == "fail"
    assert math.isinf(reports[0].residual)
    assert "RuntimeError" in reports[0].params["error"]
    assert reports[1].verdict == "pass"
    # the traceback names the raising function; it stays out of the
    # fingerprint, and a passing report carries none
    trace = reports[0].to_dict()["traceback"]
    assert "in boom" in trace and "synthetic failure" in trace
    assert "traceback" not in reports[1].to_dict()
    again, _ = hz.run_suite(SuiteConfig(groups=("fake",)))
    assert report_fingerprint(again) == report_fingerprint(reports)
    assert "traceback" not in report_fingerprint(reports)


def test_raising_law_fails_its_check(monkeypatch):
    import mockmod.harness as hz

    def law(x, tau):
        raise DomainError("outside the documented domain")

    fake = (CheckSpec("aa.law", "law raises", 1e-6, ("fake",),
                      grid(1, lambda rng, c, taus: [(0.5, tau) for tau in taus],
                           law)),)
    monkeypatch.setattr(hz, "CATALOG", fake)
    (rep,), code = hz.run_suite(SuiteConfig(groups=("fake",)))
    assert code == 1
    assert rep.verdict == "fail" and math.isinf(rep.residual)
    assert "DomainError" in rep.params["error"]


def _run_adjudicated(monkeypatch, cases) -> tuple:
    """Suite of one adjudicated grid whose cases are (stated, rival)
    residual pairs."""
    import mockmod.harness as hz

    run = adjudicated("stated", 1,
                      lambda rng, config, taus: [(*case, tau) for tau in taus
                                                 for case in cases],
                      lambda stated, rival, tau:
                      {"stated": stated, "rival": rival})
    fake = (CheckSpec("aa.adj", "documented reading wins", 1e-6, ("fake",),
                      run),)
    monkeypatch.setattr(hz, "CATALOG", fake)
    reports, code = hz.run_suite(SuiteConfig(groups=("fake",)))
    return reports[0], code


def test_adjudication_losing_documented_variant_fails(monkeypatch):
    rep, code = _run_adjudicated(monkeypatch, [(1e-7, 1e-9)])
    assert code == 1
    assert rep.verdict == "fail"
    assert rep.params["variant"] == "rival"
    assert "rival" in rep.params["error"]


def test_adjudication_without_cases_fails(monkeypatch):
    rep, code = _run_adjudicated(monkeypatch, [])
    assert code == 1
    assert rep.params["variants"] == {}
    assert rep.params["error"] == "no case evaluated"


def test_adjudication_small_separation_fails(monkeypatch):
    rep, code = _run_adjudicated(monkeypatch, [(1e-9, 5e-8)])
    assert code == 1
    assert rep.params["variant"] == "stated"
    assert rep.params["separation"] == pytest.approx(50.0)
    assert "error" in rep.params


def test_adjudication_compares_grid_worsts(monkeypatch):
    # one case alone separates the readings by only 17x; another case
    # refutes the rival, and the grid worsts are what count
    rep, code = _run_adjudicated(monkeypatch, [(1e-13, 1.7e-12), (1e-9, 1.0)])
    assert code == 0
    assert rep.residual == 1e-9
    assert rep.params["variants"] == {"stated": 1e-9, "rival": 1.0}
    assert rep.params["variant"] == "stated"
    assert rep.params["separation"] == pytest.approx(1e9)
    assert "error" not in rep.params


@pytest.mark.parametrize("factor", [2.0, -1.0])
def test_mutated_lowering_reference_fails_verify(monkeypatch, capsys, factor):
    import mockmod.rank as rk
    from mockmod.cli import main

    real = rk.lowering_reference
    monkeypatch.setattr(rk, "lowering_reference",
                        lambda *args, **kwargs: factor * real(*args, **kwargs))
    assert main(["verify", "rank", "--checks", "lowering"]) == 1
    out = capsys.readouterr().out
    assert "0/1 checks passed" in out
    if factor < 0:
        # the flipped sign makes the minus reading the computed winner
        assert "variant=conjugate_minus" in out
        assert "conjugate_minus beats" in out


def test_appell_levels_do_not_follow_the_rank_orders():
    # ells are the rank orders; the appell.* checks keep both levels
    counts = [run_suite(SuiteConfig(ells=ells, only=("appell.modular",)))[0][0]
              .params["matrices"] for ells in ((1, 2, 3), (2,))]
    assert counts[0] == counts[1] == 3 * 2 * 12


def test_tolerance_overrides():
    cfg = SuiteConfig(groups=("exact",),
                      tol_overrides={"exact.rank-table": 5.0})
    reports, _ = run_suite(cfg)
    by_id = {r.check_id: r for r in reports}
    assert by_id["exact.rank-table"].tolerance == 5.0


def test_empty_selection_is_config_error():
    reports, code = run_suite(SuiteConfig(groups=("nonexistent",)))
    assert code == 2
    assert reports == []


def test_suite_json_roundtrip(tmp_path):
    out = tmp_path / "report.json"
    cfg = SuiteConfig(groups=("exact",), output_path=str(out))
    reports, _ = run_suite(cfg)
    doc = json.loads(out.read_text())
    assert doc == suite_report(cfg, reports)
    assert doc["summary"]["failed"] == 0
    assert doc["summary"]["passed"] == len(reports)
    assert {r["check_id"] for r in doc["coverage"]} \
        == {s.check_id for s in CATALOG}
    assert json.loads(suite_json(cfg, reports)) == doc


def test_grid_loop_counts_cases_and_maxima():
    seen = []

    def cases(rng, config, taus):
        # every draw before any case; per point, row 0 is a number and
        # row 1 an array of two entries
        seen.append(list(taus))
        draws = [(rng.random(), np.array([rng.random(), rng.random()]))
                 for _ in taus]
        return [(n, x, tau) for tau, xs in zip(taus, draws)
                for n, x in enumerate(xs)]

    def residual(n, x, tau):
        return x, {str(n): x, "all": x}

    run = grid(4, cases, residual, {"fixed": [1]}, count="points",
               maxima="rows")
    _, first = run(random.Random(3), SuiteConfig())
    first["fixed"].append(2)  # a report's params never alias the catalog's
    seen.clear()
    worst, params = run(random.Random(3), SuiteConfig())
    rng = random.Random(3)
    taus = [sample_tau(rng) for _ in range(4)]
    draws = [[rng.random() for _ in range(3)] for _ in taus]
    assert seen == [taus]
    assert params["fixed"] == [1]
    # an array residual counts every entry
    assert params["points"] == 4 * (1 + 2)
    assert params["rows"] == {"0": max(d[0] for d in draws),
                              "1": max(max(d[1:]) for d in draws),
                              "all": max(max(d) for d in draws)}
    assert worst == params["rows"]["all"]


def test_grid_parts_without_key_sit_beside_params():
    run = grid(2, lambda rng, c, taus: [(x, tau) for tau in taus
                                        for x in (0.5, 0.25)],
               lambda x, tau: (x, {"gap": 2 * x}),
               lambda c: {"seed": c.seed})
    worst, params = run(random.Random(1), SuiteConfig(seed=9))
    assert worst == 0.5
    # every grid report counts its evaluated cases, under "cases" by default
    assert params == {"seed": 9, "gap": 1.0, "cases": 4}


def test_nan_residual_fails(monkeypatch):
    import mockmod.special as sp

    real = sp.eta_value
    calls = itertools.count()

    def poisoned(taus):
        # the case builder reads eta at every point and image in one call:
        # row 0 is the first point's base, row 4 its fourth image
        vals = real(taus)
        if next(calls) == 0:
            vals[4] = math.nan
        return vals

    monkeypatch.setattr(sp, "eta_value", poisoned)
    reports, code = run_suite(SuiteConfig(only=("theta.eta-multiplier",)))
    assert code == 1
    assert reports[0].verdict == "fail"
    assert math.isnan(reports[0].residual)
    assert reports[0].params["matrices"] == 3 * 12
    # one NaN entry of an array residual fails its check; a zero
    # denominator gives that NaN without a RuntimeWarning (an error here)
    residuals = relative_residual(np.array([1.0, 0.0, 2.0]),
                                  np.array([1.0 + 1e-9, 0.0, 2.0]))
    assert np.isnan(residuals).tolist() == [False, True, False]
    run = grid(2, lambda rng, c, taus: [(np.full(3, 1e-12), tau) for tau in taus]
               + [(residuals, taus[0])], lambda r, tau: r)
    worst, params = run(random.Random(1), SuiteConfig())
    assert math.isnan(worst) and params["cases"] == 9
    assert Report("aa.nan", params, worst, 1e-6).verdict == "fail"


def test_catalog_runners_take_rng_and_config():
    for spec in CATALOG:
        assert list(inspect.signature(spec.runner).parameters) \
            == ["rng", "config"], spec.check_id


@pytest.mark.parametrize("module,name,check,orders", [
    ("rank", "rank_hat_rows", "rank.transform", (1, 2, 3)),
    ("joyce", "joyce_hat_rows", "joyce.transform", (2, 4, 6)),
], ids=["rank", "joyce"])
def test_transform_cases_evaluate_each_point_once(monkeypatch, module, name,
                                                  check, orders):
    import importlib
    mod = importlib.import_module(f"mockmod.{module}")
    real = getattr(mod, name)
    calls = []

    def counted(ords, taus):
        calls.append((tuple(ords), np.shape(taus)))
        return real(ords, taus)

    monkeypatch.setattr(mod, name, counted)
    (rep,), code = run_suite(SuiteConfig(only=(check,)))
    assert code == 0
    # one call per grid that covers every order: each point and its 12
    # images together, one row of them per Joyce weight (its own matrices)
    n_taus = 3 if module == "rank" else 2
    rows = (13 * n_taus,) if module == "rank" else (len(orders), 13 * n_taus)
    assert calls == [(orders, rows)]
    assert rep.params["matrices"] == n_taus * len(orders) * 12


def _count_calls(monkeypatch, names) -> dict:
    """Counting spies on the ``(module, name)`` kernels, patched into every
    package module that binds them; returns the live counts by name."""
    import importlib
    import pkgutil

    import mockmod

    counts = dict.fromkeys((name for _, name in names), 0)
    for module, name in names:
        real = getattr(importlib.import_module(f"mockmod.{module}"), name)

        def spy(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        for info in pkgutil.iter_modules(mockmod.__path__):
            if info.name == "__main__":
                continue
            mod = importlib.import_module(f"mockmod.{info.name}")
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, spy)
    return counts


def test_warm_suite_evaluates_every_order_of_a_point_in_one_pass(monkeypatch):
    # the orders of a point share one pass of each kernel, and so do the
    # points of a transformation grid: 79 S-column passes, 34 towers and 16
    # lowering stencils when each order took its own, 51 / 18 / 8 when each
    # point of a grid did; a change that splits them again moves these
    # counts
    run_suite(SuiteConfig())
    counts = _count_calls(monkeypatch, [("jets", "zwegers_S_columns"),
                                        ("joyce", "s_nu_tower"),
                                        ("special", "lowering_numeric")])
    _, code = run_suite(SuiteConfig())
    assert code == 0
    assert counts == {"zwegers_S_columns": 41, "s_nu_tower": 16,
                      "lowering_numeric": 8}


def test_dropped_triple_product_factor_fails_the_check(monkeypatch):
    import mockmod.harness as hs

    real = hs.theta_triple_product

    def mutant(trunc):
        # divide by (1 - zeta^-1 q): row r gains row r - 8 one zeta step
        # down, which drops that factor from the product
        out = real(trunc).copy()
        for r in range(8, len(out)):
            out[r, :-2] += out[r - 8, 2:]
        return out

    monkeypatch.setattr(hs, "theta_triple_product", mutant)
    (rep,), code = run_suite(SuiteConfig(only=("exact.triple-product",)))
    assert code == 1
    assert rep.verdict == "fail" and rep.params["mismatches"] > 0


def _perfbench_module(name: str, monkeypatch):
    """A module of the benchmark directory, loaded as its runner loads it
    (with that directory on the path), without editing it."""
    import importlib.util
    from pathlib import Path

    here = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(here))
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  here / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_cached_names_are_lru_caches(monkeypatch):
    # the benchmark tracer reads cache_info of these names by layer; only
    # traced runs read them, and tier-1 never traces
    import importlib

    tracer = _perfbench_module("tracer", monkeypatch)
    assert tracer.CACHED
    for layer, names in tracer.CACHED.items():
        mod = importlib.import_module(f"mockmod.{layer}")
        for name in names:
            assert callable(getattr(getattr(mod, name), "cache_info")), name


def test_benchmark_expand_objects_resolve(monkeypatch):
    # every exact-expand object builds a series from the package's names
    worker = _perfbench_module("worker", monkeypatch)
    assert worker.EXPAND_OBJECTS
    for name in worker.EXPAND_OBJECTS:
        series = worker.expand_builder(name)(8)
        assert isinstance(series, QSeries) and series.coeffs, name


def _vanishing_by_law(check_id: str, n, entry: int) -> bool:
    """Comparisons whose two sides vanish because the law says so, measured
    against a term scale: the odd recombined rows ``n`` of the theta power;
    its rho row ten, which the degeneracy chi_10 = -(4 pi^2/3) E2 chi_8
    (theta.rho-degenerate-row) sets to 0; and the ``entry``-th triangle entry
    of the completion jet when its total degree is even outside column 0,
    which the odd part sets to 0."""
    if check_id.startswith("theta.taylor-"):
        return n % 2 == 1 or (check_id == "theta.taylor-rho" and n == 10)
    if check_id == "rank.completion-routes":
        j, k = np.argwhere(triangle(7))[entry]
        return (j + k) % 2 == 0 and k != 0
    return False


@pytest.mark.parametrize("seed", [2026, 1])
def test_no_catalog_comparison_is_vacuous(monkeypatch, seed):
    # a comparison passes whatever the law says when both sides together
    # are below the tolerance times the denominator the residual used
    import importlib
    import pkgutil

    import mockmod
    from mockmod import core, special

    real = core.relative_residual
    seen = []
    row = [None]

    def recording(lhs, rhs, *scale):
        r = real(lhs, rhs, *scale)
        # every entry of an array comparison, with the denominator the rule
        # used, read back from its residual, and the Taylor row of the entry
        rows = () if row[0] is None else (row[0],)
        entries = np.broadcast_arrays(lhs, rhs, r, *scale, *rows)
        for a, b, x, *rest in zip(*(e.ravel() for e in entries)):
            *sc, n = rest if rows else rest + [None]
            den = abs(a - b) / x if x > 0 else max(abs(a), abs(b), *sc)
            seen.append((abs(a) + abs(b), den, n))
        return r

    real_law = special.modular_law

    def law(*args, halves, **params):
        # row n of the eighth theta power has weight 4 + n
        row[0] = np.asarray(halves) // 2 - 4
        return real_law(*args, halves=halves, **params)

    monkeypatch.setattr(special, "modular_law", law)
    for info in pkgutil.iter_modules(mockmod.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module(f"mockmod.{info.name}")
        if getattr(mod, "relative_residual", None) is real:
            monkeypatch.setattr(mod, "relative_residual", recording)
    vacuous = {}
    for spec in CATALOG:
        if not spec.tolerance:
            continue
        seen.clear()
        row[0] = None
        (rep,), _ = run_suite(SuiteConfig(seed=seed, only=(spec.check_id,)))
        assert rep.verdict == "pass" and seen, spec.check_id
        # the spy read every entry of the report's count
        count = next((rep.params[k] for k in ("cases", "matrices", "points")
                      if k in rep.params), None)
        assert count is None or count <= len(seen), spec.check_id
        # rank.completion-routes compares the order-7 triangle entry by
        # entry, one triangle per point
        entries = int(triangle(7).sum())
        if spec.check_id == "rank.completion-routes":
            assert len(seen) % entries == 0
        bad = [c for i, c in enumerate(seen) if c[0] <= spec.tolerance * c[1]
               and not _vanishing_by_law(spec.check_id, c[2], i % entries)]
        if bad:
            vacuous[spec.check_id] = len(bad)
    assert vacuous == {}


# the transformation checks and the one law each goes through
TRANSFORMATION_LAWS = {
    "theta.elliptic": "elliptic_law",
    "theta.modular": "modular_law",
    "theta.eta-multiplier": "modular_law",
    "theta.e2-shift": "modular_law",
    "theta.e2-completed": "modular_law",
    "theta.taylor-psi": "modular_law",
    "theta.taylor-rho": "modular_law",
    "appell.elliptic-shift": "elliptic_law",
    "appell.modular": "modular_law",
    "appell.torsion-points": "modular_law",
    "rank.transform": "modular_law",
    "joyce.transform": "modular_law",
    "joyce.theta-star": "modular_law",
}


def test_every_transformation_check_reaches_one_of_the_two_laws(monkeypatch):
    # a counting spy on each law, patched into every module that binds it:
    # the thirteen transformation checks reach a law, and no other check does
    counts = _count_calls(monkeypatch, [("special", "modular_law"),
                                        ("special", "elliptic_law")])
    reached = {}
    for spec in CATALOG:
        counts.update(dict.fromkeys(counts, 0))
        (rep,), code = run_suite(SuiteConfig(only=(spec.check_id,)))
        assert code == 0, spec.check_id
        if any(counts.values()):
            reached[spec.check_id] = {name for name, n in counts.items() if n}
    assert reached == {check: {law}
                       for check, law in TRANSFORMATION_LAWS.items()}


def _grid_points(seed: int, n_taus: int, n_sets: int = 1) -> list:
    """``n_taus`` points as a transformation grid draws them, each with
    ``n_sets`` lists of itself and its images under T, S and ten random
    matrices."""
    rng = random.Random(seed)
    taus = [sample_tau(rng) for _ in range(n_taus)]
    return [[[tau] + [g.apply(tau) for g in
                      [GEN_T, GEN_S] + [sample_mobius(rng, tau)
                                        for _ in range(10)]]
             for _ in range(n_sets)] for tau in taus]


def _close(got, want) -> bool:
    return bool((np.abs(got - want) <= 1e-14 * np.abs(want)).all())


def test_grid_batches_equal_point_batches():
    # a transformation grid reads each kernel once over every point and
    # image: each point's rows equal its own batch to 1e-14 relative
    from mockmod import appell, jets, joyce, rank
    from mockmod.harness import APPELL_LEVELS, _gammas, _images

    sets = _grid_points(29, 3)
    points = np.concatenate([own for (own,) in sets])
    rows = rank.rank_hat_rows((1, 2, 3), points)
    taylor = jets.theta_power_taylor(8, points, 13)
    assert rows.shape == (3, 39) and taylor.shape == (39, 14)
    for i, (own,) in enumerate(sets):
        part = slice(13 * i, 13 * (i + 1))
        assert _close(rows[:, part], rank.rank_hat_rows((1, 2, 3), own))
        # the coefficients from the eighth on, which the checks read
        assert _close(taylor[part, 8:],
                      jets.theta_power_taylor(8, own, 13)[:, 8:])
    # each Joyce weight at its own points and images: a (3, 26) batch
    sets = _grid_points(30, 2, 3)
    weights = [np.concatenate([per_point[k] for per_point in sets])
               for k in range(3)]
    rows = joyce.joyce_hat_rows((2, 4, 6), weights)
    assert rows.shape == (3, 26)
    for i, own in enumerate(sets):
        assert _close(rows[:, 13 * i:13 * (i + 1)],
                      joyce.joyce_hat_rows((2, 4, 6), own))
    # every Appell level over a pair per point, read at z/J at each image
    # as appell.modular reads it; A and its completion cancel to 1/400 at
    # some images, so each value is held to the scale of its two parts
    rng = random.Random(31)
    taus = [sample_tau(rng) for _ in range(3)]
    pairs = np.array([(sample_z(rng), sample_z(rng)) for _ in taus])
    points, js, _, _ = _images([_gammas(rng, tau, 10) for tau in taus], taus)
    z1, z2 = (np.repeat(pairs[:, i], 13) / js for i in (0, 1))
    for ell in APPELL_LEVELS:
        vals = appell.appell_hat_values(ell, z1, z2, points)
        a, comp = appell.appell_columns(ell, z1, z2, points, 0)
        scale = np.abs(a[:, 0]) + 0.5 * np.abs(comp[:, 0])
        for part in (slice(13 * i, 13 * (i + 1)) for i in range(3)):
            own = appell.appell_hat_values(ell, z1[part], z2[part], points[part])
            assert (np.abs(vals[part] - own) <= 1e-14 * scale[part]).all()


def test_array_law_entries_equal_one_case_calls():
    # an array law call and its one-case calls share their arithmetic:
    # every entry is equal bit for bit, and one case is a float
    from mockmod import joyce, special

    rng = random.Random(33)
    taus = [sample_tau(rng) for _ in range(40)]
    gs = [sample_mobius(rng, tau) for tau in taus]
    base = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in taus])
    lhs = base * (1.0 + 1e-13 * np.array([rng.gauss(0, 1) for _ in taus]))
    z = np.array([sample_z(rng) for _ in taus])
    halves = np.array([rng.randint(1, 12) for _ in taus])
    scale = np.array([rng.random() for _ in taus])
    for params in ({"psi": 3, "index": special.THETA_INDEX, "z": (z,)},
                   {"psi": -1, "chi": 1j}, {"shift": -6j / math.pi},
                   {"scale": scale}, {}):
        batch = special.modular_law(gs, base, lhs, np.array(taus),
                                    halves=halves, **params)
        for i, (g, tau) in enumerate(zip(gs, taus)):
            one = {key: tuple(w[i].item() for w in val) if key == "z"
                   else val[i].item() if isinstance(val, np.ndarray) else val
                   for key, val in params.items()}
            r = special.modular_law(g, base[i].item(), lhs[i].item(), tau,
                                    halves=int(halves[i]), **one)
            assert type(r) is float and r == batch[i]
    lam, mu = (np.array([rng.randint(-2, 2) for _ in taus]) for _ in range(2))
    batch = special.elliptic_law((lam,), (mu,), (z,), base, lhs,
                                 np.array(taus), index=special.THETA_INDEX)
    for i, tau in enumerate(taus):
        r = special.elliptic_law((int(lam[i]),), (int(mu[i]),), (z[i].item(),),
                                 base[i].item(), lhs[i].item(), tau,
                                 index=special.THETA_INDEX)
        assert type(r) is float and r == batch[i]
    # the level-four law: a row of four values per matrix
    mats = [joyce.sample_gamma1_4(rng) for _ in range(6)]
    rows = base[:24].reshape(6, 4)
    images = lhs[:24].reshape(6, 4)
    batch, parts = joyce.theta_star_residual(mats, z[:6], rows, images,
                                             np.array(taus[:6]))
    for i, g in enumerate(mats):
        r, one = joyce.theta_star_residual(g, z[i], rows[i], images[i], taus[i])
        assert type(r) is float and r == batch[i]
        assert one["quadratic_symbol_gap"] == parts["quadratic_symbol_gap"][i]


@st.composite
def _qseries(draw) -> QSeries:
    # few coefficient values, so two series often agree in places
    coeffs = draw(st.lists(st.sampled_from(
        [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)]), max_size=9))
    offset = draw(st.integers(-6, 6))
    trunc = max(offset + len(coeffs), 1) + draw(st.integers(0, 4))
    return QSeries(draw(st.sampled_from([1, 2, 3, 4, 6])), offset,
                   tuple(coeffs), trunc)


@settings(max_examples=300, deadline=None)
@given(_qseries(), _qseries())
def test_qseries_gap_counts_the_nonzero_coefficients_of_the_difference(a, b):
    from mockmod.harness import _qseries_gap

    assert _qseries_gap(a, b) == sum(1 for c in (a - b).coeffs if c)
    assert _qseries_gap(a, a.rebase(a.den * 2)) == 0
