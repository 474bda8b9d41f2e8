"""Check catalog, deterministic sampling, and the suite runner.

Every law certified by this package appears here as one catalog entry
with a stable check id, a one-line statement, a default tolerance, and a
runner ``runner(rng, config)`` returning ``(residual, params)``.  Numeric
entries are sample grids run by one loop (``grid``), which calls the law
the entry names as ``law(*case, tau)``; values that a point's cases share
come from the entry's case builder, and every transformation law compares
the values its builder gives: the base at tau and each left side.  Runners
draw their samples from a private PRNG seeded with ``f"{seed}:{check_id}"``,
so reports are reproducible regardless of execution order; runtime fields
are the only nondeterministic output.  The suite exit code is 0 exactly
when every selected report passes.

Three laws have a sign or conjugation reading that the source leaves
ambiguous.  Their residual functions return every reading's residual,
and ``adjudicated`` computes the winner over the grid: the check fails
unless the documented reading wins by at least ``SEPARATION_MIN``.
"""
from __future__ import annotations

import copy
import itertools
import json
import math
import random
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import appell, jets, joyce, rank, special
from .core import (GEN_S, GEN_T, Mobius, Report, Tau,
                   sample_mobius, sample_tau, sample_z, worst_of)
from .exactq import (mock_theta_f_expansion, partition_series, rank_table,
                     theta_q_expansion, theta_triple_product,
                     theta_zeta_expansion)

# matrices with a negative quadratic-symbol value, kept fixed so the
# level-four multiplier check always exercises both symbol signs
_LEVEL4_FIXED = (Mobius(5, 2, 12, 5), Mobius(17, 3, 28, 5),
                 Mobius(5, -3, 12, -7))


@dataclass(frozen=True)
class CheckSpec:
    """One catalog entry."""

    check_id: str
    law: str
    tolerance: float
    groups: tuple
    runner: Callable = field(repr=False)


@dataclass
class SuiteConfig:
    """Runner configuration; identical config and seed give identical
    reports up to runtime fields."""

    seed: int = 2026
    ells: tuple = (1, 2, 3)
    ks: tuple = (2, 4, 6)
    tol_overrides: dict = field(default_factory=dict)
    groups: tuple = ("all",)
    only: tuple | None = None
    output_path: str | None = None

    def appell_levels(self) -> tuple:
        picked = tuple(e for e in self.ells if e in (2, 3))
        return picked or (2, 3)

    def tolerance_for(self, spec: CheckSpec) -> float:
        if spec.check_id in self.tol_overrides:
            return float(self.tol_overrides[spec.check_id])
        return spec.tolerance


def sample_inputs(seed: int, n: int) -> list:
    """Deterministic (tau, gamma) pairs from the standard windows."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        tau = sample_tau(rng)
        out.append((tau, sample_mobius(rng, tau)))
    return out


def _gammas(rng: random.Random, tau: Tau, n_random: int) -> list:
    return [GEN_T, GEN_S] + [sample_mobius(rng, tau) for _ in range(n_random)]


# ---------------------------------------------------------------------------
# runners: exact layer
# ---------------------------------------------------------------------------


def _brute_rank_counts(n: int) -> dict:
    """Rank histogram of partitions of n by direct enumeration."""
    counts: dict[int, int] = {}

    def rec(remaining: int, max_part: int, first: int, parts: int) -> None:
        if remaining == 0:
            counts[first - parts] = counts.get(first - parts, 0) + 1
            return
        for p in range(min(remaining, max_part), 0, -1):
            rec(remaining - p, p, first if parts else p, parts + 1)

    rec(n, n, 0, 0)
    return counts


def _run_rank_table(rng, config) -> tuple:
    nmax = 14
    table = rank_table(nmax)
    bad = 0
    total = 0
    for n in range(1, nmax + 1):
        brute = _brute_rank_counts(n)
        for m in range(-n, n + 1):
            total += 1
            if table.count(m, n) != brute.get(m, 0):
                bad += 1
    pseries = partition_series(nmax + 1)
    for n in range(nmax + 1):
        total += 1
        if sum(table.row(n).values()) != pseries.coeffs[n]:
            bad += 1
    return float(bad), {"nmax": nmax, "entries": total, "mismatches": bad}


def _run_partition_congruences(rng, config) -> tuple:
    nmax = 60
    p = partition_series(11 * nmax + 7)
    bad = 0
    total = 0
    for mod, offset in ((5, 4), (7, 5), (11, 6)):
        for n in range(nmax + 1):
            total += 1
            if p.coeffs[mod * n + offset] % mod:
                bad += 1
    return float(bad), {"nmax": nmax, "cases": total, "violations": bad}


def _qseries_gap(a, b) -> int:
    """Number of mismatching coefficients below the common truncation."""
    return sum(1 for c in (a - b).coeffs if c)


def _run_rank_specialize(rng, config) -> tuple:
    order = 30
    table = rank_table(order)
    bad = _qseries_gap(table.specialize(1, order + 1), partition_series(order + 1))
    bad += _qseries_gap(table.specialize(-1, order + 1),
                        mock_theta_f_expansion(order + 1))
    return float(bad), {"order": order, "mismatches": bad}


def _run_triple_product(rng, config) -> tuple:
    trunc = 8 * 24
    bad = int((theta_zeta_expansion(trunc) != theta_triple_product(trunc)).sum())
    return float(bad), {"q_order": trunc // 8, "mismatches": bad}


def _run_theta_blocks(rng, config) -> tuple:
    order = 40
    bad = _qseries_gap(theta_q_expansion("vartheta_minus", order),
                       theta_q_expansion("theta1", 2 * order).rescale(2).scale(-1))
    bad += _qseries_gap(theta_q_expansion("vartheta_zero", 4 * order),
                        theta_q_expansion("theta3", 8 * order).rescale(2).scale(-1))
    return float(bad), {"q_order": order, "mismatches": bad}


def _run_bracket_coefficients(rng, config) -> tuple:
    bad = sum(0 if joyce.bracket_coefficient_identity(ell) else 1
              for ell in range(1, 14, 2))
    return float(bad), {"orders": "1..13 odd", "mismatches": bad}


# ---------------------------------------------------------------------------
# numeric entries: sample grids
# ---------------------------------------------------------------------------


def grid(n_taus: int, cases: Callable, residual: Callable, params=None, *,
         count: str = "cases", maxima: str | None = None) -> Callable:
    """Runner ``run(rng, config)`` of a numeric law over a sample grid.

    Draws ``n_taus`` points, then for each point ``tau`` makes every draw
    of that point through ``cases(rng, config, tau)``, a list of argument
    tuples that carry any value the point's cases share, and evaluates
    ``residual(*case, tau)``.  A residual is a float, or a ``(float,
    parts)`` pair whose named parts are maximised over the grid into
    ``params[maxima]`` (beside the static params when ``maxima`` is None).
    ``params`` is a dict or a function of the config; ``count`` names the
    param receiving the number of evaluated cases.  The check residual is
    the worst case residual, NaN if any is NaN.  A grid with no evaluated
    case fails with the cause in ``params["error"]``.
    """
    def run(rng, config) -> tuple:
        found = []
        parts_found: dict = {}
        # all points are drawn before any case: the draw order is part of
        # the report fingerprint
        for tau in [sample_tau(rng) for _ in range(n_taus)]:
            for case in cases(rng, config, tau):
                r = residual(*case, tau)
                if isinstance(r, tuple):
                    r, parts = r
                    for key, val in parts.items():
                        parts_found.setdefault(key, []).append(val)
                found.append(r)
        out = copy.deepcopy(params(config) if callable(params)
                            else params or {})
        parts_max = {key: worst_of(vals) for key, vals in parts_found.items()}
        if maxima is None:
            out.update(parts_max)
        else:
            out[maxima] = parts_max
        out[count] = len(found)
        if not found:
            out["error"] = "no case evaluated"
            return math.inf, out
        return worst_of(found), out
    return run


# the documented reading of an adjudicated law must beat every rival
# reading's worst residual over the grid by this factor
SEPARATION_MIN = 100.0


def adjudicated(documented: str, n_taus: int, cases: Callable,
                variants: Callable, params=None) -> Callable:
    """Runner of a law with several candidate readings.

    ``variants`` is a grid law returning a dict of candidate residuals;
    the check residual is the ``documented`` candidate's.  The
    worst residual of every candidate over the grid goes to
    ``params["variants"]``, the candidate with the smallest one to
    ``params["variant"]``, and the smallest rival worst over the
    documented worst to ``params["separation"]``.  The check fails when
    another candidate wins or the separation is below SEPARATION_MIN.
    """
    def residual(*args) -> tuple:
        found = variants(*args)
        return found[documented], found

    run = grid(n_taus, cases, residual, params, maxima="variants")

    def adjudicate(rng, config) -> tuple:
        worst, out = run(rng, config)
        found = out["variants"]
        if documented not in found:  # no case evaluated: already failed
            return worst, out
        rival = min((r for name, r in found.items() if name != documented),
                    default=math.inf)
        out["variant"] = min(found, key=found.get)
        out["separation"] = rival / max(found[documented], 1e-300)
        if out["variant"] != documented:
            out["error"] = (f"variant {out['variant']} beats the documented"
                            f" {documented}")
        elif not out["separation"] >= SEPARATION_MIN:
            out["error"] = (f"documented variant {documented} leads by only"
                            f" {out['separation']:.3g}x")
        return (math.inf if "error" in out else worst), out
    return adjudicate


def _once(rng, config, tau) -> list:
    return [()]


def _each(*values) -> Callable:
    cases = [(v,) for v in values]
    return lambda rng, config, tau: cases


def _ells(rng, config, tau) -> list:
    return [(ell,) for ell in config.ells]


def _ks(rng, config, tau) -> list:
    return [(k,) for k in config.ks]


def _gamma_cases(n_random: int, value: Callable) -> Callable:
    # the catalog's value(taus) looks its kernel up at call time, so a
    # patched or traced kernel is the one called
    return lambda rng, config, tau: _transform_cases(
        value, _gammas(rng, tau, n_random), (), tau)


def _theta_shift_cases(rng, config, tau) -> list:
    z = sample_z(rng)
    shifts = [(lam, mu) for lam in (-2, -1, 0, 1, 2) for mu in (-1, 0, 1)]
    base, *vals = special.theta_value(
        [z] + [z + lam * tau + mu for lam, mu in shifts], tau)
    return [(lam, mu, z, base, lhs) for (lam, mu), lhs in zip(shifts, vals)]


def _theta_modular_cases(rng, config, tau) -> list:
    z = sample_z(rng)
    gs = _gammas(rng, tau, 10)
    js = np.array([1.0] + [g.j_factor(tau) for g in gs])
    return _transform_cases(lambda ts: special.theta_value(z / js, ts), gs,
                            (z,), tau)


def _taylor_cases(kind: str) -> Callable:
    def recombined(t, a) -> tuple:
        # the rows sum_j a^j/j! chi_(n-2j), by the Gaussian column through 14
        chis = jets.theta_power_taylor(8, t, 13)
        a = complex(a)
        return chis, a, np.convolve(chis, jets.exp_quadratic_column(a, 14))

    def cases(rng, config, tau) -> list:
        # the point's and each image's rows recombined once, the Gaussian
        # exponents of all of them from one call
        gs = _gammas(rng, tau, 10)
        points = [tau] + [g.apply(tau) for g in gs]
        here, *images = map(recombined, points,
                            jets.gaussian_scale(kind, 4, points))
        return [(n, g, here, im[2]) for n in range(8, 13)
                for g, im in zip(gs, images)]
    return cases


def _taylor_residual(n, g, here, image, tau) -> tuple:
    r = jets.theta_power_completed_residual(8, n, g, tau, *here, image)
    return r, {str(n): r}


def _appell_shift_cases(rng, config, tau) -> list:
    z1 = sample_z(rng)
    z2 = sample_z(rng)
    # all sixteen shift patterns of a level in one call, the first the base
    shifts = list(itertools.product((0, 1), repeat=4))
    z1s = [z1 + n1 * tau + m1 for n1, m1, _, _ in shifts]
    z2s = [z2 + n2 * tau + m2 for _, _, n2, m2 in shifts]
    return [(ell, *shift, z1, z2, vals[0], lhs)
            for ell in config.appell_levels()
            for vals in [appell.appell_hat_values(ell, z1s, z2s, tau)]
            for shift, lhs in zip(shifts, vals)]


def _transform_cases(value: Callable, gs: list, head: tuple, tau) -> list:
    # value(taus) gives the base at tau and every lhs at gamma tau at once
    base, *images = value([tau] + [g.apply(tau) for g in gs])
    return [(*head, g, base, lhs) for g, lhs in zip(gs, images)]


def _appell_transform_cases(ell: int, pairs: list, gs: list, tau) -> list:
    # one call: every pair (z1, z2) at tau, then at each gamma tau
    z1, z2 = np.array(pairs, dtype=complex).T
    js = np.array([1.0] + [g.j_factor(tau) for g in gs])[:, None]
    points = [t for t in [tau] + [g.apply(tau) for g in gs] for _ in pairs]
    base, *images = appell.appell_hat_values(
        ell, (z1 / js).ravel(), (z2 / js).ravel(), points).reshape(len(js), -1)
    return [(ell, *pair, g, b, lhs) for g, row in zip(gs, images)
            for pair, b, lhs in zip(pairs, base, row)]


def _appell_modular_cases(rng, config, tau) -> list:
    pair = (sample_z(rng), sample_z(rng))
    # fresh random matrices for every level
    return [case for ell in config.appell_levels()
            for case in _appell_transform_cases(ell, [pair],
                                                _gammas(rng, tau, 10), tau)]


def _appell_torsion_cases(rng, config, tau) -> list:
    # the pairs of half periods where Ahat does not vanish identically
    halves = (0.5 + 0.0j, 0.5 * tau, 0.5 * (tau + 1.0))
    return [case for ell in config.appell_levels()
            for case in _appell_transform_cases(
                ell, [(a, b) for a in halves for b in halves
                      if (a != b) == (ell == 2)], [GEN_S, GEN_T], tau)]


def _rank_transform_cases(rng, config, tau) -> list:
    # one set of matrices per point, shared by every order
    gs = _gammas(rng, tau, 10)
    return [case for ell in config.ells
            for case in _transform_cases(
                lambda ts: rank.rank_hat_value(ell, ts), gs, (ell,), tau)]


def _joyce_transform_cases(rng, config, tau) -> list:
    # fresh random matrices for every weight
    return [case for k in config.ks
            for case in _transform_cases(
                lambda ts: joyce.joyce_hat_value(k, ts), _gammas(rng, tau, 10),
                (k,), tau)]


def _collapse_cases(rng, config, tau) -> list:
    zs = [sample_z(rng) for _ in range(3)]
    eta = special.eta_value(tau)
    return [(z, g, eta) for z, g in zip(zs, rank.generic_completion(zs, tau))]


def _theta_star_cases(rng, config, tau) -> list:
    mats = [joyce.sample_gamma1_4(rng) for _ in range(5)] + list(_LEVEL4_FIXED)
    zs = [sample_z(rng, 0.2) for _ in mats]
    # rows (nu, point) in {-1, 0} x {0, z}; tau and the images take separate
    # windows: one spanning tau and Im gamma tau ~ 1e-4 passes the peak guard
    nus = np.tile([-1, -1, 0, 0], len(mats))
    points = np.array([[0.0, z, 0.0, z] for z in zs]).ravel()
    js = np.repeat([g.j_factor(tau) for g in mats], 4)
    base = joyce.theta_star_value(nus, points, tau).reshape(-1, 4)
    lhs = joyce.theta_star_value(nus, points / js,
                                 [g.apply(tau) for g in mats for _ in range(4)])
    return list(zip(mats, zs, base, lhs.reshape(-1, 4)))


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


# jet order of the two-term route in rank.completion-circle: covers the
# mode-5 column up to the radius^8 correction
CIRCLE_JET_ORDER = 13

CATALOG = (
    CheckSpec("exact.rank-table",
              "rank histogram rows equal brute-force partition enumeration"
              " and rows sum to the partition numbers",
              0.0, ("exact", "rank"), _run_rank_table),
    CheckSpec("exact.partition-congruences",
              "partition numbers vanish mod 5, 7, 11 on the three"
              " arithmetic progressions",
              0.0, ("exact", "rank"), _run_partition_congruences),
    CheckSpec("exact.rank-specialize",
              "rank generating series at +1 gives the partition series, at"
              " -1 the third-order mock series",
              0.0, ("exact", "rank"), _run_rank_specialize),
    CheckSpec("exact.triple-product",
              "bivariate theta sum equals its product expansion",
              0.0, ("exact", "theta"), _run_triple_product),
    CheckSpec("exact.theta-blocks",
              "half-characteristic theta blocks equal rescaled classical"
              " theta nulls",
              0.0, ("exact", "theta", "joyce"), _run_theta_blocks),
    CheckSpec("exact.bracket-coefficients",
              "bracket coefficient closed forms agree as exact rationals",
              0.0, ("exact", "joyce"), _run_bracket_coefficients),
    CheckSpec("theta.elliptic",
              "theta lattice-shift law with index one half",
              1e-7, ("theta",),
              grid(3, _theta_shift_cases, special.theta_elliptic_residual,
                   {"taus": 3, "shifts": 15})),
    CheckSpec("theta.modular",
              "theta weight-1/2 law with the cubed eta multiplier",
              1e-7, ("theta",),
              grid(3, _theta_modular_cases, special.theta_modular_residual,
                   count="matrices")),
    CheckSpec("theta.eta-multiplier",
              "eta weight-1/2 law with the Dedekind-sum multiplier",
              1e-7, ("theta",),
              grid(3, _gamma_cases(10, lambda ts: special.eta_value(ts)),
                   special.eta_modular_residual, count="matrices")),
    CheckSpec("theta.e2-shift",
              "weight-two Eisenstein quasimodular shift law",
              1e-7, ("theta",),
              grid(3, _gamma_cases(10, lambda ts: special.e2_value(ts)),
                   special.e2_modular_residual, count="matrices")),
    CheckSpec("theta.e2-completed",
              "1/v-corrected weight-two series transforms without shift",
              1e-7, ("theta",),
              grid(2, _gamma_cases(6, lambda ts: special.e2_completed(ts)),
                   special.e2_completed_residual, count="matrices")),
    CheckSpec("theta.taylor-psi",
              "1/v-recombined z-coefficients of the eighth theta power"
              " transform with weight 4 + n",
              1e-8, ("theta",),
              grid(3, _taylor_cases("psi"), _taylor_residual, {"power": 8},
                   maxima="rows")),
    CheckSpec("theta.taylor-rho",
              "quasimodular-recombined z-coefficients of the eighth theta"
              " power transform with weight 4 + n",
              1e-8, ("theta",),
              grid(3, _taylor_cases("rho"), _taylor_residual, {"power": 8},
                   maxima="rows")),
    CheckSpec("theta.rho-degenerate-row",
              "row ten of the quasimodular recombination vanishes"
              " identically for the eighth power",
              1e-12, ("theta",),
              grid(4, _once, jets.rho_degeneracy_residual,
                   {"power": 8, "row": 10})),
    CheckSpec("appell.elliptic-shift",
              "completed Appell sum lattice-shift law, all sixteen shift"
              " patterns, levels two and three",
              1e-7, ("appell",),
              grid(2, _appell_shift_cases, appell.elliptic_shift_residual)),
    CheckSpec("appell.modular",
              "completed Appell sum weight-one law, levels two and three",
              1e-7, ("appell",),
              grid(3, _appell_modular_cases, appell.modular_residual,
                   count="matrices")),
    CheckSpec("appell.torsion-points",
              "weight-one law stays finite and sharp at half-period points",
              1e-7, ("appell",),
              grid(2, _appell_torsion_cases, appell.modular_residual)),
    CheckSpec("appell.moment-difference",
              "completed-minus-raw moment gap equals the adjudicated"
              " half-i jet closed form",
              1e-6, ("appell", "joyce"),
              adjudicated("negative-half-i-jet", 2, _ells,
                          appell.moment_difference_variants)),
    CheckSpec("rank.transform",
              "assembled completed jet coefficients transform with weight"
              " 2l - 1/2 and the inverse eta multiplier",
              1e-6, ("rank",),
              grid(3, _rank_transform_cases, rank.transform_residual,
                   lambda c: {"ells": list(c.ells)}, count="matrices")),
    CheckSpec("rank.lowering",
              "lowering image of the assembled coefficient matches the"
              " closed form; conjugation variant adjudicated",
              1e-5, ("rank",),
              adjudicated("conjugate_plus", 2, _ells, rank.lowering_variants,
                          lambda c: {"ells": list(c.ells)})),
    CheckSpec("rank.completion-routes",
              "two-term completion jet equals odd part of the single-term"
              " route minus the elementary column",
              1e-9, ("rank",),
              grid(3, _once, rank.completion_route_residual, {"order": 7})),
    CheckSpec("rank.completion-collapse",
              "generic residue-class completion collapses onto the"
              " two-term route through the eta product",
              1e-12, ("rank",),
              grid(3, _collapse_cases, rank.completion_collapse_residual,
                   count="points")),
    CheckSpec("rank.completion-circle",
              "circle values of the completion match the full"
              " two-variable jet columns mode by mode",
              1e-7, ("rank",),
              grid(2, _each(CIRCLE_JET_ORDER), rank.completion_circle_residual,
                   {"order": CIRCLE_JET_ORDER, "modes": [1, 3, 5]})),
    CheckSpec("rank.oddness",
              "completed family is odd in the elliptic variable",
              1e-12, ("rank",),
              grid(2, _once, rank.oddness_residual, {"modes": "circle"})),
    CheckSpec("rank.three-halves",
              "first nonholomorphic coefficient: jet, lattice, period, and"
              " mode routes agree; weight-3/2 assembly identity holds",
              1e-7, ("rank", "threehalves"),
              grid(2, _once, rank.three_halves_residual,
                   maxima="components")),
    CheckSpec("rank.single-mode",
              "closed-form single mode equals the direct period integral",
              1e-8, ("rank", "threehalves"),
              grid(2, _each(-2, -1, 0, 1, 2), rank.single_mode_identity_residual,
                   {"k_range": [-2, 2]})),
    CheckSpec("joyce.transform",
              "completed lattice Lambert series transforms with integer"
              " weight k on the full modular group",
              1e-6, ("joyce",),
              grid(2, _joyce_transform_cases, joyce.transform_residual,
                   lambda c: {"weights": list(c.ks)}, count="matrices")),
    CheckSpec("joyce.lowering",
              "lowering image matches the stated closed form; the printed"
              " k=2 corollary variant is adjudicated against it",
              1e-5, ("joyce",),
              adjudicated("stated", 2, _ks, joyce.lowering_variants,
                          lambda c: {"weights": list(c.ks)})),
    CheckSpec("joyce.s-routes",
              "analytic derivative tower of the weight-3/2 partner equals"
              " the heat-equation jet route",
              1e-12, ("joyce",),
              grid(3, _each(-1, 0), joyce.s_nu_route_residual, {"depth": 2})),
    CheckSpec("joyce.s-lowering",
              "lowering of the weight-3/2 partner gives the conjugated"
              " theta null times -sqrt(v)/2",
              1e-9, ("joyce",),
              grid(2, _each(-1, 0), joyce.s_nu_lowering_residual,
                   {"classes": [-1, 0]})),
    CheckSpec("joyce.theta-block-routes",
              "jet and binomial routes for the Gaussian-dressed theta"
              " block derivatives agree",
              1e-12, ("joyce",),
              grid(2, lambda rng, c, tau: [(ell, nu) for ell in (1, 3, 5)
                                           for nu in (-1, 0)],
                   joyce.theta_ln_route_residual, {"orders": [1, 3, 5]})),
    CheckSpec("joyce.theta-star",
              "index-killed theta blocks transform on the level-four group"
              " with the adjudicated multiplier pair",
              1e-8, ("joyce",),
              grid(2, _theta_star_cases, joyce.theta_star_residual,
                   count="matrices")),
    CheckSpec("joyce.appell-limit",
              "twice the exact expansion equals the Appell moment limit",
              1e-6, ("joyce",),
              grid(2, _ks, joyce.appell_limit_residual,
                   lambda c: {"weights": list(c.ks)})),
)


def coverage_table() -> list:
    """One row per catalog entry; part of every suite report."""
    return [{"check_id": s.check_id, "law": s.law, "tolerance": s.tolerance,
             "groups": list(s.groups)}
            for s in CATALOG]


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


def selected_specs(config: SuiteConfig) -> list:
    if "all" in config.groups:
        picked = list(CATALOG)
    else:
        picked = [s for s in CATALOG
                  if any(g in s.groups for g in config.groups)]
    if config.only is not None:
        picked = [s for s in picked if s.check_id in config.only]
    return picked


def run_suite(config: SuiteConfig) -> tuple[list, int]:
    """Run the selected catalog; returns (reports sorted by id, exit code).

    Exit code 0 iff every selected check passes.  A crash inside a
    runner becomes a failed report, not a crash."""
    specs = selected_specs(config)
    if not specs:
        return [], 2
    reports = []
    for spec in specs:
        rng = random.Random(f"{config.seed}:{spec.check_id}")
        tol = config.tolerance_for(spec)
        start = time.perf_counter()
        trace = None
        try:
            residual, params = spec.runner(rng, config)
        except Exception as exc:  # noqa: BLE001 - suite must keep going
            residual, params = math.inf, {"error": repr(exc)}
            trace = traceback.format_exc()
        rep = Report(spec.check_id, params, residual, tol, traceback=trace)
        rep.runtime_ms = int((time.perf_counter() - start) * 1000.0)
        reports.append(rep)
    reports.sort(key=lambda r: r.check_id)
    code = 0 if all(r.verdict == "pass" for r in reports) else 1
    if config.output_path:
        with open(config.output_path, "w") as fh:
            fh.write(suite_json(config, reports))
    return reports, code


def suite_report(config: SuiteConfig, reports: list) -> dict:
    return {
        "config": {
            "seed": config.seed,
            "tol_overrides": dict(config.tol_overrides),
            "groups": list(config.groups),
        },
        "coverage": coverage_table(),
        "reports": [r.to_dict() for r in reports],
        "summary": {
            "passed": sum(1 for r in reports if r.verdict == "pass"),
            "failed": sum(1 for r in reports if r.verdict == "fail"),
        },
    }


def suite_json(config: SuiteConfig, reports: list) -> str:
    return json.dumps(suite_report(config, reports), indent=2, sort_keys=True)


def report_fingerprint(reports: list) -> str:
    """Deterministic digest of a report list, timing and traceback fields
    excluded."""
    stripped = []
    for r in reports:
        d = r.to_dict()
        d.pop("runtime_ms", None)
        d.pop("traceback", None)
        stripped.append(d)
    return json.dumps(stripped, sort_keys=True)
