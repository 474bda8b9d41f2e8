"""Check catalog, deterministic sampling, and the suite runner.

Every law certified by this package appears here as one catalog entry
with a stable check id, a one-line statement, a default tolerance, and a
runner ``runner(rng, config)`` returning ``(residual, params)``.  Numeric
entries are sample grids run by one loop (``grid``), which calls the law
the entry names as ``law(*case)``: the entry's case builder makes every
draw of the grid first, then evaluates the kernels, and gives the law only
values to compare.  A transformation check is ``special.modular_law`` or
``special.elliptic_law`` over arrays, one case per grid: its builder reads
each kernel once over every point and image of the grid, every order the
check reads included (rank l, Joyce k, Appell level), and the law compares
every case in one call; the entry fixes some parameters, and the builder
gives the bases, the left sides, their points and the parameters that vary
by case.  A per-point check has one case per point, each order it reads
at the point from one pass of each kernel.  Runners draw their samples
from a private PRNG seeded with ``f"{seed}:{check_id}"``, so reports are
reproducible regardless of execution order; runtime fields are the only
nondeterministic output.  The suite exit code is 0 exactly when every
selected report passes.

Three laws have a sign or conjugation reading that the source leaves
ambiguous.  Their laws return every reading's residual,
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
from .core import (DomainError, GEN_S, GEN_T, Mobius, Report, Tau,
                   relative_residual, sample_mobius, sample_tau, sample_z,
                   worst_of)
from .exactq import (mock_theta_f_expansion, partition_series, rank_table,
                     theta_q_expansion, theta_triple_product,
                     theta_zeta_expansion)

# the Appell levels of the appell.* checks, apart from the rank orders
APPELL_LEVELS = (2, 3)

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
    """Number of mismatching coefficients below the common truncation,
    compared on the common exponent grid."""
    den = math.lcm(a.den, b.den)
    terms = [{(s.offset + i) * (den // s.den): c
              for i, c in enumerate(s.coeffs) if c} for s in (a, b)]
    trunc = min(a.trunc * (den // a.den), b.trunc * (den // b.den))
    return sum(1 for n in terms[0].keys() | terms[1].keys()
               if n < trunc and terms[0].get(n, 0) != terms[1].get(n, 0))


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

    Draws ``n_taus`` points, then ``cases(rng, config, taus)`` makes every
    further draw, point by point, before it evaluates any value, and lists
    argument tuples (each with its point) for ``residual(*case)``.  A
    transformation grid is one case of arrays over every point and image,
    so each kernel and the law run once per grid; a per-point check has a
    case per point.  A residual is a number or an array, or a ``(residual,
    parts)`` pair whose named parts are maximised over the grid into
    ``params[maxima]`` (beside the static params when ``maxima`` is None).
    ``params`` is a dict or a function of the config; ``count`` names the
    param receiving the number of evaluated residual entries.  The check
    residual is the worst entry, NaN if any is NaN.  A grid with no
    evaluated entry fails with the cause in ``params["error"]``.
    """
    def run(rng, config) -> tuple:
        found = []
        parts_found: dict = {}
        # all points are drawn before any case: the draw order is part of
        # the report fingerprint
        for case in cases(rng, config, [sample_tau(rng) for _ in range(n_taus)]):
            r = residual(*case)
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
        out[count] = sum(int(np.size(r)) for r in found)
        if not out[count]:
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


def _at_points(values: Callable) -> Callable:
    """Case builder of a per-point check: the cases ``values(config, tau)``
    of each point in turn, each with its point appended."""
    return lambda rng, config, taus: [(*case, tau) for tau in taus
                                      for case in values(config, tau)]


_once = _at_points(lambda config, tau: [()])


def _each(*values) -> Callable:
    return _at_points(lambda config, tau: [(v,) for v in values])


def _images(gsets: list, taus) -> tuple:
    """Each point of ``taus`` followed by its images under its matrices in
    ``gsets``: those points, the factors c tau + d that go with them (1 at
    a point), and per case (point, matrix) the index of the point and of
    its image."""
    points, js, at, image = [], [], [], []
    for gs, tau in zip(gsets, taus):
        at += [len(points)] * len(gs)
        image += range(len(points) + 1, len(points) + 1 + len(gs))
        points += [tau] + [g.apply(tau) for g in gs]
        js += [1] + [g.j_factor(tau) for g in gs]
    return np.array(points), np.array(js), np.array(at), np.array(image)


def _transform_case(gsets: list, images: tuple, values, **params) -> tuple:
    """The one case of a transformation grid: every matrix of ``gsets``,
    the base and the left side of each from ``values`` (last axis over the
    points of ``images``, their ``_images``), the point of each, and
    ``params``."""
    points, _, at, image = images
    return ([g for gs in gsets for g in gs], values[..., at], values[..., image],
            points[at], params)


def _agree(lhs, rhs, tau) -> float:
    """Grid residual of two given values of one quantity."""
    return relative_residual(lhs, rhs)


def _law(name: str, **fixed) -> Callable:
    """Grid residual of the ``special`` law ``name`` (looked up per call, so
    a patched law is called): a case is the law's arguments through tau and
    a dict of the parameters its builder gives; ``fixed`` are the entry's."""
    def residual(*case):
        *args, params = case
        return getattr(special, name)(*args, **fixed, **params)
    return residual


def _gamma_cases(n_random: int, value: Callable) -> Callable:
    # the catalog's value(taus) looks its kernel up at call time, so a
    # patched or traced kernel is the one called
    def cases(rng, config, taus) -> list:
        gsets = [_gammas(rng, tau, n_random) for tau in taus]
        images = _images(gsets, taus)
        return [_transform_case(gsets, images, value(images[0]))]
    return cases


def _theta_shift_cases(rng, config, taus) -> list:
    z = np.array([sample_z(rng) for _ in taus])[:, None]
    lam, mu = np.array([(lam, mu) for lam in (-2, -1, 0, 1, 2)
                        for mu in (-1, 0, 1)]).T
    tz = np.array(taus)[:, None]
    # a row per point, its base then its fifteen shifts, in one call
    zs = np.hstack([z, z + lam * tz + mu])
    vals = special.theta_value(zs.ravel(), np.repeat(tz, zs.shape[1])
                               ).reshape(zs.shape)
    return [((lam,), (mu,), (z,), vals[:, :1], vals[:, 1:], tz, {})]


def _theta_modular_cases(rng, config, taus) -> list:
    draws = [(sample_z(rng), _gammas(rng, tau, 10)) for tau in taus]
    gsets = [gs for _, gs in draws]
    images = points, js, at, _ = _images(gsets, taus)
    z = np.repeat([z for z, _ in draws], [len(gs) + 1 for gs in gsets])
    return [_transform_case(gsets, images, special.theta_value(z / js, points),
                            z=(z[at],))]


def _taylor_cases(kind: str, power: int, rows: range) -> Callable:
    # row n of the theta power's recombined Taylor coefficients has weight
    # power/2 + n
    if power < 2 or power % 2 or rows.start < 0:
        raise DomainError("theta power must be even and >= 2, rows >= 0")
    ns = np.array(rows)

    def cases(rng, config, taus) -> list:
        # every point and image in one pass, E2 included
        gsets = [_gammas(rng, tau, 10) for tau in taus]
        images = points, _, at, _ = _images(gsets, taus)
        row, scale = jets.recombined_rows(
            jets.theta_power_taylor(power, points, rows.stop),
            jets.gaussian_scale(kind, power // 2, points))
        return [(ns, *_transform_case(gsets, images, row[:, ns].T,
                                      halves=power + 2 * ns[:, None],
                                      scale=scale[at][:, ns].T))]
    return cases


def _taylor_residual(ns, *case) -> tuple:
    r = _law("modular_law")(*case)
    return r, {str(n): rn for n, rn in zip(ns, r)}


def _appell_shift_cases(rng, config, taus) -> list:
    z = np.array([(sample_z(rng), sample_z(rng)) for _ in taus])
    # all sixteen shift patterns of a point, the first its base, every point
    # of a level in one call
    n1, m1, n2, m2 = np.array(list(itertools.product((0, 1), repeat=4))).T
    tz = np.array(taus)[:, None]
    z1s, z2s = z[:, :1] + n1 * tz + m1, z[:, 1:] + n2 * tz + m2
    vals = np.array([appell.appell_hat_values(
        ell, z1s.ravel(), z2s.ravel(), np.repeat(tz, z1s.shape[1])
    ).reshape(z1s.shape) for ell in APPELL_LEVELS])
    index = appell.appell_index(np.array(APPELL_LEVELS)[:, None, None])
    return [((n1, n2), (m1, m2), (z[:, :1], z[:, 1:]), vals[..., :1], vals,
             tz, {"index": index})]


def _appell_transform_case(pairs: list, gsets: list, taus) -> tuple:
    """The one case of an Appell weight-one grid: ``pairs[l][i]`` lists the
    pairs (z1, z2) of level ``APPELL_LEVELS[l]`` at point i, each read at
    the point and its images under ``gsets[l][i]``, one call per level."""
    levels = []
    for ell, lpairs, lgsets in zip(APPELL_LEVELS, pairs, gsets):
        points, js, at, image = _images(lgsets, taus)
        # a row per point and image, an entry per pair
        z = np.repeat(np.array(lpairs, dtype=complex),
                      [len(gs) + 1 for gs in lgsets], axis=0) / js[:, None, None]
        vals = appell.appell_hat_values(
            ell, z[..., 0].ravel(), z[..., 1].ravel(),
            np.repeat(points, z.shape[1])).reshape(z.shape[:2])
        gs = np.array([g for gs in lgsets for g in gs], dtype=object)[:, None]
        levels.append([np.broadcast_to(x, vals[at].shape).ravel() for x in
                       (gs, vals[at], vals[image], points[at][:, None],
                        z[at, :, 0], z[at, :, 1], ell)])
    gs, base, lhs, tz, z1, z2, ells = (np.concatenate(x) for x in zip(*levels))
    return gs, base, lhs, tz, {"index": appell.appell_index(ells), "z": (z1, z2)}


def _appell_modular_cases(rng, config, taus) -> list:
    # one pair per point and fresh random matrices for every level
    draws = [((sample_z(rng), sample_z(rng)),
              [_gammas(rng, tau, 10) for _ in APPELL_LEVELS]) for tau in taus]
    pairs = [[pair] for pair, _ in draws]
    return [_appell_transform_case([pairs] * len(APPELL_LEVELS),
                                   list(zip(*(gs for _, gs in draws))), taus)]


def _appell_torsion_cases(rng, config, taus) -> list:
    # the pairs of half periods where Ahat does not vanish identically
    halves = [(0.5 + 0.0j, 0.5 * tau, 0.5 * (tau + 1.0)) for tau in taus]
    pairs = [[[(a, b) for a in h for b in h if (a != b) == (ell == 2)]
              for h in halves] for ell in APPELL_LEVELS]
    return [_appell_transform_case(
        pairs, [[[GEN_S, GEN_T]] * len(taus)] * len(APPELL_LEVELS), taus)]


def _rank_transform_cases(rng, config, taus) -> list:
    # one set of matrices per point, shared by every order, and every
    # order at every point and image in one pass
    gsets = [_gammas(rng, tau, 10) for tau in taus]
    images = _images(gsets, taus)
    rows = rank.rank_hat_rows(config.ells, images[0])
    return [_transform_case(gsets, images, rows,
                            halves=4 * np.array(config.ells)[:, None] - 1)]


def _joyce_transform_cases(rng, config, taus) -> list:
    # fresh random matrices for every weight at every point, all drawn
    # before any value; every weight at its own points and images in one
    # pass, a row of them per weight
    gsets = list(zip(*[[_gammas(rng, tau, 10) for _ in config.ks]
                       for tau in taus]))
    images = [_images(gs, taus) for gs in gsets]
    rows = joyce.joyce_hat_rows(config.ks, [points for points, *_ in images])
    gs, base, lhs, tz, _ = zip(*(_transform_case(*case)
                                 for case in zip(gsets, images, rows)))
    return [(list(gs), np.array(base), np.array(lhs), tz[0],
             {"halves": 2 * np.array(config.ks)[:, None]})]


def _collapse_cases(rng, config, taus) -> list:
    zsets = [[sample_z(rng) for _ in range(3)] for _ in taus]
    return [(z, g, eta, tau) for zs, tau in zip(zsets, taus)
            for eta in [special.eta_value(tau)]
            for z, g in zip(zs, rank.generic_completion(zs, tau))]


def _theta_star_cases(rng, config, taus) -> list:
    mats, zs = [], []
    for tau in taus:
        mats.append([joyce.sample_gamma1_4(rng) for _ in range(5)]
                    + list(_LEVEL4_FIXED))
        zs.append([sample_z(rng, 0.2) for _ in mats[-1]])
    # rows (nu, point) in {-1, 0} x {0, z} per matrix; every tau in one
    # window, the images of each point in one of their own: one spanning
    # tau and Im gamma tau ~ 1e-4 passes the peak guard
    cols = [np.array([[0.0, z, 0.0, z] for z in zi]) for zi in zs]
    nus = np.tile([-1, -1, 0, 0], len(mats[0]))
    base = joyce.theta_star_value(np.tile(nus, len(taus)), np.ravel(cols),
                                  np.repeat(taus, nus.size)).reshape(-1, 4)
    lhs = np.concatenate([
        joyce.theta_star_value(nus, (col / js[1:, None]).ravel(),
                               np.repeat(images[1:], 4)).reshape(-1, 4)
        for col, gs, tau in zip(cols, mats, taus)
        for images, js, _, _ in [_images([gs], [tau])]])
    return [(sum(mats, []), np.ravel(zs), base, lhs,
             np.repeat(taus, len(mats[0])))]


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
              grid(3, _theta_shift_cases,
                   _law("elliptic_law", index=special.THETA_INDEX),
                   {"taus": 3, "shifts": 15})),
    CheckSpec("theta.modular",
              "theta weight-1/2 law with the cubed eta multiplier",
              1e-7, ("theta",),
              grid(3, _theta_modular_cases,
                   _law("modular_law", halves=1, psi=3,
                        index=special.THETA_INDEX), count="matrices")),
    CheckSpec("theta.eta-multiplier",
              "eta weight-1/2 law with the Dedekind-sum multiplier",
              1e-7, ("theta",),
              grid(3, _gamma_cases(10, lambda ts: special.eta_value(ts)),
                   _law("modular_law", halves=1, psi=1), count="matrices")),
    CheckSpec("theta.e2-shift",
              "weight-two Eisenstein quasimodular shift law",
              1e-7, ("theta",),
              grid(3, _gamma_cases(10, lambda ts: special.e2_value(ts)),
                   _law("modular_law", halves=4, shift=-6j / math.pi),
                   count="matrices")),
    CheckSpec("theta.e2-completed",
              "1/v-corrected weight-two series transforms without shift",
              1e-7, ("theta",),
              grid(2, _gamma_cases(6, lambda ts: special.e2_completed(ts)),
                   _law("modular_law", halves=4), count="matrices")),
    CheckSpec("theta.taylor-psi",
              "1/v-recombined z-coefficients of the eighth theta power"
              " transform with weight 4 + n",
              1e-8, ("theta",),
              grid(3, _taylor_cases("psi", 8, range(8, 13)), _taylor_residual, {"power": 8},
                   maxima="rows")),
    CheckSpec("theta.taylor-rho",
              "quasimodular-recombined z-coefficients of the eighth theta"
              " power transform with weight 4 + n",
              1e-8, ("theta",),
              grid(3, _taylor_cases("rho", 8, range(8, 13)), _taylor_residual, {"power": 8},
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
              grid(2, _appell_shift_cases, _law("elliptic_law"))),
    CheckSpec("appell.modular",
              "completed Appell sum weight-one law, levels two and three",
              1e-7, ("appell",),
              grid(3, _appell_modular_cases, _law("modular_law", halves=2),
                   count="matrices")),
    CheckSpec("appell.torsion-points",
              "weight-one law stays finite and sharp at half-period points",
              1e-7, ("appell",),
              grid(2, _appell_torsion_cases, _law("modular_law", halves=2))),
    CheckSpec("appell.moment-difference",
              "completed-minus-raw moment gap equals the adjudicated"
              " half-i jet closed form",
              1e-6, ("appell", "joyce"),
              adjudicated("negative-half-i-jet", 2,
                          _at_points(lambda c, tau:
                                     appell.moment_difference_values(c.ells, tau)),
                          appell.moment_difference_readings)),
    CheckSpec("rank.transform",
              "assembled completed jet coefficients transform with weight"
              " 2l - 1/2 and the inverse eta multiplier",
              1e-6, ("rank",),
              grid(3, _rank_transform_cases, _law("modular_law", psi=-1),
                   lambda c: {"ells": list(c.ells)}, count="matrices")),
    CheckSpec("rank.lowering",
              "lowering image of the assembled coefficient matches the"
              " closed form; conjugation variant adjudicated",
              1e-5, ("rank",),
              adjudicated("conjugate_plus", 2,
                          _at_points(lambda c, tau:
                                     rank.lowering_values(c.ells, tau)),
                          rank.lowering_readings,
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
              grid(2, _joyce_transform_cases, _law("modular_law"),
                   lambda c: {"weights": list(c.ks)}, count="matrices")),
    CheckSpec("joyce.lowering",
              "lowering image matches the stated closed form; the printed"
              " k=2 corollary variant is adjudicated against it",
              1e-5, ("joyce",),
              adjudicated("stated", 2,
                          _at_points(lambda c, tau:
                                     joyce.lowering_values(c.ks, tau)),
                          joyce.lowering_readings,
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
              grid(2, _at_points(lambda c, tau: [(ell, nu) for ell in (1, 3, 5)
                                                 for nu in (-1, 0)]),
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
              grid(2, _at_points(lambda c, tau:
                                 joyce.appell_limit_values(c.ks, tau)),
                   _agree, lambda c: {"weights": list(c.ks)})),
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
