"""End-to-end acceptance gate.

Seven criteria, each ending in one printed summary line.  The lines are
emitted with capture suspended so they show up in the test log next to
the verbose test ids.
"""
import math
import random
import time

import numpy as np

from mockmod import (GEN_S, GEN_T, Mobius, SuiteConfig, Tau,
                     partition_series, rank_table, report_fingerprint,
                     run_suite)
from mockmod import appell, jets, joyce, rank, special
from mockmod.core import relative_residual, sample_mobius, sample_tau, sample_z
from mockmod.exactq import (mock_theta_f_expansion, theta_q_expansion,
                            theta_triple_product, theta_zeta_expansion)

# matrices whose level-four quadratic symbol is -1; the random sampler
# mostly lands on +1, so the sign branch is pinned explicitly
LEVEL4_NEGATIVE = (Mobius(5, 2, 12, 5), Mobius(17, 3, 28, 5),
                   Mobius(5, -3, 12, -7))


def _emit(cap, num: int, ok: bool, detail: str) -> None:
    tag = "PASS" if ok else "FAIL"
    with cap.disabled():
        print(f"\n[criterion {num}] {tag} {detail}", flush=True)


def _brute_ranks(n: int) -> dict:
    """Rank histogram of the partitions of n, by direct enumeration."""
    counts: dict[int, int] = {}

    def rec(remaining: int, max_part: int, first: int, parts: int) -> None:
        if remaining == 0:
            counts[first - parts] = counts.get(first - parts, 0) + 1
            return
        for p in range(min(remaining, max_part), 0, -1):
            rec(remaining - p, p, first if parts else p, parts + 1)

    rec(n, n, 0, 0)
    return counts


def _series_gap(a, b) -> int:
    """Mismatching coefficients of two exact series on the common grid."""
    den = a.den * b.den // math.gcd(a.den, b.den)
    aa = a.rebase(den)
    bb = b.rebase(den)
    hi = min(aa.trunc, bb.trunc)
    bad = 0
    for k in range(min(aa.offset, bb.offset), hi):
        ca = aa.coeffs[k - aa.offset] if 0 <= k - aa.offset < len(aa.coeffs) else 0
        cb = bb.coeffs[k - bb.offset] if 0 <= k - bb.offset < len(bb.coeffs) else 0
        if ca != cb:
            bad += 1
    return bad


def test_criterion_1_exact_layer(capsys):
    start = time.perf_counter()
    table = rank_table(60)
    bad_rows = 0
    for n in range(1, 31):
        brute = _brute_ranks(n)
        row = table.row(n)
        for m in range(-n, n + 1):
            if row.get(m, 0) != brute.get(m, 0):
                bad_rows += 1
    pseries = partition_series(61)
    bad_sums = sum(1 for n in range(61)
                   if sum(table.row(n).values()) != pseries.coeffs[n])
    p = partition_series(11 * 100 + 7)
    bad_cong = 0
    for mod, offset in ((5, 4), (7, 5), (11, 6)):
        bad_cong += sum(1 for n in range(101)
                        if p.coeffs[mod * n + offset] % mod)
    elapsed = time.perf_counter() - start
    ok = bad_rows == 0 and bad_sums == 0 and bad_cong == 0 and elapsed < 5.0
    _emit(capsys, 1, ok,
          f"exact layer: rank rows n<=30 brute-checked, row sums n<=60,"
          f" congruences mod 5/7/11 n<=100 ({elapsed:.1f}s < 5s)")
    assert bad_rows == 0
    assert bad_sums == 0
    assert bad_cong == 0
    assert elapsed < 5.0


def test_criterion_2_exact_identities(capsys):
    start = time.perf_counter()
    table = rank_table(50)
    bad = _series_gap(table.specialize(1, 51), partition_series(51))
    bad += _series_gap(table.specialize(-1, 51), mock_theta_f_expansion(51))
    bad += int((theta_zeta_expansion(8 * 40)
                != theta_triple_product(8 * 40)).sum())
    bad += _series_gap(
        theta_q_expansion("vartheta_minus", 60),
        theta_q_expansion("theta1", 120).rescale(2).scale(-1))
    bad += _series_gap(
        theta_q_expansion("vartheta_zero", 240),
        theta_q_expansion("theta3", 480).rescale(2).scale(-1))
    bad_brackets = sum(0 if joyce.bracket_coefficient_identity(ell) else 1
                       for ell in range(1, 14, 2))
    elapsed = time.perf_counter() - start
    ok = bad == 0 and bad_brackets == 0 and elapsed < 10.0
    _emit(capsys, 2, ok,
          f"exact identities: specializations to order 50, triple product"
          f" to 40, theta blocks to 60, bracket closed forms exact for odd"
          f" orders <= 13 ({elapsed:.1f}s < 10s)")
    assert bad == 0
    assert bad_brackets == 0
    assert elapsed < 10.0


def test_criterion_3_transformation_laws(capsys):
    rng = random.Random("acceptance:3")
    worst_law = 0.0
    worst_rows = 0.0
    n_mats = 0
    for _ in range(3):
        tau = sample_tau(rng)
        z = sample_z(rng)
        z1, z2 = sample_z(rng), sample_z(rng)
        gammas = [GEN_T, GEN_S] + [sample_mobius(rng, tau) for _ in range(10)]
        shifts = [(lam, mu) for lam in (-2, -1, 0, 1, 2) for mu in (-1, 0, 1)]
        theta_z, *shifted = special.theta_value(
            [z] + [z + lam * tau + mu for lam, mu in shifts], tau)
        for (lam, mu), lhs in zip(shifts, shifted):
            worst_law = max(worst_law, special.elliptic_law(
                (lam,), (mu,), (z,), theta_z, lhs, tau,
                index=special.THETA_INDEX))
        js = np.array([g.j_factor(tau) for g in gammas])
        images = [g.apply(tau) for g in gammas]
        theta_im = special.theta_value(z / js, images)
        e2_here, *e2_im = special.e2_value([tau] + images)
        # each level's point, its five shifts and its twelve images in
        # one kernel call
        pats = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                (1, 1, 1, 1))
        pts = [(z1, z2)] \
            + [(z1 + n1 * tau + m1, z2 + n2 * tau + m2)
               for n1, m1, n2, m2 in pats] \
            + [(z1 / g.j_factor(tau), z2 / g.j_factor(tau)) for g in gammas]
        taus = [tau] * (1 + len(pats)) + [g.apply(tau) for g in gammas]
        for ell in (2, 3):
            base, *vals = appell.appell_hat_values(
                ell, [p[0] for p in pts], [p[1] for p in pts], taus)
            index = appell.appell_index(ell)
            for (n1, m1, n2, m2), lhs in zip(pats, vals):
                worst_law = max(worst_law, special.elliptic_law(
                    (n1, n2), (m1, m2), (z1, z2), base, lhs, tau,
                    index=index))
            for g, lhs in zip(gammas, vals[len(pats):]):
                worst_law = max(worst_law, special.modular_law(
                    g, base, lhs, tau, halves=2, index=index, z=(z1, z2)))
        # the eighth-power rows of tau and its images, one batch per route
        chis = jets.theta_power_taylor(8, [tau] + images, 13)
        rows = {kind: jets.recombined_rows(
            chis, jets.gaussian_scale(kind, 4, [tau] + images))
            for kind in ("psi", "rho")}
        for k, (g, th, e2) in enumerate(zip(gammas, theta_im, e2_im), 1):
            n_mats += 1
            worst_law = max(worst_law,
                            special.modular_law(g, theta_z, th, tau, halves=1,
                                                psi=3,
                                                index=special.THETA_INDEX,
                                                z=(z,)),
                            special.modular_law(g, e2_here, e2, tau, halves=4,
                                                shift=-6j / math.pi))
            for row, scale in rows.values():
                for n in range(8, 13):
                    # row n of the eighth power has weight 4 + n
                    worst_rows = max(worst_rows, special.modular_law(
                        g, row[0, n], row[k, n], tau, halves=8 + 2 * n,
                        scale=scale[0, n]))
    ok = worst_law <= 1e-7 and worst_rows <= 1e-8
    _emit(capsys, 3, ok,
          f"transformation laws: worst residual {worst_law:.1e} <= 1e-7"
          f" over {n_mats} matrices; recombined eighth-power rows"
          f" {worst_rows:.1e} <= 1e-8")
    assert worst_law <= 1e-7
    assert worst_rows <= 1e-8


def test_criterion_4_rank_transform_and_lowering(capsys):
    start = time.perf_counter()
    rng = random.Random("acceptance:4")
    worst_st = 0.0
    n_checked = 0
    worst_lower = 0.0
    variants: dict[str, float] = {}
    for _ in range(2):
        tau = sample_tau(rng)
        gammas = [GEN_T, GEN_S, GEN_S @ GEN_T] \
            + [sample_mobius(rng, tau) for _ in range(3)]
        for ell in (1, 2, 3):
            base, *images = rank.rank_hat_rows(
                (ell,), [tau] + [g.apply(tau) for g in gammas])[0]
            for g, lhs in zip(gammas, images):
                worst_st = max(worst_st, special.modular_law(
                    g, base, lhs, tau, halves=4 * ell - 1, psi=-1))
                n_checked += 1
            low = rank.lowering_readings(
                *rank.lowering_values((ell,), tau), tau)
            worst_lower = max(worst_lower, low["conjugate_plus"].item())
            for key, val in low.items():
                variants[key] = max(variants.get(key, 0.0), val.item())
    winner = min(variants, key=variants.get)
    elapsed = time.perf_counter() - start
    ok = worst_st <= 1e-6 and worst_lower <= 1e-5 \
        and winner == "conjugate_plus" and elapsed < 30.0
    _emit(capsys, 4, ok,
          f"completed rank: transform {worst_st:.1e} <= 1e-6 over"
          f" {n_checked} cases; lowering"
          f" {worst_lower:.1e} <= 1e-5, variant={winner}"
          f" ({elapsed:.1f}s < 30s)")
    assert worst_st <= 1e-6
    assert worst_lower <= 1e-5
    assert winner == "conjugate_plus"
    assert elapsed < 30.0


def test_criterion_5_weight_three_halves(capsys):
    worst_match = 0.0
    worst_routes = 0.0
    worst_single = 0.0
    for tau in (Tau(0.19, 0.87), Tau(-0.31, 1.42)):
        _, parts = rank.three_halves_residual(tau)
        worst_match = max(worst_match, parts.pop("match"))
        worst_routes = max(worst_routes, *parts.values())
        for k in range(-2, 3):
            worst_single = max(worst_single,
                               rank.single_mode_identity_residual(k, tau))
    ok = worst_match <= 1e-7 and worst_routes <= 1e-7 \
        and worst_single <= 1e-8
    _emit(capsys, 5, ok,
          f"weight-3/2 layer: assembly match {worst_match:.1e} and route"
          f" gaps {worst_routes:.1e} <= 1e-7 at two base points;"
          f" single-mode integral {worst_single:.1e} <= 1e-8 for k in -2..2")
    assert worst_match <= 1e-7
    assert worst_routes <= 1e-7
    assert worst_single <= 1e-8


def test_criterion_6_joyce_completion(capsys):
    rng = random.Random("acceptance:6")
    worst_tr = 0.0
    worst_low = 0.0
    worst_star = 0.0
    worst_limit = 0.0
    display = 0.0
    for _ in range(2):
        tau = sample_tau(rng)
        gammas = [GEN_T, GEN_S] + [sample_mobius(rng, tau) for _ in range(4)]
        for k in (2, 4, 6):
            base, *images = joyce.joyce_hat_rows(
                (k,), [tau] + [g.apply(tau) for g in gammas])[0]
            for g, lhs in zip(gammas, images):
                worst_tr = max(worst_tr, special.modular_law(
                    g, base, lhs, tau, halves=2 * k))
            low = joyce.lowering_readings(
                *joyce.lowering_values((k,), tau), tau)
            worst_low = max(worst_low, low["stated"].item())
            if k == 2:
                display = max(display, low["corollary_display"].item())
            worst_limit = max(worst_limit, relative_residual(
                *joyce.appell_limit_values((k,), tau)).item())
        for g in list(LEVEL4_NEGATIVE) \
                + [joyce.sample_gamma1_4(rng) for _ in range(3)]:
            z = sample_z(rng, 0.2)
            nus, points = [-1, -1, 0, 0], np.array([0.0, z, 0.0, z])
            res, _ = joyce.theta_star_residual(
                g, z, joyce.theta_star_value(nus, points, tau),
                joyce.theta_star_value(nus, points / g.j_factor(tau),
                                       g.apply(tau)), tau)
            worst_star = max(worst_star, res)
    ok = worst_tr <= 1e-6 and worst_low <= 1e-5 \
        and worst_star <= 1e-8 and worst_limit <= 1e-6
    _emit(capsys, 6, ok,
          f"completed lattice series: transform {worst_tr:.1e} <= 1e-6 for"
          f" k=2,4,6; lowering {worst_low:.1e} <= 1e-5 (stated variant;"
          f" printed-corollary variant off by {display:.1e}); level-four"
          f" multiplier {worst_star:.1e} <= 1e-8; moment limit"
          f" {worst_limit:.1e} <= 1e-6")
    assert worst_tr <= 1e-6
    assert worst_low <= 1e-5
    assert worst_star <= 1e-8
    assert worst_limit <= 1e-6


def test_criterion_7_determinism_and_runtime(capsys):
    start = time.perf_counter()
    reports1, code1 = run_suite(SuiteConfig())
    elapsed = time.perf_counter() - start
    reports2, code2 = run_suite(SuiteConfig())
    same = report_fingerprint(reports1) == report_fingerprint(reports2)
    ok = same and code1 == 0 and code2 == 0 and elapsed < 120.0
    _emit(capsys, 7, ok,
          f"determinism: two seeded default runs give identical reports"
          f" up to timings; all {len(reports1)} checks pass"
          f" ({elapsed:.1f}s < 120s)")
    assert same
    assert code1 == 0
    assert code2 == 0
    assert elapsed < 120.0
