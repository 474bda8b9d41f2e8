import cmath
import math
import random

import numpy as np
import pytest

from mockmod import (DomainError, GEN_S, GEN_T, Mobius, SuiteConfig, Tau,
                     run_suite, theta_value)
from mockmod.appell import raw_moments
from mockmod.core import lattice_window, relative_residual, sample_mobius
from mockmod.exactq import QSeries
from mockmod.joyce import (_core_value, _joyce_series, _theta_block_derivatives,
                           theta_block_series)
from mockmod.special import eval_qseries, modular_law, upper_gamma_scaled
from mockmod.joyce import (bracket_coefficient_identity,
                           appell_limit_values, bracket_constant,
                           joyce_brackets, joyce_hat_rows,
                           kronecker_symbol, lowering_readings,
                           lowering_values,
                           s_nu_lowering_residual, s_nu_route_residual,
                           s_nu_tower, sample_gamma1_4, theta_block_deriv0,
                           theta_ln_route_residual, theta_star_multiplier,
                           theta_star_residual, theta_star_value)

TWO_PI = 2.0 * math.pi


def brute_jacobi(a: int, n: int) -> int:
    """Independent oracle for odd positive n: product of Legendre symbols
    by Euler's criterion over the prime factorization of n."""
    assert n > 0 and n % 2 == 1
    out = 1
    m = n
    for p in range(3, m + 1, 2):
        while m % p == 0:
            e = pow(a % p, (p - 1) // 2, p)
            out *= {0: 0, 1: 1, p - 1: -1}[e]
            m //= p
        if m == 1:
            break
    return out


def test_kronecker_against_euler_criterion():
    rng = random.Random(5)
    for _ in range(200):
        a = rng.randint(-40, 40)
        n = rng.randrange(1, 60, 2)
        assert kronecker_symbol(a, n) == brute_jacobi(a, n)


def test_kronecker_special_cases():
    assert kronecker_symbol(2, 3) == -1
    assert kronecker_symbol(2, 7) == 1
    assert kronecker_symbol(3, -1) == 1
    assert kronecker_symbol(-3, -1) == -1
    assert kronecker_symbol(4, 2) == 0
    assert kronecker_symbol(7, 2) == 1
    assert kronecker_symbol(3, 2) == -1
    assert kronecker_symbol(5, 1) == 1
    assert kronecker_symbol(0, 1) == 1
    assert kronecker_symbol(0, 5) == 0


def test_kronecker_multiplicative_in_top():
    rng = random.Random(8)
    for _ in range(100):
        a = rng.randint(-30, 30)
        b = rng.randint(-30, 30)
        n = rng.randrange(1, 40, 2)
        assert kronecker_symbol(a * b, n) \
            == kronecker_symbol(a, n) * kronecker_symbol(b, n)


def brute_block_deriv(nu: int, a: int, tau: Tau) -> complex:
    total = 0.0 + 0.0j
    half = (nu + 1) / 2.0
    for m in range(-30, 31):
        mm = m + half
        total += -((TWO_PI * 1j * mm) ** a
                   * cmath.exp(TWO_PI * 1j * mm * mm * tau))
    return total


def test_theta_block_derivatives_against_lattice(tau_a):
    for nu in (-1, 0):
        for a in (0, 1, 2, 5):
            got = theta_block_deriv0(nu, a, tau_a)
            assert got == pytest.approx(brute_block_deriv(nu, a, tau_a),
                                        abs=1e-12, rel=1e-12)


def recursive_s_nu_tower(nu: int, tau: Tau, depth: int) -> list:
    """Reference: the term-wise recursion the closed form replaced.  Each
    lattice term carries the state A Gamma(-1/2, x) + sum_r B_r v^(r/2)
    e^(-x) times q^(-m^2); D maps A to -m^2 A, feeds A/(8 pi^(3/2) |m|)
    into the tail at r = -3, and shifts B_r to -B_r r/(8 pi) at r - 2."""
    v = tau.v
    # each row summed left to right as its terms come
    rows = [0j] * (depth + 1)
    m_max = lattice_window(TWO_PI * v) + 1 + depth
    half = (nu + 1) / 2.0
    m = -m_max
    while m + half <= m_max + 0.25:
        mm = m + half
        m += 1
        x = 4.0 * math.pi * mm * mm * v
        if mm == 0.0:
            A = gamma = 0.0
            tail = {-1: 1.0}
        else:
            A = math.sqrt(math.pi) * abs(mm)
            gamma = upper_gamma_scaled(x)
            tail = {}
        phase = cmath.exp(-TWO_PI * 1j * mm * mm * tau.u) * math.exp(-x / 2.0)
        for j in range(depth + 1):
            val = A * gamma
            for r, B in tail.items():
                val += B * v ** (r / 2.0)
            rows[j] += val * phase
            ntail = {}
            if A:
                ntail[-3] = A / (8.0 * math.pi ** 1.5 * abs(mm))
                A = -mm * mm * A
            for r, B in tail.items():
                ntail[r - 2] = ntail.get(r - 2, 0.0) - B * r / (8.0 * math.pi)
            tail = ntail
    return rows


@pytest.mark.parametrize("nu", [-1, 0])
def test_closed_form_tower_matches_recursion(nu):
    for v in np.geomspace(0.05, 5.0, 12):
        tau = Tau(0.37, float(v))
        for depth in range(5):
            want = np.array(recursive_s_nu_tower(nu, tau, depth))
            err = np.abs(s_nu_tower(nu, [tau], depth)[0] - want)
            assert err.max() <= 1e-14 * np.abs(want).max()
            # row by row: the deep rows of nu = 0 at large v cancel in both
            # forms; 1.4e-13 measured at v = 5, depth 4, where 50-digit
            # mpmath puts the closed form at 4.3e-14, the recursion 1.8e-13
            assert (err <= 2e-13 * np.abs(want)).all()


def test_s_routes_agree(tau_a, tau_b):
    for tau in (tau_a, tau_b):
        for nu in (-1, 0):
            assert s_nu_route_residual(nu, tau, depth=2) < 1e-12


def test_s_lowering(tau_a):
    for nu in (-1, 0):
        assert s_nu_lowering_residual(nu, tau_a) < 1e-9


def test_s_value_is_finite(tau_a):
    for nu in (-1, 0):
        assert np.isfinite(s_nu_tower(nu, [tau_a], 2)).all()


def test_theta_ln_routes(tau_a, tau_b):
    for tau in (tau_a, tau_b):
        for ell in (1, 3, 5):
            for nu in (-1, 0):
                assert theta_ln_route_residual(ell, nu, tau) < 1e-12


def test_bracket_constants_frozen():
    assert bracket_constant(2) == pytest.approx(1.0 / (8.0 * math.pi))
    assert bracket_constant(4) == pytest.approx(-1.0 / (4.0 * math.pi))
    assert bracket_constant(6) == pytest.approx(1.0 / (3.0 * math.pi))


def test_bracket_coeffs_by_hand():
    from mockmod.joyce import _bracket_coeffs
    # (-1)^j C(kap - 1/2, kap - j) C(kap + 1/2, j), written out
    assert _bracket_coeffs(0) == (1.0,)
    assert _bracket_coeffs(1) == (0.5, -1.5)
    assert _bracket_coeffs(2) == (3 / 8, -15 / 4, 15 / 8)
    assert _bracket_coeffs(2) is _bracket_coeffs(2)


def test_bracket_coefficient_identity_exact():
    for ell in (1, 3, 5, 7, 9, 11, 13):
        assert bracket_coefficient_identity(ell)


def test_joyce_hat_structure(tau_a):
    # the value is core + delta + bracket, the delta 1/(8 pi v) at k = 2 only
    for k, delta in ((2, 1.0 / (8.0 * math.pi * tau_a.v)), (4, 0.0)):
        value = joyce_hat_rows((k,), [tau_a])[0, 0]
        bracket = bracket_constant(k) * (joyce_brackets((k,), -1, [tau_a])[0, 0]
                                         + joyce_brackets((k,), 0, [tau_a])[0, 0])
        rest = value - _core_value(k, [tau_a])[0] - bracket
        assert rest == pytest.approx(delta, abs=1e-14 * abs(value))
    with pytest.raises(DomainError):
        joyce_hat_rows((3,), [tau_a])
    with pytest.raises(DomainError):
        joyce_hat_rows((0,), [tau_a])


# 13 points, v from 0.2 to 2, as a transform check's point and images
BATCH = [Tau(round(-0.48 + 0.08 * i, 2), float(v))
         for i, v in enumerate(np.geomspace(0.2, 2.0, 13))]


def test_batch_values_equal_one_point_values():
    # the batch takes the cuts and windows of its smallest v; every value
    # equals its one-point value bit for bit here (bound 1e-14 relative)
    for k in (2, 4, 6):
        got = joyce_hat_rows((k,), BATCH)[0]
        want = np.array([joyce_hat_rows((k,), [t])[0, 0] for t in BATCH])
        assert (np.abs(got - want) <= 1e-14 * np.abs(want)).all()
    # the tower down to v = 0.02, where a window taken at the largest v
    # falls short: 1.4e-16 measured
    wide = [Tau(t.u, 0.1 * t.v) for t in BATCH] + BATCH
    for nu in (-1, 0):
        got = s_nu_tower(nu, wide, 4)
        want = np.array([s_nu_tower(nu, [t], 4)[0] for t in wide])
        assert (np.abs(got - want) <= 1e-14 * np.abs(want)).all()


@pytest.mark.parametrize("ks", [(2, 4, 6), (4,), (6, 2)])
def test_weight_rows_equal_one_weight_values(ks, tau_a):
    # every weight at its own point and 12 images, as joyce.transform
    # evaluates them, the towers and theta blocks in shared passes: each
    # row equals its weight computed alone to 1e-14 relative
    rng = random.Random(5)
    sets = [[tau_a] + [g.apply(tau_a) for g in
                       [GEN_T, GEN_S] + [sample_mobius(rng, tau_a)
                                         for _ in range(10)]] for _ in ks]
    for rows in (joyce_hat_rows(ks, sets), joyce_hat_rows(ks, BATCH)):
        assert rows.shape == (len(ks), 13)
    for k, points, row, shared in zip(ks, sets, joyce_hat_rows(ks, sets),
                                      joyce_hat_rows(ks, BATCH)):
        for got, want in ((row, joyce_hat_rows((k,), points)[0]),
                          (shared, joyce_hat_rows((k,), BATCH)[0])):
            assert (np.abs(got - want) <= 1e-14 * np.abs(want)).all()
    # the lowering and Appell-limit values: one pass for every weight, a
    # row per weight beside the values of the point
    for values in (lowering_values, appell_limit_values):
        got = values(ks, tau_a)
        for row, k in enumerate(ks):
            want = values((k,), tau_a)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                a = a[row:row + 1] if np.ndim(a) == 2 else a
                assert (np.abs(a - b) <= 1e-14 * np.abs(b)).all()


def test_core_cut_matches_long_series():
    # the tail-bound cut agrees with T = 400 from v = 2 down to 0.07 (0.0
    # measured), where a cut one step of 64 shorter misses by 1e-11 or more
    for k in (2, 4, 6):
        for v in (0.07, 0.1, 0.2, 0.5, 1.0, 2.0):
            tau = Tau(0.13, v)
            want = eval_qseries(_joyce_series(k, 400), tau)
            assert abs(_core_value(k, [tau])[0] - want) <= 1e-15 * abs(want)
    tau = Tau(0.13, 0.07)
    for k in (2, 4):
        want = eval_qseries(_joyce_series(k, 400), tau)
        assert abs(eval_qseries(_joyce_series(k, 64), tau) - want) \
            > 1e-12 * abs(want)


def test_transform_at_generators(tau_a):
    gs = (GEN_S, GEN_T, GEN_S @ GEN_T)
    for k in (2, 4, 6):
        base, *images = joyce_hat_rows(
            (k,), [tau_a] + [g.apply(tau_a) for g in gs])[0]
        for g, lhs in zip(gs, images):
            assert modular_law(g, base, lhs, tau_a, halves=2 * k) < 1e-10


def _lowering_variants(k, tau):
    """Every reading's residual at the weight-k row of the lowering law."""
    return lowering_readings(*lowering_values((k,), tau), tau)


def test_lowering_adjudication(tau_a):
    variants = _lowering_variants(2, tau_a)
    assert variants["stated"] < 1e-9
    # the printed simplification disagrees with the stated law by percent
    # scale, far outside finite-difference noise
    assert variants["corollary_display"] > 1e-2
    variants6 = _lowering_variants(6, tau_a)
    assert list(variants6) == ["stated"]
    assert variants6["stated"] < 1e-9


def test_appell_moment_limit(tau_a):
    # five Richardson samples remove the w^4 term, mostly from the
    # prefactor e^(2 pi i w): the relative error here is 2.7e-12 (4.2e-9
    # with four); the absolute gap keeps its bound beside the relative one
    for k in (2, 4, 6):
        (exact,), (limit,) = appell_limit_values((k,), tau_a)
        assert relative_residual(exact, limit) < 1e-10
        (moment,), _ = raw_moments((k - 1,), tau_a)
        gap = 2.0 * _core_value(k, [tau_a])[0] - moment
        assert abs(gap) < 1e-9


def test_theta_star_multiplier_domain():
    with pytest.raises(DomainError):
        theta_star_multiplier(0, GEN_S)
    with pytest.raises(DomainError):
        theta_star_multiplier(0, Mobius(1, 0, 2, 1))
    val = theta_star_multiplier(0, Mobius(1, 0, 4, 1))
    assert abs(abs(val) - 1.0) < 1e-12


def test_theta_star_periodicity(tau_a):
    # nu = 0 block is 1-periodic in z up to the index-killing gauge
    z = 0.13 + 0.06j
    a = theta_star_value(0, z, tau_a)
    assert math.isfinite(abs(a))


def star_residual(g: Mobius, z: complex, tau: Tau) -> tuple:
    """``theta_star_residual`` on its four rows, evaluated here."""
    nus, points = [-1, -1, 0, 0], np.array([0.0, z, 0.0, z])
    base = theta_star_value(nus, points, tau)
    lhs = theta_star_value(nus, points / g.j_factor(tau), g.apply(tau))
    return theta_star_residual(g, z, base, lhs, tau)


def test_theta_star_batch_rows_equal_one_point_calls():
    # the 32 image rows of one point, the lowest Im gamma tau near 1e-4,
    # and the 32 rows at tau: each within 1e-14 of its one-point value
    tau = Tau(-1.0 / 72.0, 2.0)
    rng = random.Random(5)
    mats = [sample_gamma1_4(rng) for _ in range(4)] \
        + [Mobius(5, 2, 12, 5), Mobius(17, 3, 28, 5), Mobius(5, -3, 12, -7),
           Mobius(1, 0, 72, 1)]
    images = [g.apply(tau) for g in mats]
    assert min(t.v for t in images) < 1e-4
    rows = [(nu, point, g) for g in mats for nu in (-1, 0)
            for point in (0.0, 0.23 + 0.11j)]
    nus = [nu for nu, _, _ in rows]
    image_rows = [(nu, point / g.j_factor(tau), g.apply(tau))
                  for nu, point, g in rows]
    for batch, one in (
            (theta_star_value(nus, [p for _, p, _ in rows], tau),
             [theta_star_value(nu, p, tau) for nu, p, _ in rows]),
            (theta_star_value(nus, [w for _, w, _ in image_rows],
                              [t for _, _, t in image_rows]),
             [theta_star_value(*row) for row in image_rows])):
        assert len(batch) == 32
        for got, want in zip(batch, one):
            assert abs(got - want) <= 1e-14 * abs(want)
    # the theta rows underneath, taken directly
    args = [(w + nu * t + 0.5, Tau(2.0 * t.u, 2.0 * t.v))
            for nu, w, t in image_rows]
    batch = theta_value([w for w, _ in args], [t for _, t in args])
    for got, (w, t) in zip(batch, args):
        want = theta_value(w, t)
        assert abs(got - want) <= 1e-14 * abs(want)


def test_theta_star_value_refuses_other_classes(tau_a):
    with pytest.raises(DomainError):
        theta_star_value([-1, 0, 1], 0.1, tau_a)


def test_level_four_transform_fixed_matrices(tau_a):
    for g in (Mobius(5, 2, 12, 5), Mobius(17, 3, 28, 5),
              Mobius(5, -3, 12, -7)):
        res, parts = star_residual(g, 0.23 + 0.11j, tau_a)
        assert res < 1e-10
        assert parts["quadratic_symbol_gap"] < 1e-12


def test_level_four_sampler_congruences():
    rng = random.Random(13)
    for _ in range(40):
        g = sample_gamma1_4(rng)
        a, b, c, d = g.entries()
        assert a * d - b * c == 1
        assert c % 4 == 0 and c != 0
        assert a % 4 == 1 and d % 4 == 1


def test_level_four_transform_sampled(tau_b):
    rng = random.Random(21)
    for _ in range(5):
        g = sample_gamma1_4(rng)
        res, _ = star_residual(g, 0.23 + 0.11j, tau_b)
        assert res < 1e-10


def test_warm_suites_build_no_theta_block_series():
    # every theta-block cut is a multiple of 64, so once suites at seeds
    # 2026 and 7 have run, further seeds find their series in the cache
    caches = (theta_block_series, _theta_block_derivatives)
    for f in caches:
        f.cache_clear()
    for seed in (2026, 7):
        run_suite(SuiteConfig(seed=seed))
    built = sum(f.cache_info().misses for f in caches)
    for seed in (0, 1):
        run_suite(SuiteConfig(seed=seed))
    assert sum(f.cache_info().misses for f in caches) == built


def test_nan_theta_star_sample_fails_the_check(monkeypatch):
    import mockmod.joyce as jy
    real = jy.theta_star_value

    def poisoned(nu, z, tau):
        # NaN on the rows at the sampled z only; the z = 0 rows stay finite
        return np.where(np.asarray(z) != 0, math.nan, real(nu, z, tau))

    monkeypatch.setattr(jy, "theta_star_value", poisoned)
    (rep,), code = run_suite(SuiteConfig(only=("joyce.theta-star",)))
    assert code == 1
    assert math.isnan(rep.residual)


def test_nan_deepest_tower_entry_fails_the_check(monkeypatch):
    import mockmod.joyce as jy
    real = jy.s_nu_tower

    def poisoned(nu, taus, depth):
        out = real(nu, taus, depth)
        out[:, -1] = math.nan
        return out

    monkeypatch.setattr(jy, "s_nu_tower", poisoned)
    (rep,), code = run_suite(SuiteConfig(only=("joyce.s-routes",)))
    assert code == 1
    assert math.isnan(rep.residual)


def test_cold_suite_differentiates_each_theta_block_once(monkeypatch):
    # each derivative order is built from the order below it in the cache,
    # so no series is differentiated twice
    inputs = []
    real = QSeries.derivative

    def counted(self):
        inputs.append(self)
        return real(self)

    monkeypatch.setattr(QSeries, "derivative", counted)
    for f in (theta_block_series, _theta_block_derivatives):
        f.cache_clear()
    run_suite(SuiteConfig())
    assert len(inputs) == 8
    assert len({id(s) for s in inputs}) == len(inputs)


def test_lowering_reads_the_theta_nulls_once_per_point(monkeypatch):
    # the readings of every weight share the theta nulls of their point,
    # and the points of the grid share one call per null: two calls, where
    # each point took its own (4) and each reading of each weight read both
    # (16)
    import mockmod.joyce as jy
    calls = []
    real = jy.theta_block_deriv0

    def counted(nu, a, tau):
        calls.append((nu, a, tau))
        return real(nu, a, tau)

    monkeypatch.setattr(jy, "theta_block_deriv0", counted)
    (rep,), code = run_suite(SuiteConfig(only=("joyce.lowering",)))
    assert code == 0
    assert [(nu, a, np.shape(tau)) for nu, a, tau in calls] \
        == [(-1, 0, (2,)), (0, 0, (2,))]
