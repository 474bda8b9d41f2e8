import cmath
import itertools
import math
import random

import mpmath as mp
import numpy as np
import pytest

from mockmod import DomainError, GEN_S, GEN_T, SuiteConfig, Tau, run_suite
from mockmod import theta_value
from mockmod.jets import zwegers_S_columns
from mockmod.joyce import _core_value
from mockmod.appell import (_appell_terms, appell_columns, appell_hat_values,
                            appell_index, completed_moments,
                            moment_difference_values,
                            moment_difference_variants, raw_moment,
                            raw_moments)
from mockmod.special import elliptic_law, modular_law

mp.mp.dps = 35


def mp_geometric(r, terms: int):
    """sum_{m < terms} r^m, each power a running product."""
    total = mp.mpc(0)
    power = mp.mpc(1)
    for _ in range(terms):
        total += power
        power *= r
    return total


def mp_appell_A(ell: int, z1: complex, z2: complex, tau: complex) -> complex:
    """Independent oracle: expand each 1/(1 - x q^n) geometrically instead
    of using folded closed denominators.  35-digit arithmetic, both
    lattice directions summed as a genuine double sum."""
    q = mp.exp(2j * mp.pi * mp.mpc(tau))
    x = mp.exp(2j * mp.pi * mp.mpc(z1))
    y = mp.exp(2j * mp.pi * mp.mpc(z2))
    total = mp.mpc(0)
    for n in range(-14, 15):
        head = (-1) ** (ell * n) * y ** n * q ** (mp.mpf(ell * n * (n + 1)) / 2)
        if n >= 0:
            # sum_m (x q^n)^m, convergent since |x q^n| < 1 for n >= 1;
            # n = 0 handled by the closed form to avoid |x| >= 1 cases
            if n == 0:
                total += head / (1 - x)
            else:
                geom = mp_geometric(x * q ** n, 120)
                total += head * geom
        else:
            inv = 1 / (x * q ** n)
            geom = -inv * mp_geometric(inv, 120)
            total += head * geom
    return complex(mp.exp(1j * mp.pi * ell * z1) * total)


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_appell_A_against_geometric_oracle(ell, tau_a):
    points = ((0.23 + 0.11j, -0.17 + 0.06j), (0.41 - 0.08j, 0.3 + 0.2j))
    a, _ = appell_columns(ell, [p[0] for p in points], [p[1] for p in points],
                          tau_a, 0)
    for (z1, z2), got in zip(points, a[:, 0]):
        want = mp_appell_A(ell, z1, z2, tau_a)
        assert got == pytest.approx(want, rel=1e-12)


def test_appell_pole_guard(tau_a):
    with pytest.raises(DomainError):
        appell_columns(2, 0.0j, 0.1 + 0.0j, tau_a, 0)
    with pytest.raises(DomainError):
        appell_columns(2, tau_a, 0.1 + 0.0j, tau_a, 0)  # z1 on the lattice
    with pytest.raises(DomainError):
        appell_columns(0, 0.2 + 0.0j, 0.1 + 0.0j, tau_a, 0)


def test_batch_pole_guard_reads_each_row_against_its_own_tau(tau_a, tau_b):
    # tau_b is a pole of the row on tau_b only
    appell_columns(2, [tau_b, 0.2], 0.1, [tau_a, tau_b], 0)
    with pytest.raises(DomainError):
        appell_columns(2, [0.2, tau_b + 1.0 + 5e-7], 0.1, [tau_a, tau_b], 0)


def test_appell_overflow_is_domain_error():
    # pi y2^2 / (ell v) = 785 passes the lattice peak guard of 600
    with pytest.raises(DomainError):
        appell_columns(2, 0.3 + 0.1j, 0.1 + 20j, Tau(0.1, 0.8), 3)


def test_appell_z2_jet_consistency(tau_a):
    z1 = 0.27 + 0.13j
    z2 = 0.05 - 0.02j
    col = appell_columns(3, z1, z2, tau_a, 6)[0][0]
    h = 1e-6
    here, up, down = appell_columns(3, z1, [z2, z2 + h, z2 - h], tau_a, 0)[0]
    assert col[0] == pytest.approx(here[0], rel=1e-13)
    assert col[1] == pytest.approx((up[0] - down[0]) / (2.0 * h), rel=1e-8)


def test_appell_hat_jet_value_matches(tau_a):
    z1 = 0.19 + 0.07j
    z2 = 0.12 + 0.03j
    a, comp = appell_columns(2, z1, z2, tau_a, 4)
    (value,) = appell_hat_values(2, z1, z2, tau_a)
    assert a[0, 0] + 0.5j * comp[0, 0] == pytest.approx(value, rel=1e-12)


def test_appell_hat_column_from_finite_differences(tau_a):
    # the completion is genuinely nonholomorphic in z2, so a real step sees
    # c10 + c01 and an imaginary step c10 - c01; the column holds c10
    z1 = 0.19 + 0.07j
    z2 = 0.12 + 0.03j
    a, comp = appell_columns(2, z1, z2, tau_a, 4)
    h = 1e-5
    up, down, up_i, down_i = appell_hat_values(
        2, z1, [z2 + h, z2 - h, z2 + 1j * h, z2 - 1j * h], tau_a)
    fd_r = (up - down) / (2.0 * h)
    fd_i = (up_i - down_i) / (2j * h)
    c10 = (fd_r + fd_i) / 2.0
    c01 = (fd_r - fd_i) / 2.0
    assert a[0, 1] + 0.5j * comp[0, 1] == pytest.approx(c10, rel=1e-7)
    assert abs(c01) > 1e-6  # nonholomorphic for real


@pytest.mark.parametrize("order", [0, 3])
def test_batch_rows_equal_one_row_calls(order, tau_a):
    # an appell.modular case, the point and its 12 images (z/j at gamma
    # tau), and 13 points with v from 0.05 to 2 at one (z1, z2): a batch
    # takes the windows of its least Im tau and its widest row
    from mockmod.core import sample_mobius
    rng = random.Random(5)
    z1, z2 = 0.21 + 0.12j, -0.15 + 0.04j
    gs = [GEN_T, GEN_S] + [sample_mobius(rng, tau_a) for _ in range(10)]
    js = np.array([1.0] + [g.j_factor(tau_a) for g in gs])
    spread = [Tau(round(-0.48 + 0.08 * i, 2), float(v))
              for i, v in enumerate(np.geomspace(0.05, 2.0, 13))]
    for z1s, z2s, taus in ((z1 / js, z2 / js,
                            [tau_a] + [g.apply(tau_a) for g in gs]),
                           ([z1] * 13, [z2] * 13, spread)):
        for ell in (2, 3):
            batch = appell_columns(ell, z1s, z2s, taus, order)
            for i, t in enumerate(taus):
                one = appell_columns(ell, z1s[i], z2s[i], t, order)
                for got, want in zip(batch, one):
                    assert np.abs(got[i] - want[0]).max() \
                        <= 1e-14 * np.abs(want[0]).max()


def test_elliptic_shift_all_patterns(tau_a):
    z1 = 0.21 + 0.12j
    z2 = -0.15 + 0.04j
    shifts = list(itertools.product((0, 1), repeat=4))
    for ell in (2, 3):
        (base,) = appell_hat_values(ell, z1, z2, tau_a)
        vals = appell_hat_values(
            ell, [z1 + n1 * tau_a + m1 for n1, m1, _, _ in shifts],
            [z2 + n2 * tau_a + m2 for _, _, n2, m2 in shifts], tau_a)
        for (n1, m1, n2, m2), lhs in zip(shifts, vals):
            res = elliptic_law((n1, n2), (m1, m2), (z1, z2), base, lhs,
                               tau_a, index=appell_index(ell))
            assert res < 1e-12


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_completion_terms_equal_per_class_products(ell, tau_a, tau_b):
    # the batched completion against each class's theta x S product, the
    # thetas from theta_value and the S-values from one lattice per class
    points = [(0.5 + 0.0j, z2) for z2 in (0.5 + 0.0j, 0.5 * tau_a,
                                          0.5 * (tau_a + 1.0))]
    points += [(0.21 + 0.12j, -0.15 + 0.04j),
               # tail side: every S base lies far above the real axis
               (0.2 + 3.0j, 0.1 - 0.4j)]
    for tau in (tau_a, tau_b):
        lat = ell * tau
        _, comp = appell_columns(ell, [p[0] for p in points],
                                 [p[1] for p in points], tau, 0)
        for (z1, z2), got in zip(points, comp[:, 0]):
            want = 0j
            for nu in range(ell):
                shift = nu * tau + (ell - 1) / 2.0
                want += (cmath.exp(2j * math.pi * nu * z1)
                         * theta_value(z2 + shift, lat)
                         * complex(zwegers_S_columns([ell * z1 - z2 - shift],
                                                     lat, 0)[0, 0]))
            assert abs(got - want) <= 1e-13 * max(abs(want), 1.0)


def weight_one_residual(ell, z1, z2, g, base, lhs, tau) -> float:
    """The weight-one law of Ahat_ell at (z1, z2), index ``appell_index``."""
    return modular_law(g, base, lhs, tau, halves=2, index=appell_index(ell),
                       z=(z1, z2))


def test_modularity_generators(tau_a, tau_b):
    z1 = 0.21 + 0.12j
    z2 = -0.15 + 0.04j
    gs = (GEN_S, GEN_T, GEN_S @ GEN_T)
    for tau in (tau_a, tau_b):
        js = np.array([1.0] + [g.j_factor(tau) for g in gs])
        taus = [tau] + [g.apply(tau) for g in gs]
        for ell in (2, 3):
            base, *images = appell_hat_values(ell, z1 / js, z2 / js, taus)
            for g, lhs in zip(gs, images):
                assert weight_one_residual(ell, z1, z2, g, base, lhs,
                                           tau) < 1e-12


def half_period_pairs(ell: int, tau: Tau, vanishing: bool) -> list:
    """Pairs (z1, z2) of half periods where Ahat_ell vanishes identically
    (z1 = z2 at level two, z1 != z2 at level three) or does not."""
    halves = (0.5 + 0.0j, 0.5 * tau, 0.5 * (tau + 1.0))
    return [(a, b) for a in halves for b in halves
            if ((a == b) == (ell == 2)) == vanishing]


def test_modularity_at_torsion_points(tau_a, tau_b):
    for tau in (tau_a, tau_b):
        for g in (GEN_S, GEN_T, GEN_S @ GEN_T):
            jf = g.j_factor(tau)
            for ell in (2, 3):
                for z1, z2 in half_period_pairs(ell, tau, vanishing=False):
                    base, lhs = appell_hat_values(ell, [z1, z1 / jf],
                                                  [z2, z2 / jf],
                                                  [tau, g.apply(tau)])
                    assert abs(base) > 1e-3
                    assert weight_one_residual(ell, z1, z2, g, base, lhs,
                                               tau) < 1e-12


def test_completed_sum_vanishes_at_the_other_torsion_pairs(tau_a, tau_b):
    # the pairs the torsion check leaves out: Ahat is roundoff there,
    # measured against the modulus of the Appell terms it sums
    for tau in (tau_a, tau_b):
        for ell in (2, 3):
            z1, z2 = np.array(half_period_pairs(ell, tau, vanishing=True)).T
            vals = appell_hat_values(ell, z1, z2, tau)
            _, terms = _appell_terms(ell, z1, z2, np.full(len(z1), tau))
            scale = np.abs(np.exp(1j * math.pi * ell * z1)) \
                * np.abs(terms).sum(axis=1)
            assert (np.abs(vals) <= 1e-13 * scale).all()


def test_laws_compare_values_they_are_given(monkeypatch):
    # the case builders evaluate the kernel; a law only compares
    import mockmod.appell as ap

    def refuse(*args):
        raise AssertionError("a law evaluated the Appell kernel")

    monkeypatch.setattr(ap, "appell_columns", refuse)
    with pytest.raises(AssertionError):
        ap.appell_hat_values(2, 0.2, 0.1, Tau(0.1, 1.0))
    tau = Tau(0.1, 1.0)
    assert weight_one_residual(2, 0.2, 0.1, GEN_S, 1.0 + 0j, 1.0 + 0j,
                               tau) >= 0.0
    assert elliptic_law((1, 1), (0, 1), (0.2, 0.1), 1.0 + 0j, 1.0 + 0j, tau,
                        index=ap.appell_index(2)) >= 0.0


def test_warm_suite_makes_few_appell_kernel_passes(monkeypatch):
    import mockmod.appell as ap
    run_suite(SuiteConfig())
    calls = itertools.count()
    real = ap._appell_terms

    def counted(*args):
        next(calls)
        return real(*args)

    monkeypatch.setattr(ap, "_appell_terms", counted)
    _, code = run_suite(SuiteConfig())
    assert code == 0
    # one kernel pass per point and level (47 today), not one per value
    assert next(calls) <= 60


def test_raw_moment_error_estimate(tau_a, tau_b):
    # the odd moments have an exact route: twice the Joyce core series
    for tau in (tau_a, tau_b):
        for k in (2, 4, 6):
            val, err = raw_moment(k - 1, tau)
            assert abs(val - 2.0 * _core_value(k, [tau])[0]) <= err


@pytest.mark.parametrize("orders", [(1, 2, 3), (2,), (3, 1), (1, 3, 5)])
def test_order_rows_equal_one_order_values(orders, tau_a):
    # every moment order from one pass of each kernel at the top order:
    # each row equals its order computed alone to 1e-14 relative
    for batched in (raw_moments, completed_moments):
        got = batched(orders, tau_a)
        assert len(got) == len(orders)
        for order, (val, _) in zip(orders, got):
            ((want, _),) = batched((order,), tau_a)
            assert abs(val - want) <= 1e-14 * abs(want)
    for order, got in zip(orders, moment_difference_values(orders, tau_a)):
        (want,) = moment_difference_values((order,), tau_a)
        assert got[0] == want[0] == order
        for a, b in zip(got[1:], want[1:]):
            assert abs(a - b) <= 1e-14 * abs(b)


def test_completed_moment_differs_from_raw(tau_a):
    raw, _ = raw_moment(1, tau_a)
    ((comp, _),) = completed_moments((1,), tau_a)
    assert abs(raw - comp) > 1e-6  # the completion genuinely contributes


def test_moment_difference_closed_form(tau_a, tau_b):
    for tau in (tau_a, tau_b):
        for order in (1, 2, 3):
            res = moment_difference_variants(order, tau)
            assert res["negative-half-i-jet"] < 1e-10
            # the other sign of the jet term is refuted, not noise
            assert res["positive-half-i-jet"] > 1e-6
