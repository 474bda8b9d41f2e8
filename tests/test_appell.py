import cmath
import math

import mpmath as mp
import pytest

from mockmod import DomainError, GEN_S, GEN_T, Tau, theta_value
from mockmod.jets import zwegers_S_values
from mockmod.appell import (appell_A, appell_A_z2_column,
                            appell_completion_terms, appell_hat,
                            appell_hat_z2_column, completed_moment,
                            elliptic_shift_residual, modular_residual,
                            moment_difference_variants, raw_moment)

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
    for z1, z2 in ((0.23 + 0.11j, -0.17 + 0.06j), (0.41 - 0.08j, 0.3 + 0.2j)):
        got = appell_A(ell, z1, z2, tau_a)
        want = mp_appell_A(ell, z1, z2, tau_a.z)
        assert got == pytest.approx(want, rel=1e-12)


def test_appell_pole_guard(tau_a):
    with pytest.raises(DomainError):
        appell_A(2, 0.0j, 0.1 + 0.0j, tau_a)
    with pytest.raises(DomainError):
        appell_A(2, tau_a.z, 0.1 + 0.0j, tau_a)  # z1 on the lattice
    with pytest.raises(DomainError):
        appell_A(0, 0.2 + 0.0j, 0.1 + 0.0j, tau_a)


def test_appell_overflow_is_domain_error():
    # pi y2^2 / (ell v) = 785 passes the lattice peak guard of 600
    args = (2, 0.3 + 0.1j, 0.1 + 20j, Tau(0.1, 0.8))
    with pytest.raises(DomainError):
        appell_A(*args)
    with pytest.raises(DomainError):
        appell_A_z2_column(*args, 3)


def test_appell_z2_jet_consistency(tau_a):
    z1 = 0.27 + 0.13j
    z2 = 0.05 - 0.02j
    col = appell_A_z2_column(3, z1, z2, tau_a, 6)
    assert col[0] == pytest.approx(appell_A(3, z1, z2, tau_a), rel=1e-13)
    h = 1e-6
    fd = (appell_A(3, z1, z2 + h, tau_a)
          - appell_A(3, z1, z2 - h, tau_a)) / (2.0 * h)
    assert col[1] == pytest.approx(fd, rel=1e-8)


def test_appell_hat_jet_value_matches(tau_a):
    z1 = 0.19 + 0.07j
    z2 = 0.12 + 0.03j
    col = appell_hat_z2_column(2, z1, z2, tau_a, 4)
    assert col[0] == pytest.approx(appell_hat(2, z1, z2, tau_a), rel=1e-12)


def test_appell_hat_column_from_finite_differences(tau_a):
    # the completion is genuinely nonholomorphic in z2, so a real step sees
    # c10 + c01 and an imaginary step c10 - c01; the column holds c10
    z1 = 0.19 + 0.07j
    z2 = 0.12 + 0.03j
    col = appell_hat_z2_column(2, z1, z2, tau_a, 4)
    h = 1e-5
    fd_r = (appell_hat(2, z1, z2 + h, tau_a)
            - appell_hat(2, z1, z2 - h, tau_a)) / (2.0 * h)
    fd_i = (appell_hat(2, z1, z2 + 1j * h, tau_a)
            - appell_hat(2, z1, z2 - 1j * h, tau_a)) / (2j * h)
    c10 = (fd_r + fd_i) / 2.0
    c01 = (fd_r - fd_i) / 2.0
    assert col[1] == pytest.approx(c10, rel=1e-7)
    assert abs(c01) > 1e-6  # nonholomorphic for real


def test_elliptic_shift_all_patterns(tau_a):
    z1 = 0.21 + 0.12j
    z2 = -0.15 + 0.04j
    for ell in (2, 3):
        base = appell_hat(ell, z1, z2, tau_a)
        for n1 in (0, 1):
            for m1 in (0, 1):
                for n2 in (0, 1):
                    for m2 in (0, 1):
                        res = elliptic_shift_residual(ell, n1, m1, n2, m2,
                                                      z1, z2, base, tau_a)
                        assert res < 1e-12


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_completion_terms_equal_per_class_products(ell, tau_a, tau_b):
    # one S-lattice for all classes, summed on the widest window, gives
    # each class's theta x S product bit for bit
    points = [(0.5 + 0.0j, z2) for z2 in (0.5 + 0.0j, 0.5 * tau_a.z,
                                          0.5 * (tau_a.z + 1.0))]
    points += [(0.21 + 0.12j, -0.15 + 0.04j),
               # tail side: every S base lies far above the real axis
               (0.2 + 3.0j, 0.1 - 0.4j)]
    for tau in (tau_a, tau_b):
        lat = ell * tau.z
        for z1, z2 in points:
            want = []
            for nu in range(ell):
                shift = nu * tau.z + (ell - 1) / 2.0
                want.append(cmath.exp(2j * math.pi * nu * z1)
                            * theta_value(z2 + shift, Tau.from_complex(lat))
                            * complex(zwegers_S_values([ell * z1 - z2 - shift],
                                                       lat)[0]))
            assert appell_completion_terms(ell, z1, z2, tau) == want


def test_modularity_generators(tau_a, tau_b):
    z1 = 0.21 + 0.12j
    z2 = -0.15 + 0.04j
    for tau in (tau_a, tau_b):
        for ell in (2, 3):
            base = appell_hat(ell, z1, z2, tau)
            for g in (GEN_S, GEN_T, GEN_S @ GEN_T):
                assert modular_residual(ell, g, z1, z2, base, tau) < 1e-12


def test_modularity_at_torsion_points(tau_a):
    for z2 in (0.5 + 0.0j, 0.5 * tau_a.z, 0.5 * (tau_a.z + 1.0)):
        base = appell_hat(2, 0.5 + 0.0j, z2, tau_a)
        assert modular_residual(2, GEN_S, 0.5 + 0.0j, z2, base, tau_a) < 1e-12


def test_raw_moment_error_estimate(tau_a):
    for order in (1, 2):
        val, err = raw_moment(order, tau_a)
        val2, _ = raw_moment(order, tau_a, w_seq=(4e-3, 2e-3, 1e-3, 5e-4))
        assert abs(val - val2) <= 100.0 * max(err, 1e-14)


def test_completed_moment_differs_from_raw(tau_a):
    raw, _ = raw_moment(1, tau_a)
    comp, _ = completed_moment(1, tau_a)
    assert abs(raw - comp) > 1e-6  # the completion genuinely contributes


def test_moment_difference_closed_form(tau_a, tau_b):
    for tau in (tau_a, tau_b):
        for order in (1, 2, 3):
            res = moment_difference_variants(order, tau)
            assert res["negative-half-i-jet"] < 1e-10
            # the other sign of the jet term is refuted, not noise
            assert res["positive-half-i-jet"] > 1e-6
