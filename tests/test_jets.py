import cmath
import math
import random

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mockmod import GEN_S, Mobius, Tau, eta_value, theta_value
from mockmod.jets import (Jet, exp_column, exp_linear_jet,
                          exp_quadratic_jet, gaussian_completed_coeff,
                          gaussian_scale, rho_degeneracy_residual,
                          taylor_completion_psi, taylor_completion_rho,
                          theta_arg_column, theta_power_completed_residual,
                          theta_power_taylor, vartheta_nu_jet, zwegers_S_jet,
                          zwegers_S_value)
from mockmod.core import TWO_PI
from mockmod.exactq import theta_q_expansion
from mockmod.special import (_gauss_E_poly, e2_value, eval_qseries,
                             series_trunc_for)


def random_jet(rng: random.Random, order: int) -> Jet:
    j = Jet.zero(order)
    for a in range(order + 1):
        for b in range(order + 1 - a):
            j.coeffs[a, b] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return j


def jet_eval(j: Jet, z: complex) -> complex:
    zb = z.conjugate()
    return sum(j.coeffs[a, b] * z ** a * zb ** b
               for a in range(j.order + 1)
               for b in range(j.order + 1 - a))


def test_jet_ring_axioms():
    rng = random.Random(1)
    for _ in range(10):
        a = random_jet(rng, 4)
        b = random_jet(rng, 4)
        c = random_jet(rng, 4)
        assert np.allclose((a * b).coeffs, (b * a).coeffs)
        assert np.allclose(((a * b) * c).coeffs, (a * (b * c)).coeffs)
        assert np.allclose((a * (b + c)).coeffs,
                           (a * b + a * c).coeffs)


def test_wirtinger_derivatives_leibniz():
    rng = random.Random(7)
    a = random_jet(rng, 5)
    b = random_jet(rng, 5)
    prod = a * b
    lhs = prod.dz()
    rhs = a.dz() * b + a * b.dz()
    assert np.allclose(lhs.coeffs[:5, :5], rhs.coeffs[:5, :5])
    lhs = prod.dzbar()
    rhs = a.dzbar() * b + a * b.dzbar()
    assert np.allclose(lhs.coeffs[:5, :5], rhs.coeffs[:5, :5])


def test_parity_projectors():
    rng = random.Random(3)
    a = random_jet(rng, 6)
    z = 0.21 - 0.13j
    odd = jet_eval(a.odd_part(), z)
    assert odd == pytest.approx((jet_eval(a, z) - jet_eval(a, -z)) / 2.0)
    assert jet_eval(a.odd_part(), -z) == pytest.approx(-odd)


def test_exp_builders():
    c = 0.3 - 0.8j
    jq = exp_quadratic_jet(c, 8)
    assert jq.coeff(0, 0) == pytest.approx(1.0)
    assert jq.coeff(2, 0) == pytest.approx(c)
    assert jq.coeff(4, 0) == pytest.approx(c * c / 2.0)
    assert jq.coeff(3, 0) == pytest.approx(0.0)
    jl = exp_linear_jet(c, 6)
    assert jl.coeff(3, 0) == pytest.approx(c ** 3 / 6.0)


@pytest.mark.parametrize("order", [0, 1, 7, 13])
def test_exp_column_jet_matches_jet_exp(order):
    # each column entry against sum_t w_t f_t^p / p! in 40-digit arithmetic
    rng = random.Random(order)
    freqs = np.array([complex(rng.uniform(-9, 9), rng.uniform(-9, 9))
                      for _ in range(6)])
    weights = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                        for _ in range(6)])
    got = Jet.column(exp_column(weights, freqs, order))
    assert got.order == order
    with mp.workdps(40):
        for p in range(order + 1):
            want = complex(mp.fsum(mp.mpc(w) * mp.mpc(f) ** p
                                   for w, f in zip(weights, freqs))
                           / mp.factorial(p))
            assert abs(got.coeff(p) - want) <= 1e-14 * abs(want)
    assert not np.any(got.coeffs[:, 1:])


@pytest.mark.parametrize("c", [0.3 - 0.8j, -2.5 + 1.5j])
def test_exp_jets_match_point_values(c):
    # closed-form columns against cmath.exp; truncation ~ |c z|^14 / 14!,
    # below 1e-16 for |c z| <= 0.41
    for z in (0.1 + 0.05j, -0.12j, 0.14):
        lin = exp_linear_jet(c, 13)
        quad = exp_quadratic_jet(c, 13)
        assert not np.any(lin.coeffs[:, 1:]) and not np.any(quad.coeffs[:, 1:])
        assert jet_eval(lin, z) == pytest.approx(cmath.exp(c * z), rel=1e-14)
        assert jet_eval(quad, z) == pytest.approx(cmath.exp(c * z * z),
                                                  rel=1e-14)


def test_theta_arg_jet_matches_point_values(tau_a):
    base = 0.13 + 0.07j
    jet = Jet.column(theta_arg_column(base, tau_a.z, 10))
    for dz in (0.05 + 0.02j, -0.08j):
        got = jet_eval(jet, dz)
        want = theta_value(base + dz, tau_a)
        assert got == pytest.approx(want, rel=1e-10)


def test_theta_jet_heat_equation(tau_a):
    # 4 pi i d(theta)/d(tau) = d^2(theta)/dz^2, checked on jet columns
    h = 1e-6
    up = theta_arg_column(0.11 + 0.04j, (tau_a.z + h), 6)
    dn = theta_arg_column(0.11 + 0.04j, (tau_a.z - h), 6)
    col = theta_arg_column(0.11 + 0.04j, tau_a.z, 6)
    for p in range(4):
        dtau = (up[p] - dn[p]) / (2.0 * h)
        dzz = (p + 2) * (p + 1) * col[p + 2]
        assert 4j * math.pi * dtau == pytest.approx(dzz, rel=2e-5)


def test_vartheta_jet_value_matches_blocks(tau_a):
    for nu, kind, den in ((-1, "vartheta_minus", 1), (0, "vartheta_zero", 4)):
        jet = vartheta_nu_jet(nu, tau_a.z, 4)
        series = theta_q_expansion(kind, series_trunc_for(tau_a, den))
        assert jet.coeff(0, 0) == pytest.approx(eval_qseries(series, tau_a),
                                                rel=1e-13)


def test_zwegers_S_jet_against_finite_differences(tau_a):
    # S is not holomorphic: a real step sees c10 + c01, an imaginary step
    # sees c10 - c01; recombine to isolate each Wirtinger column
    base = 0.21 + 0.09j
    jet = zwegers_S_jet(base, tau_a.z, 2)
    h = 1e-5
    fd_r = (zwegers_S_value(base + h, tau_a.z)
            - zwegers_S_value(base - h, tau_a.z)) / (2.0 * h)
    fd_i = (zwegers_S_value(base + 1j * h, tau_a.z)
            - zwegers_S_value(base - 1j * h, tau_a.z)) / (2j * h)
    assert jet.coeff(1, 0) == pytest.approx((fd_r + fd_i) / 2.0, rel=1e-7)
    assert jet.coeff(0, 1) == pytest.approx((fd_r - fd_i) / 2.0, rel=1e-6)


def schoolbook_product(a: Jet, b: Jet) -> np.ndarray:
    """Reference jet product: the plain double sum over both triangles."""
    n = min(a.order, b.order)
    out = np.zeros((n + 1, n + 1), dtype=complex)
    for ja in range(n + 1):
        for ka in range(n + 1 - ja):
            for jb in range(n + 1 - ja - ka):
                for kb in range(n + 1 - ja - ka - jb):
                    out[ja + jb, ka + kb] += a.coeffs[ja, ka] * b.coeffs[jb, kb]
    return out


@pytest.mark.parametrize("orders", [(0, 0), (1, 1), (2, 2), (7, 7), (13, 13),
                                    (13, 7), (2, 13), (1, 0)],
                         ids=lambda o: f"{o[0]}x{o[1]}")
def test_jet_product_matches_schoolbook(orders):
    rng = random.Random(sum(orders))
    a = random_jet(rng, orders[0])
    b = random_jet(rng, orders[1])
    want = schoolbook_product(a, b)
    got = a * b
    assert got.order == min(orders)
    scale = np.abs(want).max()
    assert np.abs(got.coeffs - want).max() <= 1e-14 * scale


def test_jet_product_reads_only_the_triangle():
    a = random_jet(random.Random(5), 4)
    b = random_jet(random.Random(6), 4)
    junk_a = Jet(4, a.coeffs.copy())
    junk_b = Jet(4, b.coeffs.copy())
    junk_a.coeffs[4, 4] = junk_b.coeffs[3, 2] = 1e300
    assert np.array_equal((junk_a * junk_b).coeffs, (a * b).coeffs)
    out = (a * b).coeffs
    assert not np.any(out[np.add.outer(np.arange(5), np.arange(5)) > 4])


def test_scale_variable_matches_pointwise_substitution():
    rng = random.Random(8)
    a = random_jet(rng, 6)
    s = 0.7 - 1.3j
    z = 0.04 + 0.03j
    assert jet_eval(a.scale_variable(s), z) == pytest.approx(
        jet_eval(a, s * z), rel=1e-13)
    flipped = a.scale_variable(-1.0).coeffs
    signs = (-1.0) ** np.add.outer(np.arange(7), np.arange(7))
    tri = np.add.outer(np.arange(7), np.arange(7)) <= 6
    assert np.array_equal(flipped[tri], (signs * a.coeffs)[tri])


def per_term_S_jet(base: complex, lattice: complex, order: int) -> np.ndarray:
    """Reference S-jet: one flat jet and one full jet product per lattice
    term, the construction that ``zwegers_S_jet`` vectorizes.  The order-0
    term sgn - E(a0) = sgn erfc(sgn sqrt(pi) a0) and its exponential come
    from 30-digit mpmath, whose exponent range cannot overflow."""
    vp = lattice.imag
    y0 = base.imag
    n_max = int(math.ceil(abs(y0) / vp + math.sqrt(45.0 / (math.pi * vp)))) + 2
    beta = -1j / math.sqrt(2.0 * vp)
    gamma = 1j / math.sqrt(2.0 * vp)
    facs = [math.factorial(p) for p in range(order + 1)]
    out = np.zeros((order + 1, order + 1), dtype=complex)
    n = -n_max
    while n + 0.5 <= n_max:
        nn = n + 0.5
        sgn = 1.0 if nn > 0 else -1.0
        parity = 1.0 if n % 2 == 0 else -1.0
        a0 = (nn + y0 / vp) * math.sqrt(2.0 * vp)
        hol_exp = -1j * math.pi * nn * nn * lattice - TWO_PI * 1j * nn * base
        flat = Jet.zero(order)
        with mp.workdps(30):
            flat.coeffs[0, 0] = complex(
                sgn * mp.erfc(sgn * mp.sqrt(mp.pi) * a0) * mp.exp(hol_exp))
        w_pair = cmath.exp(hol_exp - math.pi * a0 * a0)
        for m in range(1, order + 1):
            pm = 0.0
            for c in reversed(_gauss_E_poly(m)):
                pm = pm * a0 + c
            for j in range(m + 1):
                k = m - j
                flat.coeffs[j, k] += (-pm * (beta ** j) * (gamma ** k)
                                      / (facs[j] * facs[k])) * w_pair
        hol = Jet.zero(order)
        for p in range(order + 1):
            hol.coeffs[p, 0] = (-TWO_PI * 1j * nn) ** p / facs[p]
        out += parity * schoolbook_product(flat, hol)
        n += 1
    return out


@pytest.mark.parametrize("order", [0, 1, 7])
@pytest.mark.parametrize("base,lattice", [
    (0.21 + 0.09j, 0.19 + 0.87j),
    (-0.7 + 0.9j, 0.3 + 0.8j),
    (0.0j, 0.25 + 0.3j),
    # pi (Im w)^2 / v' = 543, close to the 600 guard on either side
    (0.3 + 9.3j, 0.2 + 0.5j),
    (0.1 - 9.3j, -0.3 + 0.5j),
])
def test_zwegers_S_jet_matches_per_term_loop(base, lattice, order):
    want = per_term_S_jet(base, lattice, order)
    got = zwegers_S_jet(base, lattice, order)
    assert got.order == order
    assert np.abs(got.coeffs - want).max() <= 1e-13 * np.abs(want).max()
    assert zwegers_S_value(base, lattice) == pytest.approx(want[0, 0],
                                                           rel=1e-13)
    # the point value is the order-0 jet coefficient, bit for bit
    assert zwegers_S_value(base, lattice) \
        == zwegers_S_jet(base, lattice, 0).value()


def test_gaussian_completed_coeffs_by_hand():
    chis = [1.0, 2.0, 3.0, 4.0]
    a = 0.5 + 0.25j
    out = [gaussian_completed_coeff(chis, a, n) for n in range(4)]
    assert out[0] == pytest.approx(1.0)
    assert out[1] == pytest.approx(2.0)
    assert out[2] == pytest.approx(3.0 + a * 1.0)
    assert out[3] == pytest.approx(4.0 + a * 2.0)


def test_theta_power_taylor_vanishing_order(tau_a):
    chis = theta_power_taylor(8, tau_a.z, 10)
    # the first surviving coefficient is theta'(0)^8 = (2 pi)^8 eta^24
    want = (-2.0 * math.pi * eta_value(tau_a) ** 3) ** 8
    assert chis[8] == pytest.approx(want, rel=1e-11)
    for n in range(8):
        assert abs(chis[n]) < 1e-11 * abs(chis[8])


def test_completions_at_vanishing_order_are_bare(tau_a):
    chis = theta_power_taylor(8, tau_a.z, 8)
    assert taylor_completion_psi(chis, 4.0, tau_a, 8) == pytest.approx(chis[8])
    assert taylor_completion_rho(chis, 4.0, tau_a, 8) == pytest.approx(chis[8])


def test_completed_rows_transform(tau_a):
    chis = theta_power_taylor(8, tau_a.z, 11)
    chis_im = theta_power_taylor(8, GEN_S.apply(tau_a).z, 10)
    for n in (8, 9, 10):
        for kind in ("psi", "rho"):
            assert theta_power_completed_residual(
                8, n, GEN_S, tau_a, chis, gaussian_scale(kind, 4, tau_a),
                chis_im, gaussian_scale(kind, 4, GEN_S.apply(tau_a))) < 1e-12


def two_variable_theta_power(power: int, lattice: complex, top: int) -> list:
    """Reference theta power: ``power`` - 1 products of two-variable jets
    of the theta column, the route ``theta_power_taylor`` replaced."""
    base = Jet.column(theta_arg_column(0.0, lattice, top))
    acc = base
    for _ in range(power - 1):
        acc = acc * base
    assert np.all(acc.coeffs[:, 1:] == 0.0)
    return [acc.coeff(n, 0) for n in range(top + 1)]


# tau_a and its image under (2 1; 3 2), at v = 0.065
@pytest.mark.parametrize("lattice", [
    0.19 + 0.87j, Mobius(2, 1, 3, 2).apply(Tau(0.19, 0.87)).z],
    ids=["standard", "low-v-image"])
@pytest.mark.parametrize("power", range(1, 9))
def test_theta_power_taylor_matches_jet_products(power, lattice):
    for top in range(14):
        got = theta_power_taylor(power, lattice, top)
        want = two_variable_theta_power(power, lattice, top)
        assert len(got) == top + 1
        scale = max(abs(c) for c in want)
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-14 * scale


def test_rho_row_ten_degenerates(tau_a, tau_b):
    # chi_10 = -(4 pi^2 / 3) E2 chi_8 makes the tenth recombined row vanish
    assert rho_degeneracy_residual(tau_a) < 1e-12
    chis = theta_power_taylor(8, tau_b.z, 10)
    want = -(4.0 * math.pi ** 2 / 3.0) * e2_value(tau_b) * chis[8]
    assert chis[10] == pytest.approx(want, rel=1e-12)


def test_taylor_checks_compute_coefficients_once_per_point_and_image(
        monkeypatch):
    import mockmod.jets as jt
    from mockmod.harness import SuiteConfig, run_suite

    calls = []
    real = jt.theta_power_taylor

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(jt, "theta_power_taylor", spy)
    reports, code = run_suite(SuiteConfig(
        only=("theta.taylor-psi", "theta.taylor-rho")))
    assert code == 0
    for rep in reports:
        assert rep.params["cases"] == 180
        assert sorted(rep.params["rows"], key=int) == [str(n)
                                                       for n in range(8, 13)]
    # two checks, three points, each point and its twelve images once
    assert len(calls) == 2 * 3 * (1 + 12)
