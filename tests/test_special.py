import cmath
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from mockmod import (DomainError, GEN_S, GEN_T, Tau, eta_multiplier,
                     eta_value, lowering_numeric, theta_value)
from mockmod.core import sample_mobius, sample_tau
from mockmod.exactq import eta_expansion, theta_q_expansion
from mockmod.rank import rank_plus_series
from mockmod.special import (dedekind_sum, e2_completed, e2_modular_residual,
                             e2_value, eta_modular_residual, eval_qseries,
                             gauss_E, gauss_E_deriv, period_integral,
                             series_trunc_for, single_mode_period,
                             theta_elliptic_residual, theta_modular_residual,
                             upper_gamma_scaled)

mp.mp.dps = 30


def mp_theta(z: complex, tau: complex) -> complex:
    """Independent oracle: direct half-integer lattice sum at 30 digits."""
    total = mp.mpc(0)
    for n in range(-25, 26):
        nu = n + mp.mpf(1) / 2
        total += mp.exp(1j * mp.pi * (nu * nu * tau + 2 * nu * (z + mp.mpf(1) / 2)))
    return complex(total)


def mp_eta(tau: complex) -> complex:
    q = mp.exp(2j * mp.pi * tau)
    total = mp.mpc(1)
    for n in range(1, 60):
        total *= 1 - q ** n
    return complex(q ** (mp.mpf(1) / 24) * total)


def mp_e2(tau: complex) -> complex:
    q = mp.exp(2j * mp.pi * tau)
    total = mp.mpc(1)
    for n in range(1, 80):
        total -= 24 * n * q ** n / (1 - q ** n)
    return complex(total)


def test_gauss_E_against_mpmath():
    for x in (-1.3, -0.2, 0.0, 0.41, 0.7, 2.5):
        want = float(2 * mp.quad(lambda t: mp.exp(-mp.pi * t * t), [0, x]))
        assert gauss_E(x) == pytest.approx(want, abs=1e-14)


def test_gauss_E_derivatives_are_fd_consistent():
    h = 1e-5
    for x in (0.3, 1.1):
        fd = (gauss_E(x + h) - gauss_E(x - h)) / (2 * h)
        assert gauss_E_deriv(1, x) == pytest.approx(fd, rel=1e-8)
        fd2 = (gauss_E_deriv(1, x + h) - gauss_E_deriv(1, x - h)) / (2 * h)
        assert gauss_E_deriv(2, x) == pytest.approx(fd2, rel=1e-7)


def test_upper_gamma_against_mpmath():
    for s in (0.5, -0.5):
        for x in (0.05, 0.4, 1.4, 1.6, 5.0, 40.0):
            scaled = upper_gamma_scaled(s, x)
            assert scaled == pytest.approx(float(mp.exp(x) * mp.gammainc(mp.mpf(s), x)),
                                           rel=1e-12)


def test_upper_gamma_domain():
    with pytest.raises(DomainError):
        upper_gamma_scaled(0.5, 0.0)
    with pytest.raises(DomainError):
        upper_gamma_scaled(1.5, 1.0)


def test_theta_value_against_lattice_oracle(tau_a, tau_b):
    for tau in (tau_a, tau_b):
        for z in (0.13 + 0.21j, -0.4 + 0.05j, 0.0j):
            got = theta_value(z, tau)
            want = mp_theta(z, tau.z)
            assert got == pytest.approx(want, abs=1e-14)


def test_theta_is_odd(tau_a):
    z = 0.23 - 0.11j
    assert theta_value(-z, tau_a) == pytest.approx(-theta_value(z, tau_a),
                                                   rel=1e-13)
    assert abs(theta_value(0.0j, tau_a)) < 1e-15


def test_eta_value_against_product_oracle(tau_a, tau_b):
    for tau in (tau_a, tau_b):
        assert eta_value(tau) == pytest.approx(mp_eta(tau.z), rel=1e-13)


def test_eta_series_eval_matches_value(tau_a):
    trunc = series_trunc_for(tau_a, 24)
    series_route = eval_qseries(eta_expansion(trunc), tau_a)
    assert series_route == pytest.approx(eta_value(tau_a), rel=1e-14)


def mp_eval_series(series, tau) -> complex:
    """The exact Fraction series summed term by term at 30 digits."""
    total = mp.mpc(0)
    for i, c in enumerate(series.coeffs):
        if c:
            e = mp.mpf(series.offset + i) / series.den
            total += mp.mpf(c.numerator) / c.denominator \
                * mp.exp(2j * mp.pi * e * mp.mpc(tau.u, tau.v))
    return complex(total)


@pytest.mark.parametrize("precision", ["f64", "dd"])
@pytest.mark.parametrize("build,den", [
    pytest.param(lambda: rank_plus_series(3, 120), None, id="rank-plus-3"),
    pytest.param(lambda: eta_expansion(240), 24, id="eta"),
    pytest.param(lambda: theta_q_expansion("theta3", 160), 8, id="theta3"),
])
def test_eval_qseries_against_mpmath(build, den, precision, tau_a, tau_b):
    series = build()
    if den is not None:
        assert series.den == den
    for tau in (tau_a, tau_b, Tau(0.43, 0.35)):
        want = mp_eval_series(series, tau)
        got = eval_qseries(series, tau, precision)
        assert abs(got - want) <= 1e-13 * abs(want)


def test_e2_value_against_lambert_oracle(tau_a, tau_b):
    for tau in (tau_a, tau_b):
        assert e2_value(tau) == pytest.approx(mp_e2(tau.z), rel=1e-13)


def test_theta_derivative_at_zero_is_eta_cubed(tau_a):
    # theta'(0) = -2 pi eta^3: classical cross-tie between the kernels
    h = 1e-6
    fd = (theta_value(h + 0j, tau_a) - theta_value(-h + 0j, tau_a)) / (2 * h)
    want = -2.0 * math.pi * eta_value(tau_a) ** 3
    assert fd == pytest.approx(want, rel=1e-9)


def test_theta_null_values_match_blocks(tau_a):
    series = theta_q_expansion("vartheta_minus", series_trunc_for(tau_a, 1))
    got = eval_qseries(series, tau_a)
    want = -sum(complex((2 if m else 1)) * cmath.exp(2j * math.pi * m * m * tau_a.z)
                for m in range(30))
    assert got == pytest.approx(want, rel=1e-14)


def test_dedekind_sum_reciprocity():
    rng = random.Random(2)
    for _ in range(40):
        k = rng.randint(2, 60)
        h = rng.randint(1, k - 1)
        if math.gcd(h, k) != 1:
            continue
        lhs = dedekind_sum(h, k) + dedekind_sum(k, h)
        rhs = Fraction(-1, 4) + (Fraction(h, k) + Fraction(k, h)
                                 + Fraction(1, h * k)) / 12
        assert lhs == rhs


def test_dedekind_sum_small_values():
    assert dedekind_sum(1, 1) == 0
    assert dedekind_sum(1, 2) == 0
    assert dedekind_sum(1, 3) == Fraction(1, 18)


def test_eta_multiplier_on_generators():
    assert eta_multiplier(GEN_T) == pytest.approx(cmath.exp(1j * math.pi / 12))
    assert eta_multiplier(GEN_S) == pytest.approx(cmath.exp(-1j * math.pi / 4))


def test_eta_multiplier_is_24th_root():
    rng = random.Random(6)
    tau = Tau(0.1, 1.1)
    for _ in range(30):
        g = sample_mobius(rng, tau)
        assert eta_multiplier(g) ** 24 == pytest.approx(1.0)


def test_eta_transformation_law():
    rng = random.Random(12)
    for _ in range(10):
        tau = sample_tau(rng)
        g = sample_mobius(rng, tau)
        assert eta_modular_residual(g, tau) < 1e-13


def test_theta_laws_fixed_points(tau_a):
    z = 0.17 + 0.12j
    assert theta_elliptic_residual(2, -1, z, tau_a) < 1e-13
    assert theta_modular_residual(GEN_S, z, tau_a) < 1e-13
    assert theta_modular_residual(GEN_T, z, tau_a) < 1e-13


def test_e2_laws_fixed_points(tau_a):
    assert e2_modular_residual(GEN_S, tau_a) < 1e-13
    assert e2_completed(tau_a) == pytest.approx(
        e2_value(tau_a) - 3.0 / (math.pi * tau_a.v))


def test_period_integral_against_closed_form(tau_a, tau_b):
    for tau in (tau_a, tau_b):
        for a in (1.0 / 24.0, 25.0 / 24.0):
            got = period_integral(lambda w: cmath.exp(2j * math.pi * a * w),
                                  tau, half_power=3, rtol=1e-12)
            want = single_mode_period(a, tau, half_power=3)
            assert got == pytest.approx(want, rel=1e-9)


def test_lowering_numeric_known_images(tau_a):
    # L(v) = v^2, L(holomorphic) = 0, L(conj tau) = 2 i v^2 ... with
    # L = -2 i v^2 d/d(conj tau)
    got, err = lowering_numeric(lambda t: t.v, tau_a)
    assert got == pytest.approx(tau_a.v ** 2, rel=1e-8)
    got_h, _ = lowering_numeric(lambda t: cmath.exp(2j * math.pi * t.z / 7.0),
                                tau_a)
    assert abs(got_h) < 1e-7
    got_c, _ = lowering_numeric(lambda t: t.z.conjugate(), tau_a)
    assert got_c == pytest.approx(-2j * tau_a.v ** 2, rel=1e-8)


def test_lowering_error_estimate_is_honest(tau_a):
    got, err = lowering_numeric(lambda t: t.v * t.v, tau_a)
    true = 2.0 * tau_a.v ** 3
    assert abs(got - true) <= 50.0 * err + 1e-12
