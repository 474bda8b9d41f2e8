import cmath
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mockmod import (DomainError, GEN_S, GEN_T, Mobius, SuiteConfig, Tau,
                     eta_multiplier, eta_value, lowering_numeric, run_suite,
                     theta_value)
from mockmod.core import sample_mobius, sample_tau
from mockmod import joyce, special
from mockmod.exactq import (RANK_TABLE_NMAX, eta_expansion, joyce_expansion,
                            theta_q_expansion)
from mockmod.rank import _plus_trunc, rank_plus_series
from mockmod.special import (THETA_INDEX, _gauss_E_poly, dedekind_sum,
                             e2_completed, e2_value, elliptic_law,
                             eval_qseries, gauss_E, modular_law,
                             period_integral, series_trunc_for,
                             single_mode_period, UPPER_GAMMA_RTOL,
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
    def deriv(k, x):
        # d^k E = P_k(x) exp(-pi x^2), P_k by Horner
        acc = 0.0
        for c in reversed(_gauss_E_poly(k)):
            acc = acc * x + c
        return acc * math.exp(-math.pi * x * x)

    h = 1e-5
    for x in (0.3, 1.1):
        fd = (gauss_E(x + h) - gauss_E(x - h)) / (2 * h)
        assert deriv(1, x) == pytest.approx(fd, rel=1e-8)
        fd2 = (deriv(1, x + h) - deriv(1, x - h)) / (2 * h)
        assert deriv(2, x) == pytest.approx(fd2, rel=1e-7)


def mp_upper_gamma_scaled(x: float):
    with mp.workdps(40):
        return mp.exp(x) * mp.gammainc(mp.mpf(-0.5), x)


def test_upper_gamma_against_mpmath():
    # log-spaced over both branches, plus the two sides of the x = 3 switch
    xs = [10.0 ** (e / 4.0) for e in range(-24, 12)] \
        + [800.0, math.nextafter(3.0, 0.0), 3.0]
    for x in xs:
        want = mp_upper_gamma_scaled(x)
        assert abs(upper_gamma_scaled(x) - want) <= 1e-14 * abs(want)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=1e-3, max_value=800.0))
@example(math.nextafter(3.0, 0.0))
@example(3.0)
def test_upper_gamma_sweep_within_documented_bound(x):
    want = mp_upper_gamma_scaled(x)
    assert abs(upper_gamma_scaled(x) - want) <= UPPER_GAMMA_RTOL * abs(want)
    assert UPPER_GAMMA_RTOL <= 1e-14


# eta and E2 against 30 digits over v in [0.05, 5] and |u| <= 10: the
# worst relative errors over 400 uniform samples were 2.2e-14 (eta, at
# v = 0.080) and 4.6e-14 (E2, at v = 0.094)
SWEEP_RTOL = 1e-11


def mp_eta_product(tau) -> complex:
    """eta = e^(2 pi i tau / 24) (q; q)_inf by mpmath's q-Pochhammer."""
    return complex(mp.exp(2j * mp.pi * tau / 24) * mp.qp(mp.exp(2j * mp.pi * tau)))


def mp_e2_lambert(tau) -> complex:
    """E2 = 1 - 24 sum n q^n / (1 - q^n) by mpmath's nsum."""
    q = mp.exp(2j * mp.pi * tau)
    return complex(1 - 24 * mp.nsum(lambda n: n * q ** n / (1 - q ** n),
                                    [1, mp.inf]))


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-10.0, max_value=10.0),
       st.floats(min_value=0.05, max_value=5.0))
@example(0.3, 0.05)
@example(-10.0, 5.0)
def test_eta_and_e2_sweep_against_mpmath(u, v):
    tau = Tau(u, v)
    for kernel, oracle in ((eta_value, mp_eta_product), (e2_value, mp_e2_lambert)):
        try:
            got = kernel(tau)
        except DomainError:
            continue
        want = oracle(mp.mpc(u, v))
        assert abs(got - want) <= SWEEP_RTOL * abs(want), kernel.__name__


def test_upper_gamma_array_is_elementwise():
    xs = np.geomspace(1e-3, 800.0, 41).reshape(1, 41)
    got = upper_gamma_scaled(xs)
    assert got.shape == xs.shape
    # vector and scalar reductions may round differently: 2.5e-16 measured
    want = np.array([[upper_gamma_scaled(x) for x in xs[0]]])
    assert (np.abs(got - want) <= 1e-15 * want).all()


def test_upper_gamma_domain():
    with pytest.raises(DomainError):
        upper_gamma_scaled(0.0)
    with pytest.raises(DomainError):
        upper_gamma_scaled(np.array([1.0, -2.0, 5.0]))


def test_theta_value_against_lattice_oracle(tau_a, tau_b):
    rows = [(z, tau) for tau in (tau_a, tau_b)
            for z in (0.13 + 0.21j, -0.4 + 0.05j, 0.0j)]
    for z, tau in rows:
        got = theta_value(z, tau)
        want = mp_theta(z, tau)
        assert got == pytest.approx(want, abs=1e-14)
    # the same rows as one batch
    batch = theta_value([z for z, _ in rows], [tau for _, tau in rows])
    for (z, tau), got in zip(rows, batch):
        assert got == pytest.approx(mp_theta(z, tau), abs=1e-14)


def test_theta_is_odd(tau_a):
    z = 0.23 - 0.11j
    assert theta_value(-z, tau_a) == pytest.approx(-theta_value(z, tau_a),
                                                   rel=1e-13)
    assert abs(theta_value(0.0j, tau_a)) < 1e-15


def test_eta_value_against_product_oracle(tau_a, tau_b):
    for tau in (tau_a, tau_b):
        assert eta_value(tau) == pytest.approx(mp_eta(tau), rel=1e-13)


def test_eta_series_eval_matches_value(tau_a):
    trunc = series_trunc_for(tau_a, 24)
    series_route = eval_qseries(eta_expansion(trunc), tau_a)
    assert series_route == pytest.approx(eta_value(tau_a), rel=1e-14)


def plain_cut_oracle(v: float, den: int) -> int:
    """The earlier per-point cut, unrounded: tail below 1e-18 at v."""
    need = 18.0 * math.log(10.0) / (2.0 * math.pi * v)
    return int(math.ceil(need * den)) + 2 * den


def rank_cut_oracle(ell: int, v: float) -> int:
    """The earlier rank-series cut: a scan in steps of 64 from the plain
    cut rounded up, to pi sqrt(2T/3) + (2l + 2) ln(T + 1) - 2 pi v T <=
    -18 ln 10."""
    t = -(-plain_cut_oracle(v, 1) // 64) * 64
    while (math.pi * math.sqrt(2.0 * t / 3.0) + (2 * ell + 2) * math.log(t + 1.0)
           - 2.0 * math.pi * v * t) > -18.0 * math.log(10.0):
        t += 64
    return t


def joyce_cut_oracle(k: int, v: float) -> int:
    """The earlier Joyce-core cut: a scan in steps of 64 from 64, to
    (k/2) ln T - 2 pi v (T - 1) <= -18 ln 10."""
    t = 64
    while (0.5 * k * math.log(t) - 2.0 * math.pi * v * (t - 1)
           > -18.0 * math.log(10.0)):
        t += 64
    return t


V_GRID = [float(v) for v in np.linspace(0.05, 4.05, 401)[1:]]


def test_cut_rule_rounds_the_plain_cut_up_to_64():
    for v in V_GRID:
        for den in (1, 2, 4, 8, 24):
            plain = plain_cut_oracle(v, den)
            got = series_trunc_for(Tau(0.1, v), den)
            assert got % 64 == 0 and got - 64 < plain <= got
            # a batch takes the cut of its smallest v
            assert series_trunc_for([Tau(0.3, v + 1.0), Tau(0.1, v),
                                     Tau(-0.2, 2.0 * v)], den) == got


def test_cut_rule_reproduces_the_rank_scan():
    for v in V_GRID:
        for ell in (1, 2, 3, 4):
            want = rank_cut_oracle(ell, v)
            if want <= RANK_TABLE_NMAX + 1:
                assert _plus_trunc(ell, Tau(0.1, v)) == want
            else:
                with pytest.raises(DomainError, match="tau"):
                    _plus_trunc(ell, Tau(0.1, v))


def test_cut_rule_reproduces_the_joyce_scan(monkeypatch):
    cuts = []

    def record(k, trunc):
        cuts.append(trunc)
        return joyce_expansion(k, 2)

    monkeypatch.setattr(joyce, "_joyce_series", record)
    for v in V_GRID:
        for k in range(2, 13, 2):
            joyce._core_value(k, [Tau(0.3, v + 0.5), Tau(0.1, v)])
            assert cuts.pop() == joyce_cut_oracle(k, v)


def test_cut_rule_jumps_at_tiny_v():
    # the search jumps instead of stepping 64 at a time, so a rank series
    # far past the table raises at once, and the cut still holds
    with pytest.raises(DomainError, match="tau"):
        _plus_trunc(1, Tau(0.0, 1e-7))
    v = 1e-4

    def bound(t):
        return math.pi * math.sqrt(2.0 * t / 3.0) + 4.0 * math.log(t + 1.0)

    t = series_trunc_for(Tau(0.0, v), 1, bound)
    assert t % 64 == 0
    assert bound(t) - 2.0 * math.pi * v * t <= -18.0 * math.log(10.0)
    assert bound(t - 64) - 2.0 * math.pi * v * (t - 64) > -18.0 * math.log(10.0)


def mp_eval_series(series, tau) -> complex:
    """The exact Fraction series summed term by term at 30 digits."""
    total = mp.mpc(0)
    for i, c in enumerate(series.coeffs):
        if c:
            e = mp.mpf(series.offset + i) / series.den
            total += mp.mpf(c.numerator) / c.denominator \
                * mp.exp(2j * mp.pi * e * mp.mpc(tau.u, tau.v))
    return complex(total)


@pytest.mark.parametrize("build,den", [
    pytest.param(lambda: rank_plus_series(3, 120), None, id="rank-plus-3"),
    pytest.param(lambda: eta_expansion(240), 24, id="eta"),
    pytest.param(lambda: theta_q_expansion("theta3", 160), 8, id="theta3"),
])
def test_eval_qseries_against_mpmath(build, den, tau_a, tau_b):
    series = build()
    if den is not None:
        assert series.den == den
    for tau in (tau_a, tau_b, Tau(0.43, 0.35)):
        want = mp_eval_series(series, tau)
        got = eval_qseries(series, tau)
        assert abs(got - want) <= 1e-13 * abs(want)


def test_e2_value_against_lambert_oracle(tau_a, tau_b):
    for tau in (tau_a, tau_b):
        assert e2_value(tau) == pytest.approx(mp_e2(tau), rel=1e-13)
    # one batch, its cut read at the smaller v
    taus = [tau_a, tau_b, GEN_S.apply(tau_a)]
    for tau, got in zip(taus, e2_value(taus)):
        assert got == pytest.approx(mp_e2(tau), rel=1e-13)


def assert_rows_equal_one_point_calls(batch, one_point_values) -> None:
    """The batch rule: each row within 1e-14 relative of its one-point
    call."""
    assert len(batch) == len(one_point_values)
    for got, want in zip(batch, one_point_values):
        assert abs(got - want) <= 1e-14 * abs(want)


def images_of(tau: Tau, n_random: int = 10, seed: int = 8) -> tuple:
    """The matrices of a transformation grid point: T, S and sampled ones."""
    rng = random.Random(seed)
    gs = [GEN_T, GEN_S] + [sample_mobius(rng, tau) for _ in range(n_random)]
    return gs, [g.apply(tau) for g in gs]


def test_theta_batch_rows_equal_one_point_calls(tau_a, tau_b):
    for tau in (tau_a, tau_b):
        z = 0.17 + 0.12j
        # a point and its fifteen lattice shifts, on one lattice
        zs = [z] + [z + lam * tau + mu for lam in (-2, -1, 0, 1, 2)
                    for mu in (-1, 0, 1)]
        assert_rows_equal_one_point_calls(theta_value(zs, tau),
                                          [theta_value(w, tau) for w in zs])
        # a point and its twelve images, each on its own lattice
        gs, images = images_of(tau)
        zs = [z] + [z / g.j_factor(tau) for g in gs]
        taus = [tau] + images
        assert min(t.v for t in taus) < 0.5 * tau.v
        assert_rows_equal_one_point_calls(
            theta_value(zs, taus), [theta_value(w, t) for w, t in zip(zs, taus)])


def test_e2_batch_rows_equal_one_point_calls(tau_a, tau_b):
    for tau in (tau_a, tau_b):
        _, images = images_of(tau)
        u, v, h = tau.u, tau.v, 1e-4 * tau.v
        stencil = [Tau(u + h, v), Tau(u - h, v), Tau(u, v + h), Tau(u, v - h)]
        for taus in ([tau] + images, stencil):
            for kernel in (e2_value, e2_completed):
                assert_rows_equal_one_point_calls(
                    kernel(taus), [kernel(t) for t in taus])


def contour_nodes(tau: Tau) -> list:
    """The points at which ``period_integral`` reads its integrand."""
    seen = []
    period_integral(lambda ws: seen.extend(ws) or np.exp(2j * math.pi * ws),
                    tau)
    return seen


def test_eta_batch_rows_equal_one_point_calls(tau_a, tau_b):
    for tau in (tau_a, tau_b):
        _, images = images_of(tau)
        assert_rows_equal_one_point_calls(
            eta_value([tau] + images), [eta_value(t) for t in [tau] + images])
        # the contour runs out to Im 1e11, where q^(1/24) underflows to 0
        # without a warning (a RuntimeWarning fails the test); with the
        # images in the same batch, a window read at the largest v would
        # miss terms of relative size 1e-7 on the lowest image
        nodes = [tau] + images + contour_nodes(tau)
        assert max(t.imag for t in nodes) > 1e11
        assert_rows_equal_one_point_calls(eta_value(nodes),
                                          [eta_value(t) for t in nodes])


def test_theta_derivative_at_zero_is_eta_cubed(tau_a):
    # theta'(0) = -2 pi eta^3: classical cross-tie between the kernels
    h = 1e-6
    fd = (theta_value(h + 0j, tau_a) - theta_value(-h + 0j, tau_a)) / (2 * h)
    want = -2.0 * math.pi * eta_value(tau_a) ** 3
    assert fd == pytest.approx(want, rel=1e-9)


def test_theta_null_values_match_blocks(tau_a):
    series = theta_q_expansion("vartheta_minus", series_trunc_for(tau_a, 1))
    got = eval_qseries(series, tau_a)
    want = -sum(complex((2 if m else 1)) * cmath.exp(2j * math.pi * m * m * tau_a)
                for m in range(30))
    assert got == pytest.approx(want, rel=1e-14)


def fraction_dedekind_sum(h: int, k: int) -> Fraction:
    """Reference: the definition sum ((n/k)) ((h n/k)), in Fractions."""
    def saw(num: int, den: int) -> Fraction:
        r = num % den
        return Fraction(r, den) - Fraction(1, 2) if r else Fraction(0)

    return sum((saw(n, k) * saw(h * n, k) for n in range(1, k)), Fraction(0))


def test_dedekind_sum_matches_fraction_definition():
    for k in range(2, 61):
        for h in range(1, k):
            assert dedekind_sum(h, k) == fraction_dedekind_sum(h, k)
    # eta_multiplier also asks for negative h
    for k in range(2, 17):
        for h in range(-k, 0):
            assert dedekind_sum(h, k) == fraction_dedekind_sum(h, k)


def test_dedekind_sum_reciprocity():
    for k in range(2, 61):
        for h in range(1, k):
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


def test_eta_multiplier_takes_one_dedekind_sum_per_matrix(monkeypatch):
    # a counting spy on the Dedekind sum: a matrix asked for again, by any
    # law or order, reads the cache
    rng = random.Random(7)
    tau = Tau(0.1, 1.1)
    mats = [sample_mobius(rng, tau) for _ in range(6)]
    mats = [g for g in mats if g.c != 0]
    sums = []
    real = special.dedekind_sum
    monkeypatch.setattr(special, "dedekind_sum",
                        lambda h, k: sums.append((h, k)) or real(h, k))
    eta_multiplier.cache_clear()
    first = [eta_multiplier(g) for g in mats]
    assert len(sums) == len(set(mats))
    assert [eta_multiplier(g) for g in mats + mats] == first + first
    assert len(sums) == len(set(mats))
    assert first == [eta_multiplier.__wrapped__(g) for g in mats]
    # a suite asks for each of its matrices once, however many laws and
    # orders read it: every sum of a repeated suite is a cache hit
    eta_multiplier.cache_clear()
    run_suite(SuiteConfig(only=("rank.transform", "theta.eta-multiplier")))
    distinct = eta_multiplier.cache_info().currsize
    assert 0 < len(sums) - len(set(mats)) <= distinct
    before = len(sums)
    run_suite(SuiteConfig(only=("rank.transform", "theta.eta-multiplier")))
    assert len(sums) == before


def test_eta_transformation_law():
    rng = random.Random(12)
    for _ in range(10):
        tau = sample_tau(rng)
        g = sample_mobius(rng, tau)
        assert modular_law(g, eta_value(tau), eta_value(g.apply(tau)), tau,
                           halves=1, psi=1) < 1e-13


def test_theta_laws_fixed_points(tau_a):
    z = 0.17 + 0.12j
    base = theta_value(z, tau_a)
    shifted = theta_value(z + 2 * tau_a - 1, tau_a)
    assert elliptic_law((2,), (-1,), (z,), base, shifted, tau_a,
                        index=THETA_INDEX) < 1e-13
    for g in (GEN_S, GEN_T):
        image = theta_value(z / g.j_factor(tau_a), g.apply(tau_a))
        assert modular_law(g, base, image, tau_a, halves=1, psi=3,
                           index=THETA_INDEX, z=(z,)) < 1e-13


def test_laws_compare_values_they_are_given(monkeypatch):
    # the case builders evaluate the kernels; a law only compares
    def refuse(*args):
        raise AssertionError("a law evaluated a value kernel")

    for name in ("theta_value", "e2_value", "e2_completed", "eta_value"):
        monkeypatch.setattr(special, name, refuse)
    monkeypatch.setattr(joyce, "theta_star_value", refuse)
    monkeypatch.setattr(joyce, "theta_value", refuse)
    tau, one = Tau(0.1, 1.0), 1.0 + 0j
    g4 = Mobius(5, 2, 12, 5)
    assert special.elliptic_law((1,), (0,), (0.2,), one, one, tau,
                                index=THETA_INDEX) >= 0.0
    # every parameter of the modular law: multiplier powers, a further
    # multiplier, an index at z, the quasimodular shift and a scale
    for params in ({"halves": 1, "psi": 3, "index": THETA_INDEX, "z": (0.2,)},
                   {"halves": 4, "psi": -1, "chi": 1j},
                   {"halves": 4, "shift": -6j / math.pi},
                   {"halves": 10, "scale": 2.0}):
        assert special.modular_law(GEN_S, one, one, tau, **params) >= 0.0
    res, parts = joyce.theta_star_residual(g4, 0.1 + 0.1j, np.ones(4),
                                           np.ones(4), tau)
    assert res >= 0.0 and parts["quadratic_symbol_gap"] >= 0.0


def test_warm_suite_makes_few_theta_kernel_calls(monkeypatch):
    run_suite(SuiteConfig())
    calls = itertools.count()
    real = special.theta_value

    def counted(*args):
        next(calls)
        return real(*args)

    monkeypatch.setattr(special, "theta_value", counted)
    monkeypatch.setattr(joyce, "theta_value", counted)
    _, code = run_suite(SuiteConfig())
    assert code == 0
    # one call per grid point of theta.elliptic and theta.modular, and two
    # per point of joyce.theta-star (10 today), not one per value
    assert next(calls) <= 12


def test_e2_laws_fixed_points(tau_a):
    assert modular_law(GEN_S, e2_value(tau_a), e2_value(GEN_S.apply(tau_a)),
                       tau_a, halves=4, shift=-6j / math.pi) < 1e-13
    assert e2_completed(tau_a) == pytest.approx(
        e2_value(tau_a) - 3.0 / (math.pi * tau_a.v))


def test_single_mode_period_array_is_elementwise(tau_a):
    a = (6 * np.arange(-3, 4) + 1) ** 2 / 24.0
    got = single_mode_period(a, tau_a)
    for ai, g in zip(a, got):
        assert g == pytest.approx(complex(single_mode_period(ai, tau_a)),
                                  rel=1e-15)
    with pytest.raises(DomainError):
        single_mode_period(np.array([1.0, 0.0]), tau_a)


def test_period_integral_against_closed_form(tau_a, tau_b):
    for tau in (tau_a, tau_b):
        for a in (1.0 / 24.0, 25.0 / 24.0):
            got = period_integral(lambda ws: np.exp(2j * math.pi * a * ws),
                                  tau, rtol=1e-12)
            want = single_mode_period(a, tau)
            assert got == pytest.approx(want, rel=1e-9)


def test_period_integral_calls_its_integrand_once(tau_a):
    calls = []

    def g(ws):
        calls.append(len(ws))
        return np.exp(2j * math.pi * ws / 24.0)

    period_integral(g, tau_a)
    assert calls == [257]


@pytest.mark.parametrize("g,rtol", [
    # g = 1 decays like t^(-3/2): the far end term is 1.2e-6 of the sum and
    # the step-2h gap 5e-7, so at rtol 8e-7 only the end term misses
    (lambda ws: np.ones_like(ws), 8e-7),
    # e^((-1 + 10i) t): end terms below 1e-29, but the step-2h sum is 2% off
    (lambda ws: np.exp((-1 + 10j) * ws.imag), 1e-11),
], ids=["truncated", "under-resolved"])
def test_period_integral_refuses_what_it_cannot_meet(tau_a, g, rtol):
    with pytest.raises(DomainError):
        period_integral(g, tau_a, rtol=rtol)


def test_suite_runs_without_scipy_integrate():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys; import mockmod; mockmod.run_suite(mockmod.SuiteConfig());"
            " print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def pointwise(f):
    """The batch form ``lowering_numeric`` calls, from a one-point f."""
    return lambda taus: [f(t) for t in taus]


def test_lowering_numeric_known_images(tau_a):
    # L(v) = v^2, L(holomorphic) = 0, L(conj tau) = 2 i v^2 ... with
    # L = -2 i v^2 d/d(conj tau)
    got, err = lowering_numeric(pointwise(lambda t: t.imag), tau_a)
    assert got == pytest.approx(tau_a.v ** 2, rel=1e-8)
    got_h, _ = lowering_numeric(
        pointwise(lambda t: cmath.exp(2j * math.pi * t / 7.0)), tau_a)
    assert abs(got_h) < 1e-7
    got_c, _ = lowering_numeric(pointwise(lambda t: t.conjugate()), tau_a)
    assert got_c == pytest.approx(-2j * tau_a.v ** 2, rel=1e-8)


def test_lowering_numeric_calls_f_once_on_the_stencil(tau_a):
    calls = []

    def f(taus):
        calls.append(list(taus))
        return [t.imag for t in taus]

    lowering_numeric(f, tau_a)
    assert len(calls) == 1 and len(set(calls[0])) == 8


def test_lowering_rows_equal_one_row_values(tau_a):
    # f returning one row per order: each row's value and error estimate
    # equal those of the row alone, from one call on the stencil
    fs = [lambda t: t.imag * t.imag, lambda t: cmath.exp(2j * math.pi * t / 7.0),
          lambda t: t.conjugate() * t]
    calls = []

    def rows(taus):
        calls.append(len(taus))
        return [[f(t) for t in taus] for f in fs]

    got, err = lowering_numeric(rows, tau_a)
    assert calls == [8] and got.shape == err.shape == (3,)
    for f, g, e in zip(fs, got, err):
        one, one_err = lowering_numeric(pointwise(f), tau_a)
        assert isinstance(one, complex)
        assert abs(g - one) <= 1e-14 * abs(one) and e == pytest.approx(one_err)


def test_lowering_error_estimate_is_honest(tau_a):
    got, err = lowering_numeric(pointwise(lambda t: t.imag * t.imag), tau_a)
    true = 2.0 * tau_a.v ** 3
    assert abs(got - true) <= 50.0 * err + 1e-12
