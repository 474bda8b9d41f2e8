"""Numeric building blocks: Gaussian error integrals, incomplete gamma in
scaled form, theta and eta values, the weight-two Eisenstein value, Dedekind
multipliers, period integrals, and a finite-difference lowering operator.

Conventions.  The odd Jacobi theta used throughout is

    theta(z; tau) = sum over nu in 1/2 + Z of exp(pi i nu^2 tau
                    + 2 pi i nu (z + 1/2)),

the Dedekind eta is eta(tau) = q^(1/24) prod (1 - q^n), and the lowering
operator is L = -2i v^2 d/d(conjugate tau) with v = Im tau.  Incomplete
gamma values of order +-1/2 are returned in scaled form exp(x) Gamma(s, x)
so callers can pair the factor exp(-x) with growing q-powers and never
overflow.
"""
from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .core import (DomainError, LATTICE_TAIL, Mobius, Tau, accumulate,
                   lattice_window, principal_halfpower, relative_residual,
                   TWO_PI)
from .exactq import QSeries


# ---------------------------------------------------------------------------
# Gaussian error integral and its derivatives
# ---------------------------------------------------------------------------


def gauss_E(x: float) -> float:
    """E(x) = 2 * integral_0^x exp(-pi t^2) dt = erf(sqrt(pi) x)."""
    return math.erf(math.sqrt(math.pi) * x)


@lru_cache(maxsize=None)
def _gauss_E_poly(k: int) -> tuple:
    """Coefficients of P_k with d^k/dx^k E(x) = P_k(x) exp(-pi x^2), k >= 1.

    P_1 = 2 and P_{k+1} = P_k' - 2 pi x P_k.
    """
    if k < 1:
        raise DomainError("derivative order must be >= 1")
    if k == 1:
        return (2.0,)
    prev = _gauss_E_poly(k - 1)
    out = [0.0] * (len(prev) + 1)
    for i, c in enumerate(prev):
        if i >= 1:
            out[i - 1] += i * c
        out[i + 1] -= 2.0 * math.pi * c
    return tuple(out)


def gauss_E_deriv(k: int, x: float) -> float:
    """k-th derivative of E at x (k = 0 gives E itself)."""
    if k == 0:
        return gauss_E(x)
    poly = _gauss_E_poly(k)
    acc = 0.0
    for c in reversed(poly):
        acc = acc * x + c
    return acc * math.exp(-math.pi * x * x)


# ---------------------------------------------------------------------------
# incomplete gamma, scaled
# ---------------------------------------------------------------------------


def _gamma_cf_scaled(s: float, x: float) -> float:
    """exp(x) Gamma(s, x) = x^s / CF for x bounded away from 0.

    Modified Lentz evaluation of the standard continued fraction
    x + (1-s)/(1 + 1/(x + (2-s)/(1 + 2/(x + ...)))).
    """
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b if b != 0 else 1.0 / tiny
    h = d
    for i in range(1, 400):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if d == 0:
            d = tiny
        c = b + an / c
        if c == 0:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    return x ** s * h


def _gamma_series_lower(s: float, x: float) -> float:
    """Lower incomplete gamma(s, x) via
    x^s exp(-x) sum_n x^n / (s (s+1) ... (s+n)), good for x small."""
    term = x ** s / s
    total = term
    n = 0
    while True:
        n += 1
        term *= x / (s + n)
        total += term
        if abs(term) < 1e-18 * abs(total) or n > 500:
            return total * math.exp(-x)


_GAMMA_AT = {0.5: math.sqrt(math.pi), -0.5: -2.0 * math.sqrt(math.pi)}


def upper_gamma_scaled(s: float, x: float) -> float:
    """exp(x) * Gamma(s, x) for s in {1/2, -1/2} and x > 0."""
    if x <= 0:
        raise DomainError("scaled incomplete gamma needs x > 0")
    if s not in _GAMMA_AT:
        raise DomainError("only orders +1/2 and -1/2 are supported")
    if x >= 1.5:
        return _gamma_cf_scaled(s, x)
    return math.exp(x) * (_GAMMA_AT[s] - _gamma_series_lower(s, x))


# ---------------------------------------------------------------------------
# series evaluation and classical values
# ---------------------------------------------------------------------------


def eval_qseries(series: QSeries, tau: Tau, precision: str = "f64") -> complex:
    """Evaluate a truncated exact expansion at q = exp(2 pi i tau)."""
    exponents, coefficients = series.float_terms
    terms = coefficients * np.exp(exponents * (TWO_PI * 1j * tau.z))
    return accumulate(terms.tolist(), precision)


def series_trunc_for(tau: Tau, den: int, digits: float = 18.0) -> int:
    """Truncation order (numerator units) so the dropped tail of a q-series
    on grid 1/den is below 10**-digits at this tau."""
    need = digits * math.log(10.0) / (TWO_PI * tau.v)
    return int(math.ceil(need * den)) + 2 * den


def theta_value(z: complex, tau: Tau, precision: str = "f64") -> complex:
    """Odd Jacobi theta; adaptive symmetric truncation, overflow-guarded."""
    n_max = lattice_window(math.pi * tau.v, TWO_PI * abs(z.imag))
    terms = []
    for n in range(-n_max, n_max + 1):
        nu = n + 0.5
        w = cmath.exp(1j * math.pi * (nu * nu * tau.z + 2.0 * nu * (z + 0.5)))
        terms.append(w)
    return accumulate(terms, precision)


def eta_value(tau: Tau, precision: str = "f64") -> complex:
    """Dedekind eta by its lacunary expansion sum (-1)^k q^((6k+1)^2/24)."""
    # q^((6k+1)^2/24) has size exp(-(pi v / 12) t^2) in t = 6k + 1
    k_max = lattice_window(math.pi * tau.v / 12.0) // 6 + 2
    terms = []
    for k in range(-k_max, k_max + 1):
        e = (6 * k + 1) ** 2 / 24.0
        s = -1.0 if k % 2 else 1.0
        terms.append(s * cmath.exp(TWO_PI * 1j * e * tau.z))
    return accumulate(terms, precision)


def e2_value(tau: Tau, precision: str = "f64") -> complex:
    """Weight-two Eisenstein value via the Lambert expansion
    1 - 24 sum n q^n / (1 - q^n)."""
    q = tau.q
    n_max = max(8, int(math.ceil(LATTICE_TAIL / (TWO_PI * tau.v))) + 4)
    terms = [complex(1.0)]
    qn = 1.0 + 0.0j
    for n in range(1, n_max + 1):
        qn *= q
        terms.append(-24.0 * n * qn / (1.0 - qn))
    return accumulate(terms, precision)


def e2_completed(tau: Tau, precision: str = "f64") -> complex:
    """E2(tau) - 3/(pi v), the weight-two form with its modular correction."""
    return e2_value(tau, precision) - 3.0 / (math.pi * tau.v)


# ---------------------------------------------------------------------------
# eta multiplier by Dedekind sums
# ---------------------------------------------------------------------------


def dedekind_sum(h: int, k: int):
    """s(h, k) = sum_{n=1}^{k-1} ((n/k)) ((h n / k)) as an exact Fraction."""
    from fractions import Fraction

    if k < 1:
        raise DomainError("dedekind_sum needs k >= 1")

    def saw(num: int, den: int) -> Fraction:
        if num % den == 0:
            return Fraction(0)
        frac = Fraction(num % den, den)
        return frac - Fraction(1, 2)

    total = Fraction(0)
    for n in range(1, k):
        total += saw(n, k) * saw(h * n, k)
    return total


def eta_multiplier(gamma: Mobius) -> complex:
    """The root of unity psi with
    eta(gamma tau) = psi(gamma) * (c tau + d)^(1/2) * eta(tau),
    principal square root.  Exact via Dedekind sums."""
    a, b, c, d = gamma.entries()
    flipped = c < 0 or (c == 0 and d < 0)
    if flipped:
        a, b, c, d = -a, -b, -c, -d
    if c == 0:
        base = cmath.exp(1j * math.pi * b / 12.0)
        # normalized j-factor is 1; the original is -1, whose principal
        # root is i, so the multiplier absorbs a factor 1/i
        return base * -1j if flipped else base
    from fractions import Fraction

    # with the principal root, the classical (-i w)^(1/2) convention
    # contributes a constant extra phase of -pi/4
    phase = Fraction(a + d, 12 * c) - dedekind_sum(d, c) - Fraction(1, 4)
    base = cmath.exp(1j * math.pi * float(phase))
    # for c > 0 the normalized j-factor has positive imaginary part w;
    # the original is -w and (-w)^(1/2) = -i w^(1/2)
    return base * 1j if flipped else base


# ---------------------------------------------------------------------------
# period integrals
# ---------------------------------------------------------------------------


def period_integral(g: Callable[[complex], complex], tau: Tau, *,
                    half_power: int = 1, rtol: float = 1e-11) -> complex:
    """i * integral_0^infinity g(-conj(tau) + i t) / (2 v + t)^(half_power/2) dt.

    The vertical contour from -conj(tau) to i*infinity keeps
    -i (w + tau) = 2 v + t real and positive, so the fractional power needs
    no branch bookkeeping.  Integrand smoothness and decay are the caller's
    responsibility (quadrature on a split infinite interval).
    """
    if half_power not in (1, 3):
        raise DomainError("half_power must be 1 or 3")
    v = tau.v
    base = -tau.u + 1j * v  # -conj(tau)
    expo = 0.5 * half_power

    def real_part(t: float) -> float:
        return (g(base + 1j * t) / (2.0 * v + t) ** expo).real

    def imag_part(t: float) -> float:
        return (g(base + 1j * t) / (2.0 * v + t) ** expo).imag

    total = 0.0 + 0.0j
    for part, mul in ((real_part, 1.0), (imag_part, 1j)):
        acc = 0.0
        for lo, hi in ((0.0, 1.0), (1.0, math.inf)):
            val, _err = quad(part, lo, hi, epsabs=1e-13, epsrel=rtol, limit=200)
            acc += val
        total += mul * acc
    return 1j * total


def single_mode_period(a: float, tau: Tau, *, half_power: int = 1) -> complex:
    """Closed form of the period integral of w -> exp(2 pi i a w), a > 0.

    half_power 1: i exp(-2 pi i a conj(tau)) (2 pi a)^(-1/2) exp(x) Gamma(1/2, x)
    half_power 3: i exp(-2 pi i a conj(tau)) (2 pi a)^(+1/2) exp(x) Gamma(-1/2, x)
    both at x = 4 pi a v.
    """
    if a <= 0:
        raise DomainError("mode exponent must be positive")
    if half_power not in (1, 3):
        raise DomainError("half_power must be 1 or 3")
    v = tau.v
    x = 4.0 * math.pi * a * v
    phase = 1j * cmath.exp(-TWO_PI * 1j * a * (tau.u - 1j * v))
    if half_power == 1:
        return phase * upper_gamma_scaled(0.5, x) / math.sqrt(TWO_PI * a)
    return phase * upper_gamma_scaled(-0.5, x) * math.sqrt(TWO_PI * a)


# ---------------------------------------------------------------------------
# numeric lowering operator
# ---------------------------------------------------------------------------


def lowering_numeric(f: Callable[[Tau], complex], tau: Tau,
                     h: float | None = None) -> tuple[complex, float]:
    """L f = -2 i v^2 * (1/2)(d/du + i d/dv) f by central differences with
    one Richardson step.  Returns (value, error estimate)."""
    u, v = tau.u, tau.v
    if h is None:
        h = 1e-4 * v

    def dbar(step: float) -> complex:
        du = (f(Tau(u + step, v)) - f(Tau(u - step, v))) / (2.0 * step)
        dv = (f(Tau(u, v + step)) - f(Tau(u, v - step))) / (2.0 * step)
        return 0.5 * (du + 1j * dv)

    d1 = dbar(h)
    d2 = dbar(h / 2.0)
    ext = (4.0 * d2 - d1) / 3.0
    err = abs(ext - d2)
    scale = -2j * v * v
    return scale * ext, abs(scale) * err


# ---------------------------------------------------------------------------
# transformation-law residuals
# ---------------------------------------------------------------------------


def theta_elliptic_residual(lam: int, mu: int, z: complex, tau: Tau) -> float:
    """Residual of theta(z + lam tau + mu) = (-1)^(lam+mu) q^(-lam^2/2)
    e^(-2 pi i lam z) theta(z)."""
    lhs = theta_value(z + lam * tau.z + mu, tau)
    fac = (-1.0) ** (lam + mu) \
        * cmath.exp(-1j * math.pi * lam * lam * tau.z - TWO_PI * 1j * lam * z)
    return relative_residual(lhs, fac * theta_value(z, tau))


def theta_modular_residual(gamma: Mobius, z: complex, tau: Tau) -> float:
    """Residual of theta(z/(c tau+d); gamma tau) = psi^3(gamma)
    (c tau+d)^(1/2) e^(pi i c z^2/(c tau+d)) theta(z; tau)."""
    jf = gamma.j_factor(tau)
    lhs = theta_value(z / jf, gamma.apply(tau))
    rhs = eta_multiplier(gamma) ** 3 * principal_halfpower(jf, 1) \
        * cmath.exp(1j * math.pi * gamma.c * z * z / jf) * theta_value(z, tau)
    return relative_residual(lhs, rhs)


def eta_modular_residual(gamma: Mobius, tau: Tau) -> float:
    """Residual of eta(gamma tau) = psi(gamma) (c tau+d)^(1/2) eta(tau)."""
    jf = gamma.j_factor(tau)
    rhs = eta_multiplier(gamma) * principal_halfpower(jf, 1) * eta_value(tau)
    return relative_residual(eta_value(gamma.apply(tau)), rhs)


def e2_modular_residual(gamma: Mobius, tau: Tau) -> float:
    """Residual of E2(gamma tau) = (c tau+d)^2 E2(tau) - 6ic(c tau+d)/pi."""
    jf = gamma.j_factor(tau)
    rhs = jf * jf * e2_value(tau) - 6j * gamma.c * jf / math.pi
    return relative_residual(e2_value(gamma.apply(tau)), rhs)


def e2_completed_residual(gamma: Mobius, tau: Tau) -> float:
    """The 1/v-corrected weight-two series transforms without the shift."""
    jf = gamma.j_factor(tau)
    return relative_residual(e2_completed(gamma.apply(tau)),
                             jf * jf * e2_completed(tau))
