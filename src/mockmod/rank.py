"""Completed rank-moment jets.

The object under study is the odd jet family of

    F(z; tau) = -Ahat_3(z, 0; tau) * exp(-pi^2 E_2 z^2 / 2) / eta(tau),

whose z^(2l-1) Wirtinger coefficients (divided by (2 pi i)^(2l-1) throughout
this module) split into an exact rational q-series and a nonholomorphic
piece with several independently computable routes:

* ``rank_plus_series``: the holomorphic part.  Product of three exact
  expansions: Bernoulli-at-one-half numbers for the pole factor
  e^(pi i z)/(zeta - 1), even rank-moment generating series for the rank
  generating function, and powers of E_2/8 for the Gaussian gauge factor.
* ``rank_minus_jet``: single-term route,
  zeta^(-1) q^(-1/6) S(3z + tau; 3tau) times the Gaussian gauge.
* ``rank_completion_jet``: two-term route assembled exactly as the Appell
  completion contributes it.  Differs from the single-term route by an
  elementary exponential column (``elementary_gauge_jet``) that cancels
  against the constant Appell row; both routes give the same odd jets.
* ``rank_nonhol_lattice`` / ``rank_nonhol_period`` / ``rank_nonhol_modes``:
  the first nonholomorphic coefficient as an incomplete-gamma lattice sum,
  as a weight-3/2 eta period integral, and as a mode sum of closed forms.

The assembled value ``rank_hat_value`` transforms with weight 2l - 1/2 and
the eta multiplier, and its image under the lowering operator is
``lowering_reference`` (conjugation variant adjudicated numerically).
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

from .core import (DomainError, Mobius, Report, Tau, TWO_PI,
                   principal_halfpower, relative_residual)
from .exactq import (
    QSeries,
    bernoulli_half,
    e2_expansion,
    partition_series,
    qs_mul,
    rank_moment_series,
)
from .jets import (Jet, exp_linear_jet, exp_quadratic_jet, zwegers_S_jet,
                   zwegers_S_value)
from .special import (
    e2_value,
    eta_multiplier,
    eta_value,
    eval_qseries,
    lowering_numeric,
    period_integral,
    single_mode_period,
    upper_gamma_scaled,
)

DEFAULT_TRUNC = 120


def _check_ell(ell: int) -> None:
    if not isinstance(ell, int) or ell < 1:
        raise DomainError(f"jet index must be a positive integer, got {ell!r}")


# ---------------------------------------------------------------------------
# exact holomorphic part
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def rank_plus_series(ell: int, trunc: int = DEFAULT_TRUNC) -> QSeries:
    """Exact q-expansion of the holomorphic jet coefficient.

    q^(-1/24) * sum over p + 2j + 2k = 2l of
    (B_p(1/2)/p!) * (moment_2j/(2j)!) * ((E_2/8)^k/k!), denominator 24.
    """
    _check_ell(ell)
    e2 = e2_expansion(trunc)
    total = QSeries.zero(trunc)
    for p in range(0, 2 * ell + 1, 2):
        for j in range(0, (2 * ell - p) // 2 + 1):
            rest = 2 * ell - p - 2 * j
            if rest % 2:
                continue
            k = rest // 2
            coeff = (bernoulli_half(p)
                     / math.factorial(p)
                     / math.factorial(2 * j)
                     / (Fraction(8) ** k * math.factorial(k)))
            if coeff == 0:
                continue
            term = rank_moment_series(j, trunc)
            for _ in range(k):
                term = qs_mul(term, e2)
            total = total + term.scale(coeff)
    return total.shift(Fraction(-1, 24))


@lru_cache(maxsize=None)
def constant_row_series(ell: int, trunc: int = DEFAULT_TRUNC) -> QSeries:
    """Jet coefficient of q^(-1/24) e^(pi i z) e^(-pi^2 E_2 z^2/2): the
    column the constant Appell row contributes.  Exact rationals times E_2
    powers; enters the reconciliation of the two nonholomorphic routes."""
    _check_ell(ell)
    e2 = e2_expansion(trunc)
    total = QSeries.zero(trunc)
    power = QSeries.one(trunc)
    for k in range(0, ell):
        a = 2 * ell - 1 - 2 * k
        coeff = Fraction(1, 2 ** a * math.factorial(a)) \
            / (Fraction(8) ** k * math.factorial(k))
        total = total + power.scale(coeff)
        power = qs_mul(power, e2)
    return total.shift(Fraction(-1, 24))


@lru_cache(maxsize=None)
def combination_series(trunc: int = DEFAULT_TRUNC) -> QSeries:
    """Independent literal route to the weight-3/2 holomorphic part:

    q^(-1/24) [ moment_2/2 - P/24 + E_2 P/8 ]

    with P the partition generating series from the pentagonal recurrence
    (not the rank table).  Must equal ``rank_plus_series(1)`` exactly.
    """
    part = partition_series(trunc)
    e2 = e2_expansion(trunc)
    total = rank_moment_series(1, trunc).scale(Fraction(1, 2))
    total = total + part.scale(Fraction(-1, 24))
    total = total + qs_mul(part, e2).scale(Fraction(1, 8))
    return total.shift(Fraction(-1, 24))


# ---------------------------------------------------------------------------
# nonholomorphic jets
# ---------------------------------------------------------------------------


def gauge_jet(tau: Tau, order: int) -> Jet:
    """Jet of the Gaussian gauge factor exp(-pi^2 E_2(tau) z^2 / 2)."""
    return exp_quadratic_jet(-math.pi ** 2 * e2_value(tau) / 2.0, order)


def rank_minus_jet(tau: Tau, order: int) -> Jet:
    """Single-term route: jet of zeta^(-1) q^(-1/6) S(3z + tau; 3tau)
    times the Gaussian gauge."""
    lattice = 3.0 * tau.z
    front = exp_linear_jet(-TWO_PI * 1j, order) \
        .scale(cmath.exp(-1j * math.pi * tau.z / 3.0))
    series = zwegers_S_jet(tau.z, lattice, order).scale_variable(3.0)
    return front * series * gauge_jet(tau, order)


def rank_completion_jet(tau: Tau, order: int) -> Jet:
    """Two-term route, exactly as the level-3 Appell completion contributes:

    -(1/2) [ zeta q^(-1/6) S(3z - tau; 3tau)
             + zeta^2 q^(-2/3) S(3z - 2 tau; 3tau) ] * gauge.
    """
    lattice = 3.0 * tau.z
    t1 = exp_linear_jet(TWO_PI * 1j, order) \
        .scale(cmath.exp(-1j * math.pi * tau.z / 3.0)) \
        * zwegers_S_jet(-tau.z, lattice, order).scale_variable(3.0)
    t2 = exp_linear_jet(2 * TWO_PI * 1j, order) \
        .scale(cmath.exp(-4j * math.pi * tau.z / 3.0)) \
        * zwegers_S_jet(-2.0 * tau.z, lattice, order).scale_variable(3.0)
    return (t1 + t2).scale(-0.5) * gauge_jet(tau, order)


def elementary_gauge_jet(tau: Tau, order: int) -> Jet:
    """Jet of q^(-1/24) e^(pi i z) times the Gaussian gauge.  The exact
    discrepancy between the two nonholomorphic routes:

    completion route = odd part of single-term route - this jet."""
    front = exp_linear_jet(1j * math.pi, order) \
        .scale(cmath.exp(-1j * math.pi * tau.z / 12.0))
    return front * gauge_jet(tau, order)


def rank_minus_coeff(ell: int, tau: Tau, order: int | None = None) -> complex:
    """The (2l-1, 0) Wirtinger coefficient of the single-term route,
    divided by (2 pi i)^(2l-1)."""
    _check_ell(ell)
    j = 2 * ell - 1
    jet = rank_minus_jet(tau, order if order is not None else j + 1)
    return jet.coeff(j, 0) / (TWO_PI * 1j) ** j


def rank_hat_value(ell: int, tau: Tau, *, trunc: int = DEFAULT_TRUNC,
                   precision: str = "f64") -> complex:
    """Assembled completed jet coefficient: exact series plus single-term
    nonholomorphic coefficient."""
    plus = eval_qseries(rank_plus_series(ell, trunc), tau, precision)
    return plus + rank_minus_coeff(ell, tau)


# ---------------------------------------------------------------------------
# first nonholomorphic coefficient, three independent routes
# ---------------------------------------------------------------------------


def rank_nonhol_lattice(tau: Tau, *, terms: int = 14) -> complex:
    """Incomplete-gamma lattice route:

    (3/(2 sqrt(pi))) sum over n in -1/6 + Z of
    (-1)^(n - 5/6) |n| Gamma(-1/2, 6 pi n^2 v) q^(-3 n^2 / 2),

    written with the scaled gamma so each term carries exp(-3 pi n^2 v).
    """
    v = tau.v
    total = 0.0j
    for m in range(-terms, terms + 1):
        n = m - 1.0 / 6.0
        x = 6.0 * math.pi * n * n * v
        sign = -1.0 if m % 2 == 0 else 1.0
        total += sign * abs(n) * upper_gamma_scaled(-0.5, x) \
            * cmath.exp(-3j * math.pi * n * n * tau.z - x)
    return 1.5 / math.sqrt(math.pi) * total


def rank_nonhol_period(tau: Tau, *, rtol: float = 1e-11) -> complex:
    """Period-integral route: (i sqrt(3)/(2 pi)) times the weight-3/2
    eta integral along the vertical contour from -conj(tau)."""
    def eta_on_contour(w: complex) -> complex:
        return eta_value(Tau.from_complex(w))

    integral = period_integral(eta_on_contour, tau, half_power=3, rtol=rtol)
    return 1j * math.sqrt(3.0) / TWO_PI * integral


def rank_nonhol_modes(tau: Tau, *, kmax: int = 10) -> complex:
    """Mode-sum route: same prefactor as the period route, with the
    integral replaced by closed-form single modes at (6k+1)^2/24."""
    total = 0.0j
    for k in range(-kmax, kmax + 1):
        a = (6 * k + 1) ** 2 / 24.0
        sign = 1.0 if k % 2 == 0 else -1.0
        total += sign * single_mode_period(a, tau, half_power=3)
    return 1j * math.sqrt(3.0) / TWO_PI * total


# ---------------------------------------------------------------------------
# lowering image
# ---------------------------------------------------------------------------


def lowering_reference(ell: int, tau: Tau, *, conjugate: bool = True,
                       sign: int = 1) -> complex:
    """Reference value for L applied to the assembled jet coefficient:

    sign * i sqrt(3/2) * (2 pi i)^(1-2l) * sqrt(v) * eta-factor
         * (-pi^2 E2hat/2)^(l-1) / (l-1)!

    with eta-factor = conj(eta(tau)) when ``conjugate`` (the adjudicated
    winner) else eta(tau).  The (2 pi i) power converts to this module's
    normalization of the jet coefficients.
    """
    _check_ell(ell)
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    eta = eta_value(tau)
    eta_factor = eta.conjugate() if conjugate else eta
    e2_hat = e2_value(tau) - 3.0 / (math.pi * tau.v)
    body = math.sqrt(tau.v) * eta_factor \
        * (-math.pi ** 2 * e2_hat / 2.0) ** (ell - 1) / math.factorial(ell - 1)
    return sign * 1j * math.sqrt(1.5) * (TWO_PI * 1j) ** (1 - 2 * ell) * body


# ---------------------------------------------------------------------------
# dual-route residuals for the nonholomorphic column
# ---------------------------------------------------------------------------


def two_term_completion_value(z: complex, tau: Tau) -> complex:
    """Value route of the two-term completion (no gauge):

    -(1/2) [ zeta q^(-1/6) S(3z - tau; 3 tau)
             + zeta^2 q^(-2/3) S(3z - 2 tau; 3 tau) ].
    """
    t1 = cmath.exp(TWO_PI * 1j * z - 1j * math.pi * tau.z / 3.0) \
        * zwegers_S_value(3.0 * z - tau.z, 3.0 * tau.z)
    t2 = cmath.exp(2 * TWO_PI * 1j * z - 4j * math.pi * tau.z / 3.0) \
        * zwegers_S_value(3.0 * z - 2.0 * tau.z, 3.0 * tau.z)
    return -0.5 * (t1 + t2)


def completion_collapse_residual(z: complex, tau: Tau) -> float:
    """The generic residue-class completion collapses onto the two-term
    route through the theta nulls at lattice points:

    (i/2) sum_{nu mod 3} class_nu(z, 0) = -eta(tau) ttv(z).

    The nu = 0 class vanishes (theta at an integer) and the remaining
    theta nulls assemble the eta product; S picks up a sign per unit
    argument shift."""
    from .appell import appell_completion_term

    generic = 0.5j * sum(appell_completion_term(3, nu, z, 0.0 + 0.0j, tau)
                         for nu in range(3))
    return relative_residual(generic,
                             -eta_value(tau) * two_term_completion_value(z, tau))


def completion_route_residual(tau: Tau, order: int = 7) -> float:
    """Coefficient-wise gap between the two-term completion jet and the
    odd part of the single-term route minus the elementary column,
    relative to the largest coefficient involved."""
    two = rank_completion_jet(tau, order)
    alt = rank_minus_jet(tau, order).odd_part() - elementary_gauge_jet(tau, order)
    gap = 0.0
    scale = 0.0
    for a in range(order + 1):
        for b in range(order + 1 - a):
            gap = max(gap, abs(two.coeff(a, b) - alt.coeff(a, b)))
            scale = max(scale, abs(two.coeff(a, b)))
    return gap / max(scale, 1e-300)


def completed_family_value(z: complex, tau: Tau) -> complex:
    """Value route of the full completed family:
    -Ahat_3(z, 0; tau) e^(-pi^2 E_2 z^2/2) / eta(tau)."""
    from .appell import appell_hat

    gauge = cmath.exp(-math.pi ** 2 * e2_value(tau) * z * z / 2.0)
    return -appell_hat(3, z, 0.0 + 0.0j, tau) * gauge / eta_value(tau)


def completion_circle_residual(tau: Tau, radius: float = 0.1,
                               order: int = 13, samples: int = 32) -> float:
    """Worst odd-mode gap between circle values of the completion part
    (generic residue-class route) and the full two-variable jet columns
    (two-term route): mode j at radius r carries sum_t c_{j+t,t} r^(j+2t).
    """
    from .appell import appell_A, appell_hat

    eta = eta_value(tau)
    jet = rank_completion_jet(tau, order)

    def fcomp(z: complex) -> complex:
        gauge = cmath.exp(-math.pi ** 2 * e2_value(tau) * z * z / 2.0)
        return -(appell_hat(3, z, 0.0 + 0.0j, tau)
                 - appell_A(3, z, 0.0 + 0.0j, tau)) * gauge / eta

    vals = [fcomp(radius * cmath.exp(2j * math.pi * k / samples))
            for k in range(samples)]
    worst = 0.0
    for j in (1, 3, 5):
        mode = sum(v * cmath.exp(-2j * math.pi * j * k / samples)
                   for k, v in enumerate(vals)) / (samples * radius ** j)
        want = sum(jet.coeff(j + t, t) * radius ** (2 * t)
                   for t in range((order - j) // 2 + 1))
        worst = max(worst, relative_residual(mode, want))
    return worst


def oddness_residual(tau: Tau, radius: float = 0.12, samples: int = 16) -> float:
    """|F(z) + F(-z)| / |F(z) - F(-z)| over a circle; the completed
    family is odd in z (the simple pole included)."""
    worst = 0.0
    for k in range(samples):
        z = radius * cmath.exp(2j * math.pi * k / samples)
        plus = completed_family_value(z, tau) + completed_family_value(-z, tau)
        minus = completed_family_value(z, tau) - completed_family_value(-z, tau)
        worst = max(worst, abs(plus) / abs(minus))
    return worst


def single_mode_identity_residual(k: int, tau: Tau) -> float:
    """Closed-form single mode against the direct numeric period integral
    of e^(2 pi i a w) at a = (6k+1)^2/24."""
    a = (6 * k + 1) ** 2 / 24.0
    direct = period_integral(lambda w: cmath.exp(2j * math.pi * a * w), tau,
                             half_power=3, rtol=1e-12)
    return relative_residual(direct, single_mode_period(a, tau, half_power=3))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_rank_transform(ell: int, gamma: Mobius, tau: Tau,
                         tolerance: float = 1e-6, trunc: int = DEFAULT_TRUNC,
                         precision: str = "f64") -> Report:
    """Residual of the weight-(2l - 1/2) law with the eta multiplier:

    rhat(gamma tau) = psi(gamma)^(-1) (c tau + d)^(2l - 1/2) rhat(tau).
    """
    base = rank_hat_value(ell, tau, trunc=trunc, precision=precision)
    if abs(base) < 1e-10:
        raise DomainError("assembled value too small here; resample tau")
    lhs = rank_hat_value(ell, gamma.apply(tau), trunc=trunc,
                         precision=precision)
    rhs = base * principal_halfpower(gamma.j_factor(tau), 4 * ell - 1) \
        / eta_multiplier(gamma)
    res = abs(lhs - rhs) / abs(rhs)
    return Report("rank.transform", {"ell": ell, "gamma": gamma.entries(),
                                     "tau": [tau.u, tau.v]}, res, tolerance)


def check_rank_lowering(ell: int, tau: Tau, tolerance: float = 1e-5) -> Report:
    """Numeric lowering of the assembled coefficient against the closed
    form, all four conjugation/sign variants recorded; the adjudicated
    winner (conjugated eta, plus sign) is the reported residual."""
    got, fd_err = lowering_numeric(lambda t: rank_hat_value(ell, t), tau)
    variants = {}
    for conj in (True, False):
        for sign in (1, -1):
            key = ("conjugate" if conj else "plain") + ("_plus" if sign > 0 else "_minus")
            ref = lowering_reference(ell, tau, conjugate=conj, sign=sign)
            variants[key] = relative_residual(got, ref)
    params = {"ell": ell, "tau": [tau.u, tau.v], "fd_error": fd_err,
              "variant": "conjugate_plus", "variants": variants}
    return Report("rank.lowering", params, variants["conjugate_plus"], tolerance)


def check_weight_three_halves(tau: Tau, tolerance: float = 1e-7) -> Report:
    """Certifies the first nonholomorphic coefficient and its assembly.

    Routes for the coefficient itself: jet extraction, incomplete-gamma
    lattice sum, eta period integral, closed-form mode sum.  Assembly:
    the l = 1 completed coefficient equals half the shifted first-moment
    series plus the period route plus (E_2/8 - 1/24)/eta.
    """
    jet = rank_minus_coeff(1, tau)
    lattice = rank_nonhol_lattice(tau)
    period = rank_nonhol_period(tau)
    modes = rank_nonhol_modes(tau)
    gaps = {
        "jet_vs_lattice": relative_residual(jet, lattice),
        "lattice_vs_period": relative_residual(lattice, period),
        "lattice_vs_modes": relative_residual(lattice, modes),
    }
    eta = eta_value(tau)
    shifted = rank_moment_series(1, DEFAULT_TRUNC).shift(Fraction(-1, 24))
    assembled = 0.5 * eval_qseries(shifted, tau) + period \
        + (e2_value(tau) / 8.0 - 1.0 / 24.0) / eta
    match_res = relative_residual(rank_hat_value(1, tau), assembled)
    parts = (match_res, *gaps.values())
    # max() drops a NaN that is not first; a non-finite part must fail
    res = next((r for r in parts if not math.isfinite(r)), max(parts))
    params = {"tau": [tau.u, tau.v], "match_residual": match_res,
              "route_gaps": gaps}
    return Report("rank.three-halves", params, res, tolerance)
