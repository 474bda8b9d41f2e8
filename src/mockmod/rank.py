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
* ``rank_minus_jet``: single-term route, zeta^(-1) q^(-1/6) S(3z + tau;
  3tau) times the Gaussian gauge, one column times the S-jet;
  ``rank_minus_coeffs`` reads its (2l-1, 0) coefficients from the three
  Taylor columns in z alone, every order l and every point of a batch in
  one array pass at the top order.
* ``rank_completion_jet``: two-term route assembled exactly as the Appell
  completion contributes it.  Differs from the single-term route by an
  elementary exponential column (``elementary_gauge_column``) that cancels
  against the constant Appell row; both routes give the same odd jets.
* ``rank_nonhol_lattice`` / ``rank_nonhol_period`` / ``rank_nonhol_modes``:
  the first nonholomorphic coefficient as an incomplete-gamma lattice sum,
  as a weight-3/2 eta period integral, and as a mode sum of closed forms.

Every cut comes from tau: the plus series from one tail bound
(``_plus_trunc``), the lattice and mode routes from ``core.lattice_window``;
a batch of points takes the cuts of its smallest Im tau.

The assembled values ``rank_hat_rows`` (a row per order) transform with
weight 2l - 1/2 and the eta multiplier, and their image under the
lowering operator is ``lowering_reference``.  Which
conjugation/sign reading of that closed form holds is computed, not
assumed: ``lowering_values`` lowers every order in one stencil pass,
``lowering_readings`` returns the residual of every reading, and the check
fails unless the documented one wins.
"""
from __future__ import annotations

import cmath
import math
import operator
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .appell import appell_columns, appell_hat_values
from .core import (DomainError, Tau, TWO_PI, lattice_window, read_points,
                   relative_residual, worst_of)
from .exactq import (RANK_TABLE_NMAX, QSeries, _kronecker_product,
                     bernoulli_half, e2_expansion, partition_series,
                     rank_moment_series, rank_table)
from .jets import (column_times, exp_column, gaussian_columns, toeplitz,
                   triangle, zwegers_S_columns, zwegers_S_jet)
from .special import (e2_completed, e2_value, eta_value, eta_window,
                      eval_qseries, lowering_numeric, period_integral,
                      series_trunc_for, single_mode_period,
                      upper_gamma_scaled)


def _check_ell(ell: int) -> None:
    if not isinstance(ell, int) or ell < 1:
        raise DomainError(f"jet index must be a positive integer, got {ell!r}")


# ---------------------------------------------------------------------------
# exact holomorphic part
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def rank_plus_series(ell: int, trunc: int) -> QSeries:
    """Exact q-expansion of the holomorphic jet coefficient.

    q^(-1/24) * sum over p + 2j + 2k = 2l of
    (B_p(1/2)/p!) * (moment_2j/(2j)!) * ((E_2/8)^k/k!), denominator 24,
    summed on ints over one common denominator, ``Fraction``s at the end.
    """
    _check_ell(ell)
    e2 = [int(c) for c in e2_expansion(trunc).coeffs]
    table = rank_table(max(trunc - 1, 1))
    moments = [table.moments(2 * j)[:trunc] for j in range(ell + 1)]
    # weights[k][j] multiplies moment_2j in the terms carrying (E_2/8)^k/k!
    weights = [[bernoulli_half(p) / math.factorial(p) / math.factorial(2 * j)
                / (Fraction(8) ** k * math.factorial(k))
                for j in range(ell - k + 1) for p in [2 * (ell - k - j)]]
               for k in range(ell + 1)]
    den = math.lcm(*(w.denominator for row in weights for w in row))
    inner = [[sum(map(operator.mul, ints, col)) for col in zip(*moments)]
             for ints in ([int(w * den) for w in row] for row in weights)]
    # Horner in E_2: ell integer products
    total = inner[ell]
    for k in reversed(range(ell)):
        total = [a + b for a, b in
                 zip(_kronecker_product(total, e2, trunc), inner[k])]
    co = tuple(Fraction(c, den) for c in total)
    return QSeries(1, 0, co, trunc)._strip().shift(Fraction(-1, 24))


def _plus_trunc(ell: int, taus) -> int:
    """Cut of the order-ell plus series at taus: ``series_trunc_for`` with
    log-bound pi sqrt(2T/3) + (2 ell + 2) ln(T + 1) (p(n) < e^(pi sqrt(2n/3)),
    |moment_2j(n)| <= n^(2j) p(n)); ``DomainError`` past the rank table."""
    trunc = series_trunc_for(
        taus, 1, lambda t: math.pi * math.sqrt(2.0 * t / 3.0)
        + (2 * ell + 2) * math.log(t + 1.0))
    if trunc > RANK_TABLE_NMAX + 1:  # T reads the table at nmax T - 1
        v = read_points(taus).imag.min()
        raise DomainError(f"rank series of order {ell} at Im tau = {v:.6g}"
                          f" needs more terms than the int64 rank table holds")
    return trunc


@lru_cache(maxsize=None)
def constant_row_series(ell: int, trunc: int) -> QSeries:
    """Jet coefficient of q^(-1/24) e^(pi i z) e^(-pi^2 E_2 z^2/2): the
    column the constant Appell row contributes.  Exact rationals times E_2
    powers; no kernel calls it, but the tests read it as the exact form of
    that column and the benchmark's tracer reads its ``cache_info``."""
    _check_ell(ell)
    e2 = e2_expansion(trunc)
    one = QSeries.one(trunc)
    # constant[k] is the coefficient of E_2^k; Horner in E_2 then makes
    # ell - 1 products.
    constant = []
    for k in range(ell):
        a = 2 * ell - 1 - 2 * k
        constant.append(one.scale(Fraction(1, 2 ** a * math.factorial(a))
                                  / (Fraction(8) ** k * math.factorial(k))))
    total = constant[ell - 1]
    for k in reversed(range(ell - 1)):
        total = total * e2 + constant[k]
    return total.shift(Fraction(-1, 24))


@lru_cache(maxsize=None)
def combination_series(trunc: int) -> QSeries:
    """Independent literal route to the weight-3/2 holomorphic part:

    q^(-1/24) [ moment_2/2 - P/24 + E_2 P/8 ]

    with P the partition generating series from the pentagonal recurrence
    (not the rank table).  Must equal ``rank_plus_series(1)`` exactly.  The
    tests' own route; no kernel calls it, and the tracer reads its cache."""
    part = partition_series(trunc)
    e2 = e2_expansion(trunc)
    total = rank_moment_series(1, trunc).scale(Fraction(1, 2))
    total = total + part.scale(Fraction(-1, 24))
    total = total + (part * e2).scale(Fraction(1, 8))
    return total.shift(Fraction(-1, 24))


# ---------------------------------------------------------------------------
# nonholomorphic jets
# ---------------------------------------------------------------------------


def gauge_column(taus, order: int) -> np.ndarray:
    """Taylor columns of the Gaussian gauge exp(a z^2), a = -pi^2 E_2 / 2,
    one row per point."""
    return gaussian_columns(-math.pi ** 2 * e2_value(taus) / 2.0, order)


def _S3_jet(base: complex, tau: Tau, order: int) -> np.ndarray:
    """Triangle jet of z -> S(3z + base; 3 tau): entry (j, k) gains 3^(j+k)."""
    powers = 3.0 ** np.arange(order + 1)
    return np.outer(powers, powers) * zwegers_S_jet(base, 3.0 * tau, order)


def rank_minus_jet(tau: Tau, order: int) -> np.ndarray:
    """Single-term route: triangle jet of zeta^(-1) q^(-1/6) S(3z + tau;
    3tau) times the Gaussian gauge."""
    front = exp_column([cmath.exp(-1j * math.pi * tau / 3.0)],
                       [-TWO_PI * 1j], order)
    return column_times(np.convolve(front, gauge_column([tau], order)[0]),
                        _S3_jet(tau, tau, order))


def rank_completion_jet(tau: Tau, order: int) -> np.ndarray:
    """Two-term route, exactly as the level-3 Appell completion contributes:

    -(1/2) [ zeta q^(-1/6) S(3z - tau; 3tau)
             + zeta^2 q^(-2/3) S(3z - 2 tau; 3tau) ] * gauge.
    """
    total = 0.0
    for m in (1, 2):
        front = exp_column([cmath.exp(-1j * math.pi * m * m * tau / 3.0)],
                           [m * TWO_PI * 1j], order)
        total = total + column_times(front, _S3_jet(-m * tau, tau, order))
    return column_times(gauge_column([tau], order)[0], -0.5 * total)


def elementary_gauge_column(tau: Tau, order: int) -> np.ndarray:
    """Taylor column of q^(-1/24) e^(pi i z) times the Gaussian gauge.  The
    exact discrepancy between the two nonholomorphic routes:

    completion route = odd part of single-term route - this column."""
    front = exp_column([cmath.exp(-1j * math.pi * tau / 12.0)],
                       [1j * math.pi], order)
    return np.convolve(front, gauge_column([tau], order)[0])[: order + 1]


def rank_minus_coeffs(ells, taus) -> np.ndarray:
    """The (2l-1, 0) Wirtinger coefficients of the single-term route over
    (2 pi i)^(2l-1), a row per order l in ``ells`` and an entry per point
    of ``taus``.  They read only the k = 0 columns of the factors, so
    front, S-sum and gauge enter as Taylor columns at the top order
    2 max(ells) - 1, every point in one array pass, and order l reads
    coefficient 2l - 1 of their product (lower orders are prefixes)."""
    for ell in ells:
        _check_ell(ell)
    top = 2 * max(ells) - 1
    zs = read_points(taus)
    series = zwegers_S_columns(zs, 3.0 * zs, top) * 3.0 ** np.arange(top + 1)
    gauge = gauge_column(zs, top)
    # front zeta^(-1) q^(-1/6): a Toeplitz matrix and a factor for the q-power
    front = toeplitz(exp_column([1.0], [-TWO_PI * 1j], top))
    col = np.einsum("ji,pi->pj", front, series)
    lead = np.exp(-1j * math.pi * zs / 3.0)
    return np.array([lead * np.einsum("pi,pi->p", col[:, j::-1], gauge[:, :j + 1])
                     / (TWO_PI * 1j) ** j for j in (2 * ell - 1 for ell in ells)])


def rank_hat_parts(ells, taus) -> tuple:
    """Exact series (cut by ``_plus_trunc`` at the smallest Im tau, one
    evaluation per order, as the series differ) and the single-term
    nonholomorphic coefficients, a row per order in ``ells``."""
    zs = read_points(taus)
    plus = [eval_qseries(rank_plus_series(ell, _plus_trunc(ell, zs)), zs)
            for ell in ells]
    return np.array(plus), rank_minus_coeffs(ells, zs)


def rank_hat_rows(ells, taus) -> np.ndarray:
    """Assembled completed jet coefficients plus + minus, a row per order
    in ``ells`` and an entry per point of ``taus``."""
    return sum(rank_hat_parts(ells, taus))


# ---------------------------------------------------------------------------
# first nonholomorphic coefficient, three independent routes
# ---------------------------------------------------------------------------


def rank_nonhol_lattice(tau: Tau) -> complex:
    """Incomplete-gamma lattice route:

    (3/(2 sqrt(pi))) sum over n in -1/6 + Z of
    (-1)^(n - 5/6) |n| Gamma(-1/2, 6 pi n^2 v) q^(-3 n^2 / 2),

    written with the scaled gamma so each term carries exp(-3 pi n^2 v).
    """
    terms = lattice_window(3.0 * math.pi * tau.v)
    m = np.arange(-terms, terms + 1)
    n = m - 1.0 / 6.0
    x = 6.0 * math.pi * n * n * tau.v
    vals = np.where(m % 2 == 0, -1.0, 1.0) * np.abs(n) * upper_gamma_scaled(x) \
        * np.exp(-3j * math.pi * n * n * tau - x)
    return 1.5 / math.sqrt(math.pi) * complex(vals.sum())


def rank_nonhol_period(tau: Tau) -> complex:
    """Period-integral route: (i sqrt(3)/(2 pi)) times the weight-3/2
    eta integral along the vertical contour from -conj(tau), with eta read
    at every contour node in one batched call."""
    return 1j * math.sqrt(3.0) / TWO_PI * period_integral(eta_value, tau)


def rank_nonhol_modes(tau: Tau) -> complex:
    """Mode-sum route: same prefactor as the period route, with the
    integral replaced by closed-form single modes at (6k+1)^2/24.  Mode k
    has the size of q^((6k+1)^2/24), so the sum takes eta's window."""
    kmax = eta_window(tau)
    k = np.arange(-kmax, kmax + 1)
    modes = np.where(k % 2 == 0, 1.0, -1.0) \
        * single_mode_period((6 * k + 1) ** 2 / 24.0, tau)
    return 1j * math.sqrt(3.0) / TWO_PI * complex(modes.sum())


# ---------------------------------------------------------------------------
# lowering image
# ---------------------------------------------------------------------------


def lowering_reference(ell: int, eta: complex, e2hat: complex, tau: Tau, *,
                       conjugate: bool = True, sign: int = 1) -> complex:
    """Reference value for L applied to the assembled jet coefficient:

    sign * i sqrt(3/2) * (2 pi i)^(1-2l) * sqrt(v) * eta-factor
         * (-pi^2 E2hat/2)^(l-1) / (l-1)!

    with eta-factor = conj(``eta``) when ``conjugate`` else ``eta``, given
    ``eta`` = eta(tau) and ``e2hat`` = E2hat(tau); the documented reading
    is conjugate=True, sign=+1.  The (2 pi i) power converts to this
    module's normalization of the jet coefficients.
    """
    _check_ell(ell)
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    eta_factor = eta.conjugate() if conjugate else eta
    gauge = (-math.pi ** 2 * e2hat / 2.0) ** (ell - 1)
    body = math.sqrt(tau.v) * eta_factor * gauge / math.factorial(ell - 1)
    return sign * 1j * math.sqrt(1.5) * (TWO_PI * 1j) ** (1 - 2 * ell) * body


# ---------------------------------------------------------------------------
# dual-route residuals for the nonholomorphic column
# ---------------------------------------------------------------------------


def two_term_completion_value(z: complex, tau: Tau) -> complex:
    """Value route of the two-term completion (no gauge):

    -(1/2) [ zeta q^(-1/6) S(3z - tau; 3 tau)
             + zeta^2 q^(-2/3) S(3z - 2 tau; 3 tau) ].
    """
    s1, s2 = zwegers_S_columns([3.0 * z - tau, 3.0 * z - 2.0 * tau],
                               3.0 * tau, 0)[:, 0]
    t1 = cmath.exp(TWO_PI * 1j * z - 1j * math.pi * tau / 3.0) * s1
    t2 = cmath.exp(2 * TWO_PI * 1j * z - 4j * math.pi * tau / 3.0) * s2
    return -0.5 * (t1 + t2)


def generic_completion(zs, tau: Tau) -> np.ndarray:
    """The generic residue-class completion (i/2) sum_{nu mod 3}
    class_nu(z, 0) of the level-3 Appell sum at the points ``zs``."""
    return 0.5j * appell_columns(3, zs, 0.0, tau, 0)[1][:, 0]


def completion_collapse_residual(z: complex, generic: complex, eta: complex,
                                 tau: Tau) -> float:
    """The generic residue-class completion collapses onto the two-term
    route through the theta nulls at lattice points:

    ``generic`` = (i/2) sum_{nu mod 3} class_nu(z, 0) = -``eta`` ttv(z).

    The nu = 0 class vanishes (theta at an integer) and the remaining
    theta nulls assemble the eta product; S picks up a sign per unit
    argument shift."""
    return relative_residual(generic, -eta * two_term_completion_value(z, tau))


# jet order of the two routes compared by ``completion_route_residual``
ROUTE_JET_ORDER = 7


def completion_route_residual(tau: Tau, order: int = ROUTE_JET_ORDER) -> float:
    """Worst coefficient-wise gap between the two-term completion jet and
    the odd part of the single-term route minus the elementary column, on
    the scale of the largest coefficient of the two-term jet."""
    two = rank_completion_jet(tau, order)
    # the odd part (f(z) - f(-z))/2 keeps the entries of odd total degree
    odd = np.add.outer(np.arange(order + 1), np.arange(order + 1)) % 2 == 1
    alt = np.where(odd, rank_minus_jet(tau, order), 0.0)
    alt[:, 0] -= elementary_gauge_column(tau, order)
    tri = triangle(order)
    return worst_of([relative_residual(two[tri], alt[tri],
                                       np.abs(two[tri]).max())])


def completed_family_value(zs, tau: Tau) -> np.ndarray:
    """Value route of the full completed family at the points ``zs``:
    -Ahat_3(z, 0; tau) e^(-pi^2 E_2 z^2/2) / eta(tau), E_2 and eta read
    once."""
    zs = np.asarray(zs)
    a = -math.pi ** 2 * e2_value(tau)
    return -appell_hat_values(3, zs, 0.0, tau) * np.exp(a * zs * zs / 2.0) \
        / eta_value(tau)


# the odd circle modes compared by ``completion_circle_residual``
CIRCLE_MODES = (1, 3, 5)


def completion_circle_residual(order: int, tau: Tau) -> float:
    """Worst odd-mode gap between circle values of the completion part
    (generic residue-class route) and the full two-variable jet columns
    (two-term route): mode j at radius r carries sum_t c_{j+t,t} r^(j+2t).
    """
    radius, samples = 0.1, 32
    a = -math.pi ** 2 * e2_value(tau)
    jet = rank_completion_jet(tau, order)
    k = np.arange(samples)
    zs = radius * np.exp(2j * math.pi * k / samples)
    vals = -generic_completion(zs, tau) * np.exp(a * zs * zs / 2.0) \
        / eta_value(tau)
    j = np.array(CIRCLE_MODES)
    modes = (vals * np.exp(-2j * math.pi * j[:, None] * k / samples)
             ).sum(axis=-1) / (samples * radius ** j)
    want = [(jet[i + t, t] * radius ** (2 * t)).sum() for i in CIRCLE_MODES
            for t in [np.arange((order - i) // 2 + 1)]]
    return worst_of([relative_residual(modes, np.array(want))])


def oddness_residual(tau: Tau) -> float:
    """Worst residual of F(z) = -F(-z) over a circle; the completed family
    is odd in z (the simple pole included)."""
    radius, samples = 0.12, 16
    zs = [radius * cmath.exp(2j * math.pi * k / samples) for k in range(samples)]
    vals = completed_family_value(zs + [-z for z in zs], tau)
    return worst_of([relative_residual(vals[:samples], -vals[samples:])])


def single_mode_identity_residual(k: int, tau: Tau) -> float:
    """Closed-form single mode against the direct numeric period integral
    of e^(2 pi i a w) at a = (6k+1)^2/24."""
    a = (6 * k + 1) ** 2 / 24.0
    direct = period_integral(lambda ws: np.exp(2j * math.pi * a * ws), tau,
                             rtol=1e-12)
    return relative_residual(direct, single_mode_period(a, tau))


def lowering_values(ells, tau: Tau) -> list:
    """What the lowering law compares at tau, a tuple (ell, numeric
    lowering, eta, E2hat, scale) per order in ``ells``: one stencil pass
    over every order's assembled coefficient, and eta, E2hat and the
    assembly's parts at tau read once."""
    got, _ = lowering_numeric(lambda ts: rank_hat_rows(ells, ts), tau)
    eta, e2hat = eta_value(tau), e2_completed(tau)
    plus, minus = rank_hat_parts(ells, tau)
    # the roundoff of the difference quotient follows the parts it takes,
    # while the reference, a power of E2hat, falls near zeros of E2hat
    return [(ell, complex(g), eta, e2hat,
             2.0 * tau.v * (abs(complex(p)) + abs(complex(m))))
            for ell, g, p, m in zip(ells, got, plus[:, 0], minus[:, 0])]


def lowering_readings(ell: int, got: complex, eta: complex, e2hat: complex,
                      scale: float, tau: Tau) -> dict:
    """Residual of the numeric lowering ``got`` of the order-ell assembled
    coefficient against each of the four conjugation/sign readings of the
    closed form, keyed ``conjugate_plus``, ``conjugate_minus``,
    ``plain_plus`` and ``plain_minus``; ``conjugate_plus`` is the
    documented one."""
    variants = {}
    for conj in (True, False):
        for sign in (1, -1):
            key = ("conjugate" if conj else "plain") + ("_plus" if sign > 0 else "_minus")
            ref = lowering_reference(ell, eta, e2hat, tau, conjugate=conj,
                                     sign=sign)
            variants[key] = relative_residual(got, ref, scale)
    return variants


def three_halves_residual(tau: Tau) -> tuple[float, dict]:
    """Certifies the first nonholomorphic coefficient and its assembly.

    Routes for the coefficient itself: jet extraction, incomplete-gamma
    lattice sum, eta period integral, closed-form mode sum.  Assembly:
    the l = 1 completed coefficient equals half the shifted first-moment
    series plus the period route plus (E_2/8 - 1/24)/eta.  Returns the
    worst part and the parts (``match`` and the three route gaps).
    """
    plus, jet = (complex(part[0, 0]) for part in rank_hat_parts((1,), tau))
    lattice = rank_nonhol_lattice(tau)
    period = rank_nonhol_period(tau)
    modes = rank_nonhol_modes(tau)
    eta = eta_value(tau)
    shifted = rank_moment_series(1, _plus_trunc(1, tau)).shift(Fraction(-1, 24))
    assembled = 0.5 * eval_qseries(shifted, tau) + period \
        + (e2_value(tau) / 8.0 - 1.0 / 24.0) / eta
    parts = {
        "match": relative_residual(plus + jet, assembled),
        "jet_vs_lattice": relative_residual(jet, lattice),
        "lattice_vs_period": relative_residual(lattice, period),
        "lattice_vs_modes": relative_residual(lattice, modes),
    }
    return worst_of(parts.values()), parts
