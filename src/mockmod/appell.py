"""Level-ell Appell sums, their nonholomorphic completions, and Taylor
columns in the elliptic variable.

The basic object is

    A_ell(z1, z2; tau) = e^(pi i ell z1) * sum over n in Z of
        (-1)^(ell n) e^(2 pi i n z2) q^(ell n (n+1)/2)
        / (1 - e^(2 pi i z1) q^n),

meromorphic in z1 with simple poles on the lattice Z tau + Z.  The
completion adds one nonholomorphic theta x period-sum product per residue
class modulo ell, the ell thetas and the ell period sums each on one
lattice window, and transforms like a two-variable Jacobi form of weight
one.  Negative-index denominators are folded so no intermediate outgrows
the final term size.  The moments read z2-coefficients (j, 0) only, so
every factor enters as a Taylor column in z2.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .core import (DomainError, Mobius, Tau, accumulate, lattice_window,
                   relative_residual, richardson, TWO_PI)
from .jets import (exp_column, theta_arg_column, vartheta_nu_column,
                   zwegers_S_columns, zwegers_S_values)
from .special import theta_terms


def _pole_distance(z1: complex, tau: Tau) -> float:
    """Distance of z1 from the lattice Z tau + Z, in lattice coordinates."""
    lam = z1.imag / tau.v
    mu = z1.real - lam * tau.u
    return math.hypot(lam - round(lam), mu - round(mu))


def _appell_terms(ell: int, z1: complex, z2: complex, tau: Tau) -> tuple:
    """The lattice n and the terms of A_ell(z1, z2; tau) without the
    prefactor e^(pi i ell z1); raises on z1 within 1e-6 of a pole."""
    if ell < 1:
        raise DomainError("level must be a positive integer")
    if _pole_distance(z1, tau) < 1e-6:
        raise DomainError("z1 too close to the pole lattice")
    n_max = lattice_window(math.pi * ell * tau.v, TWO_PI * abs(z2.imag))
    w1 = cmath.exp(TWO_PI * 1j * z1)
    terms = []
    for n in range(-n_max, n_max + 1):
        sign = -1.0 if (ell * n) % 2 else 1.0
        top = TWO_PI * 1j * (n * z2 + 0.5 * ell * n * (n + 1) * tau.z)
        if n >= 0:
            den = 1.0 - w1 * cmath.exp(TWO_PI * 1j * n * tau.z)
            terms.append(sign * cmath.exp(top) / den)
        else:
            # fold: 1/(1 - w q^n) = -w^{-1} q^{-n} / (1 - w^{-1} q^{-n})
            den = 1.0 - cmath.exp(TWO_PI * 1j * (-z1 - n * tau.z))
            terms.append(-sign * cmath.exp(top - TWO_PI * 1j * (z1 + n * tau.z)) / den)
    return np.arange(-n_max, n_max + 1), terms


def appell_A(ell: int, z1: complex, z2: complex, tau: Tau) -> complex:
    """The level-ell Appell sum; raises on z1 within 1e-6 of a pole."""
    _, terms = _appell_terms(ell, z1, z2, tau)
    return cmath.exp(1j * math.pi * ell * z1) * accumulate(terms)


def appell_completion_terms(ell: int, z1: complex, z2: complex,
                            tau: Tau) -> list:
    """The residue-class terms of the completion, nu = 0 .. ell - 1:
    e^(2 pi i nu z1) theta(z2 + nu tau + (ell-1)/2; ell tau)
    S(ell z1 - z2 - nu tau - (ell-1)/2; ell tau), the thetas on one
    lattice window and the S-values on another."""
    shifts = [nu * tau.z + (ell - 1) / 2.0 for nu in range(ell)]
    lat = ell * tau.z
    svals = zwegers_S_values([ell * z1 - z2 - shift for shift in shifts], lat)
    _, thetas = theta_terms([z2 + shift for shift in shifts], lat)
    return [cmath.exp(TWO_PI * 1j * nu * z1) * accumulate(row.tolist())
            * complex(sval)
            for nu, (row, sval) in enumerate(zip(thetas, svals))]


def appell_hat(ell: int, z1: complex, z2: complex, tau: Tau) -> complex:
    """Completed Appell sum: A_ell plus (i/2) times the residue-class sum."""
    comp = appell_completion_terms(ell, z1, z2, tau)
    return appell_A(ell, z1, z2, tau) + 0.5j * accumulate(comp)


# ---------------------------------------------------------------------------
# Taylor columns in the second elliptic variable
# ---------------------------------------------------------------------------


def appell_A_z2_column(ell: int, z1: complex, base_z2: complex, tau: Tau,
                       order: int) -> np.ndarray:
    """Taylor column of z -> A_ell(z1, base_z2 + z; tau)."""
    ns, terms = _appell_terms(ell, z1, base_z2, tau)
    return cmath.exp(1j * math.pi * ell * z1) \
        * exp_column(terms, TWO_PI * 1j * ns, order)


def appell_hat_z2_column(ell: int, z1: complex, base_z2: complex, tau: Tau,
                         order: int) -> np.ndarray:
    """The (j, 0) coefficients of z -> A_hat_ell(z1, base_z2 + z; tau): each
    class's theta column times the z-column of its S-jet."""
    lat = ell * tau.z
    shifts = [nu * tau.z + (ell - 1) / 2.0 for nu in range(ell)]
    # the S argument depends on the increment with coefficient -1
    s_cols = zwegers_S_columns([ell * z1 - base_z2 - s for s in shifts], lat,
                               order) * (-1.0) ** np.arange(order + 1)
    comp = np.zeros(order + 1, dtype=complex)
    for nu, shift, s_col in zip(range(ell), shifts, s_cols):
        th = theta_arg_column(base_z2 + shift, lat, order)
        comp += cmath.exp(TWO_PI * 1j * nu * z1) \
            * np.convolve(th, s_col)[: order + 1]
    return appell_A_z2_column(ell, z1, base_z2, tau, order) + 0.5j * comp


# ---------------------------------------------------------------------------
# moment limits in the first variable
# ---------------------------------------------------------------------------

_W_SEQ = (8e-3, 4e-3, 2e-3, 1e-3)


def _moment_limit(ell_order: int, column, w_seq) -> tuple[complex, float]:
    """(2 pi i)^(-ell_order) ell_order! times the limit w -> 0 of entry
    ell_order of the Taylor column ``column(w)``, Richardson along w_seq."""
    if ell_order < 1:
        raise DomainError("moment order must be >= 1")
    lim, err = richardson([math.factorial(ell_order)
                           * complex(column(w)[ell_order]) for w in w_seq])
    scale = (TWO_PI * 1j) ** (-ell_order)
    return scale * lim, abs(scale) * err


def raw_moment(ell_order: int, tau: Tau,
               w_seq=_W_SEQ) -> tuple[complex, float]:
    """(2 pi i)^(-ell_order) lim_{w -> 0} [d^ell_order/dz^ell_order
    A_2(w, z; tau)]_{z = -tau}, by Richardson extrapolation along real w.

    The z-independent n = 0 term carries the pole in w, so every
    derivative order >= 1 extends analytically to w = 0.
    """
    return _moment_limit(ell_order, lambda w: appell_A_z2_column(
        2, w, -tau.z, tau, ell_order), w_seq)


def completed_moment(ell_order: int, tau: Tau,
                     w_seq=_W_SEQ) -> tuple[complex, float]:
    """(2 pi i)^(-ell_order) lim_{w -> 0} [d^ell_order/dz^ell_order
    (e^(pi z w / v) A_hat_2(w, z; tau))]_{z = 0}, real-w Richardson."""
    return _moment_limit(ell_order, lambda w: np.convolve(
        exp_column([1.0], [math.pi * w / tau.v], ell_order),
        appell_hat_z2_column(2, w, 0.0 + 0.0j, tau, ell_order)), w_seq)


def shifted_S_column(nu: int, tau: Tau, order: int) -> np.ndarray:
    """Taylor column (the (j, 0) coefficients) of the gauge-shifted period
    sum

        z -> e^(2 pi i a z - pi i a^2 tau') S(z - a tau' - 1/2; tau')

    with a = -nu/2 and tau' = 2 tau, for nu in {-1, 0}.  Satisfies the same
    heat equation as the unshifted sum.
    """
    if nu not in (-1, 0):
        raise DomainError("residue class must be -1 or 0")
    a = -nu / 2.0
    lat = 2.0 * tau.z
    front = exp_column([cmath.exp(-1j * math.pi * a * a * lat)],
                       [TWO_PI * 1j * a], order)
    return np.convolve(front, zwegers_S_columns([-a * lat - 0.5], lat,
                                                order)[0])[: order + 1]


def completion_difference_column(tau: Tau, order: int) -> np.ndarray:
    """Taylor column of z -> sum over nu in {-1, 0} of vartheta_nu(z)
    S_nu(z), the combination whose z-derivatives at 0 measure the gap
    between the raw and completed moment limits."""
    return sum(np.convolve(vartheta_nu_column(nu, tau.z, order),
                           shifted_S_column(nu, tau, order))[: order + 1]
               for nu in (-1, 0))


def moment_difference_variants(ell_order: int, tau: Tau,
                               w_seq=(8e-3, 4e-3, 2e-3, 1e-3, 5e-4)) -> dict:
    """Residuals of the closed form for the completed-minus-raw moment gap,

        ghat_l - g_l = delta_{l,1} / (4 pi v)
                       -+ (i/2) (2 pi i)^(-l) [d^l_z sum_nu
                         vartheta_nu(z) S_nu(z)]_{z=0},

    for both signs of the jet term, keyed ``negative-half-i-jet`` (the
    documented reading) and ``positive-half-i-jet``.  Both readings share
    the two moment limits and the column.
    """
    g, _ = raw_moment(ell_order, tau, w_seq)
    gh, _ = completed_moment(ell_order, tau, w_seq)
    col = completion_difference_column(tau, ell_order)
    term = -0.5j * (TWO_PI * 1j) ** (-ell_order) \
        * math.factorial(ell_order) * complex(col[ell_order])
    delta = 1.0 / (4.0 * math.pi * tau.v) if ell_order == 1 else 0.0
    return {"negative-half-i-jet": abs((gh - g) - (term + delta)),
            "positive-half-i-jet": abs((gh - g) - (delta - term))}


# ---------------------------------------------------------------------------
# transformation-law residuals
# ---------------------------------------------------------------------------


def elliptic_shift_residual(ell: int, n1: int, m1: int, n2: int, m2: int,
                            z1: complex, z2: complex, base: complex,
                            tau: Tau) -> float:
    """Residual of the lattice-shift law of the completed sum:

    Ahat(z1 + n1 tau + m1, z2 + n2 tau + m2) = (-1)^(ell(n1+m1))
    e^(2 pi i z1 (ell n1 - n2)) e^(-2 pi i n1 z2)
    q^(ell n1^2/2 - n1 n2) Ahat(z1, z2)

    with ``base`` = Ahat(z1, z2; tau), computed once by the caller.
    """
    lhs = appell_hat(ell, z1 + n1 * tau.z + m1, z2 + n2 * tau.z + m2, tau)
    fac = (-1.0) ** (ell * (n1 + m1)) \
        * cmath.exp(TWO_PI * 1j * (z1 * (ell * n1 - n2) - n1 * z2)) \
        * cmath.exp(TWO_PI * 1j * tau.z * (0.5 * ell * n1 * n1 - n1 * n2))
    return relative_residual(lhs, fac * base)


def modular_residual(ell: int, gamma: Mobius, z1: complex, z2: complex,
                     base: complex, tau: Tau) -> float:
    """Residual of the weight-one law:

    Ahat(z1/(c tau+d), z2/(c tau+d); gamma tau) = (c tau+d)
    e^(pi i c (-ell z1^2 + 2 z1 z2)/(c tau+d)) Ahat(z1, z2; tau)

    with ``base`` = Ahat(z1, z2; tau), computed once by the caller.
    """
    jf = gamma.j_factor(tau)
    lhs = appell_hat(ell, z1 / jf, z2 / jf, gamma.apply(tau))
    rhs = jf * cmath.exp(1j * math.pi * gamma.c
                         * (-ell * z1 * z1 + 2.0 * z1 * z2) / jf) * base
    return relative_residual(lhs, rhs)
