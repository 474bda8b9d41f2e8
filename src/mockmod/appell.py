"""Level-ell Appell sums and their nonholomorphic completions as Taylor
columns in the elliptic variable.

The basic object is

    A_ell(z1, z2; tau) = e^(pi i ell z1) * sum over n in Z of
        (-1)^(ell n) e^(2 pi i n z2) q^(ell n (n+1)/2)
        / (1 - e^(2 pi i z1) q^n),

meromorphic in z1 with simple poles on the lattice Z tau + Z.  The
completion adds one nonholomorphic theta x period-sum product per residue
class modulo ell; A + (i/2) completion transforms like a two-variable
Jacobi form of weight one.  One kernel, ``appell_columns``, gives the
z2 Taylor columns of both parts for a batch of rows (z1, z2, tau) in one
array pass per part (a value is entry 0), with the Appell terms, the thetas
and the period sums each on one lattice window.  Negative-index denominators
are folded so no intermediate outgrows the final term size.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .core import (DomainError, Mobius, Tau, lattice_window,
                   relative_residual, richardson, TWO_PI)
from .jets import (_check_residue, exp_column, toeplitz,
                   vartheta_nu_column, zwegers_S_columns)
from .special import read_points, theta_terms


def _appell_terms(ell: int, z1, z2, tz) -> tuple:
    """The lattice n and the terms of A_ell(z1, z2; tau) without the
    prefactor e^(pi i ell z1), a row per entry of the arrays z1, z2 and tz
    (tau), on the window of the least Im tau and the widest row; raises on
    a row whose z1 lies within 1e-6 of its own pole lattice."""
    if ell < 1:
        raise DomainError("level must be a positive integer")
    lam = z1.imag / tz.imag
    mu = z1.real - lam * tz.real
    if (np.hypot(lam - np.round(lam), mu - np.round(mu)) < 1e-6).any():
        raise DomainError("z1 too close to the pole lattice")
    n_max = lattice_window(math.pi * ell * tz.imag.min(),
                           TWO_PI * np.abs(z2.imag).max())
    n = np.arange(-n_max, n_max + 1)
    sign = np.where((ell * n) % 2, -1.0, 1.0)
    z1, z2, tz = z1[:, None], z2[:, None], tz[:, None]
    top = TWO_PI * 1j * (n * z2 + 0.5 * ell * n * (n + 1) * tz)
    # fold n < 0: 1/(1 - w q^n) = -w^(-1) q^(-n) / (1 - w^(-1) q^(-n))
    pole = TWO_PI * 1j * (z1 + n * tz)
    neg = n < 0
    return n, np.where(neg, -sign, sign) * np.exp(top - np.where(neg, pole, 0.0)) \
        / (1.0 - np.exp(np.where(neg, -pole, pole)))


def _a_columns(ell: int, z1, z2, tz, order: int) -> np.ndarray:
    # each part of appell_columns is one array pass over broadcast rows
    n, terms = _appell_terms(ell, z1, z2, tz)
    return np.exp(1j * math.pi * ell * z1)[:, None] \
        * exp_column(terms, TWO_PI * 1j * n, order)


def _completion_columns(ell: int, z1, z2, tz, order: int) -> np.ndarray:
    # rows (row, nu) flattened, each class on its row's lattice ell tau
    shifts = np.arange(ell) * tz[:, None] + (ell - 1) / 2.0
    lat = np.repeat(ell * tz, ell)
    nu, thetas = theta_terms((z2[:, None] + shifts).ravel(), lat)
    th_cols = exp_column(thetas, TWO_PI * 1j * nu, order)
    # the S argument depends on the increment with coefficient -1
    s_cols = zwegers_S_columns((ell * z1[:, None] - z2[:, None] - shifts).ravel(),
                               lat, order) * (-1.0) ** np.arange(order + 1)
    prods = (toeplitz(th_cols) @ s_cols[..., None])[..., 0]
    return np.einsum("rn,rnp->rp", np.exp(TWO_PI * 1j * np.arange(ell) * z1[:, None]),
                     prods.reshape(len(z1), ell, order + 1))


def appell_columns(ell: int, z1s, z2s, taus, order: int) -> tuple:
    """Taylor columns of z -> A_ell(z1, z2 + z; tau) and of its residue-class
    completion, a row per (z1, z2, tau) off the pole lattice (``DomainError``
    within 1e-6), scalars broadcast, ``taus`` one point or a batch.  Class
    nu < ell adds e^(2 pi i nu z1) theta(z2 + s; ell tau) S(ell z1 - z2 - s;
    ell tau), s = nu tau + (ell - 1)/2; A + (i/2) completion is Ahat_ell."""
    rows = np.broadcast_arrays(np.asarray(z1s, dtype=complex),
                               np.asarray(z2s, dtype=complex), read_points(taus))
    return _a_columns(ell, *rows, order), _completion_columns(ell, *rows, order)


def appell_hat_values(ell: int, z1s, z2s, taus) -> np.ndarray:
    """Completed sums A + (i/2) completion at the rows of ``appell_columns``."""
    a, comp = appell_columns(ell, z1s, z2s, taus, 0)
    return a[:, 0] + 0.5j * comp[:, 0]


# ---------------------------------------------------------------------------
# moment limits in the first variable
# ---------------------------------------------------------------------------

# the real w of the moment limits: five, so Richardson removes up to w^4
_W_SEQ = (8e-3, 4e-3, 2e-3, 1e-3, 5e-4)


def _moment_limit(ell_order: int, entries) -> tuple[complex, float]:
    """(2 pi i)^(-ell_order) ell_order! times the Richardson limit w -> 0
    of ``entries``, one per w of the level-2 columns at (w, z2; tau)."""
    lim, err = richardson([math.factorial(ell_order) * complex(e)
                           for e in entries])
    scale = (TWO_PI * 1j) ** (-ell_order)
    return scale * lim, abs(scale) * err


def raw_moment(ell_order: int, tau: Tau) -> tuple[complex, float]:
    """(2 pi i)^(-ell_order) lim_{w -> 0} [d^ell_order/dz^ell_order
    A_2(w, z; tau)]_{z = -tau} and its error estimate, by Richardson
    extrapolation over the real w of ``_W_SEQ``, from the A part alone.

    The z-independent n = 0 term carries the pole in w, so every
    derivative order >= 1 extends analytically to w = 0.
    """
    if ell_order < 1:
        raise DomainError("moment order must be >= 1")
    a = _a_columns(2, *np.broadcast_arrays(np.asarray(_W_SEQ, dtype=complex),
                                           -tau, tau), ell_order)
    return _moment_limit(ell_order, a[:, ell_order])


def completed_moment(ell_order: int, tau: Tau) -> tuple[complex, float]:
    """(2 pi i)^(-ell_order) lim_{w -> 0} [d^ell_order/dz^ell_order
    (e^(pi z w / v) A_hat_2(w, z; tau))]_{z = 0}, real-w Richardson over
    ``_W_SEQ``; returns (limit, error estimate)."""
    if ell_order < 1:
        raise DomainError("moment order must be >= 1")
    a, comp = appell_columns(2, _W_SEQ, 0.0, tau, ell_order)
    gauge = np.array([exp_column([1.0], [math.pi * w / tau.v], ell_order)
                      for w in _W_SEQ])
    # entry ell_order of each row's product column
    return _moment_limit(ell_order, np.einsum("wp,wp->w", gauge[:, ::-1],
                                              a + 0.5j * comp))


def shifted_S_column(nu: int, tau: Tau, order: int) -> np.ndarray:
    """Taylor column (the (j, 0) coefficients) of the gauge-shifted period
    sum

        z -> e^(2 pi i a z - pi i a^2 tau') S(z - a tau' - 1/2; tau')

    with a = -nu/2 and tau' = 2 tau, for nu in {-1, 0}.  Satisfies the same
    heat equation as the unshifted sum.
    """
    _check_residue(nu)
    a = -nu / 2.0
    lat = 2.0 * tau
    front = exp_column([cmath.exp(-1j * math.pi * a * a * lat)],
                       [TWO_PI * 1j * a], order)
    return np.convolve(front, zwegers_S_columns([-a * lat - 0.5], lat,
                                                order)[0])[: order + 1]


def completion_difference_column(tau: Tau, order: int) -> np.ndarray:
    """Taylor column of z -> sum over nu in {-1, 0} of vartheta_nu(z)
    S_nu(z), the combination whose z-derivatives at 0 measure the gap
    between the raw and completed moment limits."""
    return sum(np.convolve(vartheta_nu_column(nu, tau, order),
                           shifted_S_column(nu, tau, order))[: order + 1]
               for nu in (-1, 0))


def moment_difference_variants(ell_order: int, tau: Tau) -> dict:
    """Residuals of the closed form for the completed-minus-raw moment gap,

        ghat_l - g_l = delta_{l,1} / (4 pi v)
                       -+ (i/2) (2 pi i)^(-l) [d^l_z sum_nu
                         vartheta_nu(z) S_nu(z)]_{z=0},

    for both signs of the jet term, keyed ``negative-half-i-jet`` (the
    documented reading) and ``positive-half-i-jet``.  Both readings share
    the two moment limits and the column.
    """
    g, _ = raw_moment(ell_order, tau)
    gh, _ = completed_moment(ell_order, tau)
    col = completion_difference_column(tau, ell_order)
    term = -0.5j * (TWO_PI * 1j) ** (-ell_order) \
        * math.factorial(ell_order) * complex(col[ell_order])
    delta = 1.0 / (4.0 * math.pi * tau.v) if ell_order == 1 else 0.0
    return {"negative-half-i-jet": relative_residual(gh - g, term + delta),
            "positive-half-i-jet": relative_residual(gh - g, delta - term)}


# ---------------------------------------------------------------------------
# transformation-law residuals
# ---------------------------------------------------------------------------


def elliptic_shift_residual(ell: int, n1: int, m1: int, n2: int, m2: int,
                            z1: complex, z2: complex, base: complex,
                            lhs: complex, tau: Tau) -> float:
    """Residual of the lattice-shift law of the completed sum:

    Ahat(z1 + n1 tau + m1, z2 + n2 tau + m2) = (-1)^(ell(n1+m1))
    e^(2 pi i z1 (ell n1 - n2)) e^(-2 pi i n1 z2)
    q^(ell n1^2/2 - n1 n2) Ahat(z1, z2)

    with ``base`` = Ahat(z1, z2; tau) and ``lhs`` the shifted value.
    """
    fac = (-1.0) ** (ell * (n1 + m1)) \
        * cmath.exp(TWO_PI * 1j * (z1 * (ell * n1 - n2) - n1 * z2)) \
        * cmath.exp(TWO_PI * 1j * tau * (0.5 * ell * n1 * n1 - n1 * n2))
    return relative_residual(lhs, fac * base)


def modular_residual(ell: int, z1: complex, z2: complex, gamma: Mobius,
                     base: complex, lhs: complex, tau: Tau) -> float:
    """Residual of the weight-one law:

    Ahat(z1/(c tau+d), z2/(c tau+d); gamma tau) = (c tau+d)
    e^(pi i c (-ell z1^2 + 2 z1 z2)/(c tau+d)) Ahat(z1, z2; tau)

    with ``base`` = Ahat(z1, z2; tau) and ``lhs`` the image value.
    """
    jf = gamma.j_factor(tau)
    rhs = jf * cmath.exp(1j * math.pi * gamma.c
                         * (-ell * z1 * z1 + 2.0 * z1 * z2) / jf) * base
    return relative_residual(lhs, rhs)
