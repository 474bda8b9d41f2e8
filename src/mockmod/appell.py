"""Level-ell Appell sums and their nonholomorphic completions as Taylor
columns in the elliptic variable.

The basic object is

    A_ell(z1, z2; tau) = e^(pi i ell z1) * sum over n in Z of
        (-1)^(ell n) e^(2 pi i n z2) q^(ell n (n+1)/2)
        / (1 - e^(2 pi i z1) q^n),

meromorphic in z1 with simple poles on the lattice Z tau + Z.  The
completion adds one nonholomorphic theta x period-sum product per residue
class modulo ell; A + (i/2) completion transforms like a two-variable
Jacobi form of weight one and index ``appell_index(ell)`` (the laws are
``special.modular_law`` and ``special.elliptic_law``).  One kernel,
``appell_columns``, gives the z2 Taylor columns of both parts for a batch of
rows (z1, z2, tau) in one array pass per part (a value is entry 0), with the
Appell terms, the thetas and the period sums each on one lattice window.
Negative-index denominators are folded so no intermediate outgrows the
final term size.  The moment limits take every order l from one pass of
each kernel at the top order, lower orders being prefixes of the columns.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .core import (DomainError, Tau, lattice_window, relative_residual,
                   richardson, TWO_PI)
from .jets import (_check_residue, exp_column, theta_columns, toeplitz,
                   vartheta_nu_column, zwegers_S_columns)
from .special import read_points


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
    th_cols = theta_columns((z2[:, None] + shifts).ravel(), lat, order)
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


def appell_index(ell: int) -> tuple:
    """The Jacobi index M of Ahat_ell in (z1, z2): its laws take the
    quadratic form z^T M z = -ell z1^2 / 2 + z1 z2."""
    return ((-ell / 2.0, 0.5), (0.5, 0.0))


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


def raw_moments(orders, tau: Tau) -> list:
    """(2 pi i)^(-l) lim_{w -> 0} [d^l/dz^l A_2(w, z; tau)]_{z = -tau} and
    its error estimate for every order l in ``orders``, by Richardson
    extrapolation over the real w of ``_W_SEQ``, from one pass of the A
    part alone at the top order.

    The z-independent n = 0 term carries the pole in w, so every
    derivative order >= 1 extends analytically to w = 0.
    """
    if min(orders) < 1:
        raise DomainError("moment order must be >= 1")
    a = _a_columns(2, *np.broadcast_arrays(np.asarray(_W_SEQ, dtype=complex),
                                           -tau, tau), max(orders))
    return [_moment_limit(order, a[:, order]) for order in orders]


def raw_moment(ell_order: int, tau: Tau) -> tuple[complex, float]:
    """The order-``ell_order`` entry of ``raw_moments``."""
    return raw_moments((ell_order,), tau)[0]


def completed_moments(orders, tau: Tau) -> list:
    """(2 pi i)^(-l) lim_{w -> 0} [d^l/dz^l (e^(pi z w / v) A_hat_2(w, z;
    tau))]_{z = 0} for every order l in ``orders``, real-w Richardson over
    ``_W_SEQ``, from one pass of the columns and their gauge at the top
    order; a (limit, error estimate) pair per order."""
    if min(orders) < 1:
        raise DomainError("moment order must be >= 1")
    top = max(orders)
    a, comp = appell_columns(2, _W_SEQ, 0.0, tau, top)
    gauge = np.array([exp_column([1.0], [math.pi * w / tau.v], top)
                      for w in _W_SEQ])
    col = a + 0.5j * comp
    # entry l of each row's product column
    return [_moment_limit(order, np.einsum("wp,wp->w", gauge[:, order::-1],
                                           col[:, :order + 1]))
            for order in orders]


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


def moment_difference_values(orders, tau: Tau) -> list:
    """What the moment-gap law compares at tau, a tuple (l, raw limit,
    completed limit, entry l of ``completion_difference_column``) per
    order l in ``orders``: each of the three from one pass at the top
    order."""
    raw = raw_moments(orders, tau)
    completed = completed_moments(orders, tau)
    col = completion_difference_column(tau, max(orders))
    return [(order, g, gh, complex(col[order]))
            for order, (g, _), (gh, _) in zip(orders, raw, completed)]


def moment_difference_readings(ell_order: int, g: complex, gh: complex,
                               jet: complex, tau: Tau) -> dict:
    """Residuals of the closed form for the completed-minus-raw moment gap,

        ghat_l - g_l = delta_{l,1} / (4 pi v)
                       -+ (i/2) (2 pi i)^(-l) [d^l_z sum_nu
                         vartheta_nu(z) S_nu(z)]_{z=0},

    given g_l, ghat_l and the l-th entry ``jet`` of that column, for both
    signs of the jet term, keyed ``negative-half-i-jet`` (the documented
    reading) and ``positive-half-i-jet``.
    """
    term = -0.5j * (TWO_PI * 1j) ** (-ell_order) \
        * math.factorial(ell_order) * jet
    delta = 1.0 / (4.0 * math.pi * tau.v) if ell_order == 1 else 0.0
    return {"negative-half-i-jet": relative_residual(gh - g, term + delta),
            "positive-half-i-jet": relative_residual(gh - g, delta - term)}


def moment_difference_variants(ell_order: int, tau: Tau) -> dict:
    """``moment_difference_readings`` of the order-``ell_order`` row of
    ``moment_difference_values``."""
    return moment_difference_readings(
        *moment_difference_values((ell_order,), tau)[0], tau)
