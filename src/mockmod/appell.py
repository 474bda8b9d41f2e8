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
final term size.  The moment limits take every order l and every point
from one pass of each kernel at the top order, lower orders being
prefixes of the columns, and give a row per order and an entry per point.
"""
from __future__ import annotations

import math

import numpy as np

from .core import (DomainError, lattice_window, points_out, read_points,
                   relative_residual, richardson, TWO_PI)
from .jets import (_check_residue, column_product, exp_column, gaussian_scale,
                   theta_columns, toeplitz, vartheta_nu_column,
                   zwegers_S_columns)


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


def _moment_limits(orders, entries) -> tuple:
    """(2 pi i)^(-l) l! times the Richardson limit w -> 0 of ``entries``
    (an axis over the w of ``_W_SEQ``, then a row per order l in
    ``orders``, then the points): limits and error estimates."""
    facs = np.array([math.factorial(order) for order in orders],
                    dtype=float)[:, None]
    lim, err = richardson(list(facs * entries))
    scale = (TWO_PI * 1j) ** (-np.array(orders)[:, None])
    return scale * lim, np.abs(scale) * err


def _w_rows(tau) -> tuple:
    """The rows (w, point) of the moment limits: every w of ``_W_SEQ``
    against every point of ``tau``, flat, and the shape they fold into."""
    w, tz = np.broadcast_arrays(np.asarray(_W_SEQ, dtype=complex)[:, None],
                                read_points(tau))
    return w.ravel(), tz.ravel(), w.shape


def raw_moments(orders, tau) -> tuple:
    """(2 pi i)^(-l) lim_{w -> 0} [d^l/dz^l A_2(w, z; tau)]_{z = -tau} for
    every order l in ``orders`` at every point of ``tau``, by Richardson
    extrapolation over the real w of ``_W_SEQ``, from one pass of the A
    part alone at the top order over every w and point: the limits and
    their error estimates, each a row per order and an entry per point
    (``points_out``: a row per order at one point).

    The z-independent n = 0 term carries the pole in w, so every
    derivative order >= 1 extends analytically to w = 0.
    """
    if min(orders) < 1:
        raise DomainError("moment order must be >= 1")
    w, tz, shape = _w_rows(tau)
    a = _a_columns(2, w, -tz, tz, max(orders)).reshape(shape + (-1,))
    return tuple(points_out(x, tau) for x in _moment_limits(
        orders, np.moveaxis(a[..., list(orders)], -1, 1)))


def completed_moments(orders, tau) -> tuple:
    """(2 pi i)^(-l) lim_{w -> 0} [d^l/dz^l (e^(2 a w z) A_hat_2(w, z;
    tau))]_{z = 0}, e^(2 a w z) the z-linear part of the psi gauge
    (``jets.gaussian_scale``) of ``appell_index(2)``, for every order l in
    ``orders`` at every point of ``tau``, real-w Richardson over ``_W_SEQ``,
    one pass of the columns and their gauge at the top order over every w
    and point: limits and error estimates, each a row per order and an
    entry per point (``points_out``: a row per order at one point)."""
    if min(orders) < 1:
        raise DomainError("moment order must be >= 1")
    top = max(orders)
    w, tz, shape = _w_rows(tau)
    raw, comp = appell_columns(2, w, 0.0, tz, top)
    col = (raw + 0.5j * comp).reshape(shape + (-1,))
    facs = np.array([math.factorial(p) for p in range(top + 1)], dtype=float)
    a = gaussian_scale("psi", appell_index(2)[0][1], tz)
    gauge = (np.vander(2.0 * a * w.real, top + 1, increasing=True)
             / facs).reshape(col.shape)
    # entry l of each row's product column
    return tuple(points_out(x, tau) for x in _moment_limits(orders, np.stack(
        [np.einsum("wnp,wnp->wn", gauge[..., order::-1], col[..., :order + 1])
         for order in orders], axis=1)))


def shifted_S_column(nu: int, tau, order: int) -> np.ndarray:
    """Taylor columns (the (j, 0) coefficients) of the gauge-shifted period
    sum

        z -> e^(2 pi i a z - pi i a^2 tau') S(z - a tau' - 1/2; tau')

    with a = -nu/2 and tau' = 2 tau, for nu in {-1, 0}: a row per point of
    a batch, one column at one point.  Satisfies the same heat equation as
    the unshifted sum.
    """
    _check_residue(nu)
    a = -nu / 2.0
    lat = 2.0 * read_points(tau)
    front = exp_column(np.exp(-1j * math.pi * a * a * lat)[:, None],
                       [TWO_PI * 1j * a], order)
    cols = column_product(front, zwegers_S_columns(-a * lat - 0.5, lat, order))
    return points_out(cols, tau, axis=0)


def completion_difference_column(tau, order: int) -> np.ndarray:
    """Taylor columns of z -> sum over nu in {-1, 0} of vartheta_nu(z)
    S_nu(z), the combination whose z-derivatives at 0 measure the gap
    between the raw and completed moment limits: a row per point of
    ``tau``."""
    tz = read_points(tau)
    return sum(column_product(vartheta_nu_column(nu, tz, order),
                              shifted_S_column(nu, tz, order))
               for nu in (-1, 0))


def moment_difference_values(orders, tau) -> tuple:
    """What the moment-gap law compares, one case over every order l in
    ``orders`` and every point of ``tau``: the orders as a column, then the
    raw limit, the completed limit and entry l of
    ``completion_difference_column``, each a row per order and an entry
    per point, each of the three from one pass at the top order."""
    tz = read_points(tau)
    raw, _ = raw_moments(orders, tz)
    completed, _ = completed_moments(orders, tz)
    col = completion_difference_column(tz, max(orders))
    return np.array(orders)[:, None], raw, completed, col[:, list(orders)].T


def moment_difference_readings(ell_order, g, gh, jet, tau) -> dict:
    """Residuals of the closed form for the completed-minus-raw moment gap,

        ghat_l - g_l = delta_{l,1} / (4 pi v)
                       -+ (i/2) (2 pi i)^(-l) [d^l_z sum_nu
                         vartheta_nu(z) S_nu(z)]_{z=0},

    given g_l, ghat_l and the l-th entry ``jet`` of that column, for both
    signs of the jet term, keyed ``negative-half-i-jet`` (the documented
    reading) and ``positive-half-i-jet``: the orders ``ell_order`` broadcast
    with the values and the points of ``tau`` (``points_out``).
    """
    ls = np.atleast_1d(ell_order)  # numpy's scalar arithmetic rounds differently
    facs = np.vectorize(math.factorial, otypes=[float])(ls)
    term = -0.5j * (TWO_PI * 1j) ** (-ls) * facs * jet
    delta = np.where(ls == 1, 1.0 / (4.0 * math.pi * read_points(tau).imag), 0.0)
    return {name: points_out(relative_residual(gh - g, rhs), ell_order, g, gh,
                             jet, tau)
            for name, rhs in (("negative-half-i-jet", term + delta),
                              ("positive-half-i-jet", delta - term))}
