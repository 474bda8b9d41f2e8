"""Taylor columns and triangle jets in (z, conj z) around z = 0.

A jet is an (order + 1) x (order + 1) array c, c[j, k] the coefficient of
z^j conj(z)^k, zero outside the triangle j + k <= order (``triangle``).
Holomorphic blocks are Taylor columns in z alone, a row per entry of a
batch, multiplied by ``np.convolve`` or a Toeplitz matrix (``toeplitz``):
lattice sums (``exp_column``), theta at bases on their lattices
(``theta_columns``), exp(a z^2) (``gaussian_columns``), theta powers and
their rows recombined by exp(a z^2) (``theta_power_taylor``,
``recombined_rows``).  The one real-analytic block is Zwegers' period sum
S, whose jet ``zwegers_S_jet`` fills the triangle; a product that reaches
its conj z coefficients multiplies it by a column (``column_times``), and
a (j, 0) coefficient reads only the k = 0 column of each factor.  Growing
lattice exponentials are paired with their decaying partners inside one
exponent, so no intermediate overflows when the result does not; the
Gaussian tail is scipy's ``erfcx`` in that form.  S-columns at several
bases share one lattice window.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import erf, erfcx

from .core import DomainError, TWO_PI, lattice_window, relative_residual
from .special import (e2_value, _gauss_E_poly, points_out, read_points,
                      theta_terms)

_SQRT_PI = math.sqrt(math.pi)


@lru_cache(maxsize=None)
def triangle(order: int) -> np.ndarray:
    """Mask of the jet entries j + k <= order, read-only."""
    mask = np.add.outer(np.arange(order + 1), np.arange(order + 1)) <= order
    mask.setflags(write=False)
    return mask


def toeplitz(cols: np.ndarray) -> np.ndarray:
    """Lower-triangular Toeplitz matrices [j, i] -> col[j - i] of the Taylor
    columns on the last axis; one times a jet is the product jet."""
    lag = np.subtract.outer(np.arange(cols.shape[-1]), np.arange(cols.shape[-1]))
    return np.where(lag >= 0, cols[..., lag], 0.0)


def column_times(col, jet: np.ndarray) -> np.ndarray:
    """Jet of f g, for f holomorphic with Taylor column ``col`` (at least as
    long as the jet) and g with triangle jet ``jet``; reads only the
    triangle of ``jet``."""
    tri = triangle(len(jet) - 1)
    prod = toeplitz(np.asarray(col)[: len(jet)]) @ np.where(tri, jet, 0.0)
    return np.where(tri, prod, 0.0)


# ---------------------------------------------------------------------------
# holomorphic columns
# ---------------------------------------------------------------------------


def exp_column(weights, freqs, order: int) -> np.ndarray:
    """Taylor column of z -> sum_t weights[t] exp(freqs[t] z): coefficient
    p is sum_t weights[t] freqs[t]^p / p!."""
    facs = np.array([math.factorial(p) for p in range(order + 1)], dtype=float)
    return np.asarray(weights) \
        @ np.vander(freqs, order + 1, increasing=True) / facs


def gaussian_columns(a, order: int) -> np.ndarray:
    """Taylor columns of exp(a z^2), the closed form (1/j!) a^j at z^(2j):
    one row per entry of ``a``, one column for a number."""
    a, j = np.asarray(a, dtype=complex)[..., None], np.arange(order // 2 + 1)
    facs = np.array([math.factorial(i) for i in j], dtype=float)
    cols = np.zeros(a.shape[:-1] + (order + 1,), dtype=complex)
    cols[..., ::2] = 1.0 / facs * a ** j
    return cols


# ---------------------------------------------------------------------------
# lattice blocks
# ---------------------------------------------------------------------------


def theta_columns(zs, lattices, order: int) -> np.ndarray:
    """Taylor columns of z -> theta(base + z; lattice), the odd theta, in one
    ``theta_terms`` pass: a row per base in ``zs`` on its row's lattice (or
    one scalar lattice), one column for one base."""
    nu, terms = theta_terms(np.atleast_1d(zs), lattices)
    cols = exp_column(terms, TWO_PI * 1j * nu, order)
    return cols if np.ndim(zs) else cols[0]


def _check_residue(nu: int) -> None:
    if nu not in (-1, 0):
        raise DomainError("residue class must be -1 or 0")


def vartheta_nu_column(nu: int, tau: complex, order: int) -> np.ndarray:
    """Taylor column of z -> -sum over m in (nu+1)/2 + Z of q^(m^2)
    e^(2 pi i m z), for nu in {-1, 0}."""
    _check_residue(nu)
    m_max = lattice_window(TWO_PI * tau.imag)
    # m runs over (nu+1)/2 + Z inside [-m_max, m_max]
    m = np.arange(-m_max, m_max - nu) + (nu + 1) / 2.0
    return exp_column(-np.exp(TWO_PI * 1j * m * m * tau), TWO_PI * 1j * m,
                      order)


def _S_terms(bases, lattices) -> tuple:
    """Terms n in 1/2 + Z of S(base; lattice) (see ``zwegers_S_jet``), one
    row per base on its row's lattice or one shared lattice, over the
    window of the least Im lattice and widest row (extra terms lie below a
    row's tail): n, the parity, a0 = (n + Im base / v') sqrt(2 v'), w_pair
    = e^(hol_exp - pi a0^2) with hol_exp = -pi i n^2 lattice - 2 pi i n
    base, and the value (sgn - E(a0)) e^hol_exp, taken as sgn erfcx(sqrt(pi)
    |a0|) w_pair on the tail side a0 sgn > 0, where e^hol_exp may overflow."""
    bases = np.asarray(bases, dtype=complex)[:, None]
    lattices = np.asarray(lattices, dtype=complex)[..., None]
    vp = lattices.imag
    n_max = lattice_window(math.pi * vp.min(),
                           TWO_PI * np.abs(bases.imag).max())
    ns = np.arange(-n_max, n_max)
    nn = ns + 0.5
    sgn = np.sign(nn)
    parity = np.where(ns % 2 == 0, 1.0, -1.0)
    a0 = (nn + bases.imag / vp) * np.sqrt(2.0 * vp)
    hol_exp = -1j * math.pi * nn * nn * lattices - TWO_PI * 1j * nn * bases
    w_pair = np.exp(hol_exp - math.pi * a0 * a0)
    tail = a0 * sgn > 0
    head_exp = np.exp(np.where(tail, 0.0, hol_exp))
    value = np.where(tail, sgn * erfcx(_SQRT_PI * np.abs(a0)) * w_pair,
                     (sgn - erf(_SQRT_PI * a0)) * head_exp)
    return nn, parity, a0, w_pair, value


def _S_pieces(bases, lattices, order: int) -> tuple:
    """What the S-jets at ``bases`` share: pm[..., m] = P_m(a0) (2 v')^(-m/2)
    (-pm w_pair is the m-th derivative of -E(arg), as d(arg)/dz = -i
    (2 v')^(-1/2) = -d(arg)/d(conj z)), w_pair, the value, the order tables
    and per term the Toeplitz matrix of the parity times e^(-2 pi i n z),
    whose Taylor column is (-2 pi i n)^p / p! = (2 pi n)^p table[p, 0]."""
    nn, parity, a0, w_pair, value = _S_terms(bases, lattices)
    polys, table = _S_jet_tables(order)
    pm = np.zeros(a0.shape + (order + 1,))
    for c in polys.T[::-1]:
        pm = pm * a0[..., None] + c
    pm *= (2.0 * np.asarray(lattices).imag[..., None, None]) \
        ** (-0.5 * np.arange(order + 1))
    col = parity[:, None] * (TWO_PI * nn[:, None]) ** np.arange(order + 1) \
        * table[:, 0]
    return pm, w_pair, value, table, toeplitz(col)


def zwegers_S_jet(base: complex, lattice: complex, order: int) -> np.ndarray:
    """Triangle jet of z -> S(base + z; lattice) where

    S(w; tau') = sum over n in 1/2 + Z of
        (sgn(n) - E((n + Im w / v') sqrt(2 v'))) (-1)^(n - 1/2)
        e^(-pi i n^2 tau') e^(-2 pi i n w).

    Growing lattice exponentials are paired against the Gaussian tail of
    the error-integral factor inside one exponent (``_S_terms``), so the
    construction is overflow-safe whenever the result is representable.
    """
    (pm,), (w_pair,), (value,), table, hol = _S_pieces([base], lattice, order)
    # flat[t] is the jet of sgn - E(arg) times e^(hol_exp) for term t
    rows, cols = np.nonzero(triangle(order))
    higher = (rows + cols) > 0
    r, k = rows[higher], cols[higher]
    flat = np.zeros((value.size, order + 1, order + 1), dtype=complex)
    flat[:, 0, 0] = value
    flat[:, r, k] = -pm[:, r + k] * table[r, k] * w_pair[:, None]
    total = np.einsum("tji,tik->jk", hol, flat)
    return np.where(triangle(order), total, 0.0)


def zwegers_S_columns(bases, lattices, order: int) -> np.ndarray:
    """Taylor columns in z of z -> S(base + z; lattice), the k = 0 column
    of ``zwegers_S_jet``: one row per entry of ``bases``, each on the
    lattice of its row (one scalar lattice serves every row)."""
    pm, w_pair, value, table, hol = _S_pieces(bases, lattices, order)
    flat = -pm * table[:, 0] * w_pair[..., None]
    flat[..., 0] = value
    # terms summed in lattice order: a row's extra window terms are zeros
    # or below its own tail, so each row equals its one-point value
    return (hol @ flat[..., None])[..., 0].sum(axis=1)


@lru_cache(maxsize=None)
def _S_jet_tables(order: int) -> tuple:
    """The parts of the S-jet that depend on the order alone: the
    coefficients of P_1 .. P_order as rows of a matrix (row m holds P_m by
    ascending degree, row 0 is zero), and (-i)^j i^k / (j! k!)."""
    polys = np.zeros((order + 1, order))
    for m in range(1, order + 1):
        poly = _gauss_E_poly(m)
        polys[m, : len(poly)] = poly
    j, k = np.indices((order + 1, order + 1))
    facs = np.array([math.factorial(p) for p in range(order + 1)], dtype=float)
    table = (-1j) ** j * 1j ** k / np.outer(facs, facs)
    for a in (polys, table):
        a.setflags(write=False)
    return polys, table


def theta_power_taylor(power: int, lattices, top: int) -> np.ndarray:
    """Taylor coefficients at z = 0 through ``top`` of the odd theta to the
    ``power``, a row per lattice (one row for one): the column at 0 times its
    Toeplitz matrix once per factor; the first ``power`` vanish."""
    if power < 1:
        raise DomainError("power must be a positive integer")
    acc = col = theta_columns(np.zeros(np.shape(lattices)), lattices, top)
    factor = toeplitz(col)
    for _ in range(power - 1):
        acc = (factor @ acc[..., None])[..., 0]
    return acc


def recombined_rows(chis, a) -> tuple:
    """Rows n < top of the product of the coefficients ``chis`` (through
    top) with exp(a z^2), sum_j a^j/j! chi_(n-2j), a row per entry of
    ``a``, and the scale each cancels against: the same sum over |a| and
    the parity-blind envelope max(|chi_(i-1)|, |chi_i|, |chi_(i+1)|), as
    the roundoff of a zero row comes from the adjacent even coefficients."""
    chis = np.asarray(chis, dtype=complex)
    top = chis.shape[-1] - 1
    gauss = toeplitz(gaussian_columns(a, top - 1))
    mags = np.abs(chis)[..., np.r_[0, :top + 1]]  # chi_(-1) read as chi_0
    env = np.lib.stride_tricks.sliding_window_view(mags, 3, axis=-1).max(-1)
    return ((gauss @ chis[..., :top, None])[..., 0],
            (np.abs(gauss) @ env[..., None])[..., 0])


def gaussian_scale(kind: str, m: float, tau):
    """Gaussian exponent a of the ``psi`` (pi m / v) or ``rho`` (pi^2 m E2
    / 3) recombination sum_j a^j / j! chi_(n-2j) of an index-m form: a
    number at one point, an array at a batch (E2 in one call)."""
    if kind == "psi":
        return points_out(math.pi * m / read_points(tau).imag, tau)
    if kind == "rho":
        return math.pi ** 2 * m * e2_value(tau) / 3.0
    raise DomainError(f"unknown kind {kind!r}")


def rho_degeneracy_residual(tau) -> float:
    """The eighth theta power vanishes to z-order 8, so its rho row at
    n = 10 collapses: chi_10 = -(4 pi^2/3) E2 chi_8 identically.  Returns
    the relative gap of that collapse."""
    chis = theta_power_taylor(8, tau, 10)
    want = -(4.0 * math.pi ** 2 / 3.0) * e2_value(tau) * chis[8]
    return relative_residual(chis[10], want)
