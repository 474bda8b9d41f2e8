"""Numeric building blocks: the Gaussian error integral, incomplete gamma of
order -1/2 in scaled form, theta and eta values, the weight-two Eisenstein
value, Dedekind multipliers, the weight-3/2 period integral, and a
finite-difference lowering operator.

Conventions.  The odd Jacobi theta used throughout is

    theta(z; tau) = sum over nu in 1/2 + Z of exp(pi i nu^2 tau
                    + 2 pi i nu (z + 1/2)),

the Dedekind eta is eta(tau) = q^(1/24) prod (1 - q^n), and the lowering
operator is L = -2i v^2 d/d(conjugate tau) with v = Im tau.  The
incomplete gamma value is returned in scaled form exp(x) Gamma(-1/2, x)
so callers can pair the factor exp(-x) with growing q-powers and never
overflow.  A kernel that takes points reads one point or a batch by
``core.read_points`` (``DomainError`` at Im <= 0) and returns by
``core.points_out``, a Python number at one point and an array at a batch:
theta, eta and E2 read a batch in one array pass, the lowering operator
the eight stencil values of every point (a row of them per order, all
orders and points in one pass) and the period integral the 257 nodes of
one exp-sinh rule at every point.  The
two laws at the end, ``modular_law`` and ``elliptic_law``, are every
transformation law: they compare given values and call no value kernel,
every case of a grid in one call over arrays (an array of residuals), and
one case as a float by the same arithmetic.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import erfcx

from .core import (DomainError, LATTICE_TAIL, Mobius, lattice_window,
                   points_out, principal_halfpower, read_points,
                   relative_residual, TWO_PI)
from .exactq import QSeries

_SQRT_PI = math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# Gaussian error integral and its derivative polynomials
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


# ---------------------------------------------------------------------------
# incomplete gamma of order -1/2, scaled
# ---------------------------------------------------------------------------


# relative error bound of upper_gamma_scaled; against 40-digit mpmath, 5.7e-15
# measured below x = 3 (near 2.9) and 6.1e-16 on [3, 1e4]
UPPER_GAMMA_RTOL = 1e-14


@lru_cache(maxsize=None)
def _laguerre_rule() -> tuple:
    """The 40-node Gauss-Laguerre rule (nodes ascending, weights), read-only
    and built on first use, by Golub and Welsch (Math. Comp. 23, 1969): the
    nodes are the eigenvalues of the Jacobi matrix of the Laguerre
    recurrence, diagonal 2k + 1 and off-diagonal -k, and the weights the
    squared first components of its unit eigenvectors (the weight e^(-s)
    has total mass one)."""
    k = np.arange(40.0)
    nodes, vectors = np.linalg.eigh(np.diag(2.0 * k + 1.0) - np.diag(k[1:], 1)
                                    - np.diag(k[1:], -1))
    weights = vectors[0] ** 2
    for a in (nodes, weights):
        a.setflags(write=False)
    return nodes, weights


def upper_gamma_scaled(x):
    """exp(x) * Gamma(-1/2, x) for x > 0, elementwise over an array.

    Below x = 3 the recurrence Gamma(-1/2, x) = 2 (x^(-1/2) e^(-x) -
    Gamma(1/2, x)) with exp(x) Gamma(1/2, x) = sqrt(pi) erfcx(sqrt(x));
    there x^(-1/2) dominates, so the difference loses no digits.  From
    x = 3 on, t = x + s in the integral gives x^(-3/2) times the mean of
    (1 + s/x)^(-3/2) under e^(-s) ds, a 40-node Gauss-Laguerre sum.
    Relative error below ``UPPER_GAMMA_RTOL``.
    """
    x = np.asarray(x, dtype=float)
    if not (x > 0).all():
        raise DomainError("scaled incomplete gamma needs x > 0")
    nodes, weights = _laguerre_rule()
    low, high = np.minimum(x, 3.0), np.maximum(x, 3.0)
    near = 2.0 * (low ** -0.5 - _SQRT_PI * erfcx(np.sqrt(low)))
    far = high ** -1.5 * ((1.0 + nodes / high[..., None]) ** -1.5 @ weights)
    return np.where(x < 3.0, near, far)[()]


# ---------------------------------------------------------------------------
# series evaluation and classical values
# ---------------------------------------------------------------------------


def eval_qseries(series: QSeries, tau):
    """Evaluate a truncated exact expansion at q = exp(2 pi i tau) at one
    point or a batch, one exp matrix for all."""
    exponents, coefficients = series.float_terms
    phases = np.multiply.outer(TWO_PI * 1j * read_points(tau), exponents)
    return points_out((coefficients * np.exp(phases)).sum(axis=-1), tau)


def series_trunc_for(tau, den: int, log_bound: Callable = None) -> int:
    """Cut (numerator units) of a q-series on grid 1/den read at a point or
    a batch's smallest v: the first multiple of 64 (shared by nearby
    points) at or above the 1e-18 tail cut with log_bound(T) - 2 pi v T /
    den <= -18 ln 10, for a nondecreasing ``log_bound`` (T -> ln |c_T|)."""
    v = float(read_points(tau).imag.min())
    need, decay = 18.0 * math.log(10.0), TWO_PI * v / den
    trunc = int(math.ceil(need / (TWO_PI * v) * den)) + 2 * den
    while True:
        trunc = -(-trunc // 64) * 64
        if log_bound is None or log_bound(trunc) - decay * trunc <= -need:
            return trunc
        trunc = max(trunc + 1, math.ceil((log_bound(trunc) + need) / decay))


def theta_terms(zs, lattices) -> tuple:
    """Terms exp(pi i nu^2 lattice + 2 pi i nu (z + 1/2)) of the odd theta:
    nu in 1/2 + Z and one row per z in ``zs``, each on the lattice of its
    row (one scalar lattice serves every row), over the window of the least
    Im lattice and the widest row (a row's extra terms lie below its own
    tail)."""
    zs = np.asarray(zs, dtype=complex)
    lattices = np.asarray(lattices, dtype=complex)[..., None]
    n_max = lattice_window(math.pi * lattices.imag.min(),
                           TWO_PI * np.abs(zs.imag).max())
    nu = np.arange(-n_max, n_max + 1) + 0.5
    return nu, np.exp(1j * math.pi * (nu * nu * lattices
                                      + 2.0 * nu * (zs[:, None] + 0.5)))


def theta_value(z, tau):
    """Odd Jacobi theta, overflow-guarded, z and the points of tau broadcast
    together: a complex when both are one point, else an array."""
    sums = theta_terms(np.atleast_1d(z), read_points(tau))[1].sum(axis=-1)
    return points_out(sums, z, tau)


def eta_window(tau) -> int:
    """Half-width K of a sum over |k| <= K of terms the size of q^((6k+1)^2
    /24) = exp(-(pi v / 12) t^2), t = 6k + 1, at a batch's smallest v."""
    return lattice_window(math.pi * read_points(tau).imag.min() / 12.0) // 6 + 2


def eta_value(tau):
    """Dedekind eta by its lacunary expansion sum (-1)^k q^((6k+1)^2/24) at
    one point or a batch, cut for the smallest v."""
    k_max = eta_window(tau)
    k = np.arange(-k_max, k_max + 1)
    phases = np.multiply.outer(TWO_PI * 1j * read_points(tau), (6 * k + 1) ** 2 / 24.0)
    sums = (np.where(k % 2, -1.0, 1.0) * np.exp(phases)).sum(axis=-1)
    return points_out(sums, tau)


def e2_value(tau):
    """Weight-two Eisenstein value via the Lambert expansion
    1 - 24 sum n q^n / (1 - q^n) at one point or a batch, cut for the
    smallest Im tau."""
    tz = read_points(tau)
    n_max = max(8, int(math.ceil(LATTICE_TAIL / (TWO_PI * tz.imag.min()))) + 4)
    n = np.arange(1, n_max + 1)
    qn = np.exp(TWO_PI * 1j * np.multiply.outer(tz, n))
    return points_out(1.0 - 24.0 * (n * qn / (1.0 - qn)).sum(axis=-1), tau)


def e2_completed(tau):
    """E2(tau) - 3/(pi v), the modular weight-two form; batches as E2."""
    tz = read_points(tau)
    return points_out(e2_value(tz) - 3.0 / (math.pi * tz.imag), tau)


# ---------------------------------------------------------------------------
# eta multiplier by Dedekind sums
# ---------------------------------------------------------------------------


def dedekind_sum(h: int, k: int):
    """s(h, k) = sum_{n=1}^{k-1} ((n/k)) ((h n / k)) as an exact Fraction,
    each term (2n - k)(2r - k) / (4 k^2), r = h n mod k, 0 when r = 0."""
    if k < 1:
        raise DomainError("dedekind_sum needs k >= 1")
    total = sum((2 * n - k) * (2 * r - k) for n in range(1, k)
                for r in [h * n % k] if r)
    return Fraction(total, 4 * k * k)


@lru_cache(maxsize=1024)
def eta_multiplier(gamma: Mobius) -> complex:
    """The root of unity psi with
    eta(gamma tau) = psi(gamma) * (c tau + d)^(1/2) * eta(tau),
    principal square root.  Exact via Dedekind sums, once per matrix (a
    bounded cache: the laws ask for the same matrix at every order)."""
    a, b, c, d = gamma.entries()
    flipped = c < 0 or (c == 0 and d < 0)
    if flipped:
        a, b, c, d = -a, -b, -c, -d
    if c == 0:
        base = cmath.exp(1j * math.pi * b / 12.0)
        # normalized j-factor is 1; the original is -1, whose principal
        # root is i, so the multiplier absorbs a factor 1/i
        return base * -1j if flipped else base
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


# exp-sinh nodes t = exp((pi/2) sinh s), s in [-4.5, 3.5] at step h = 1/32,
# weights t (pi/2) cosh(s) h (Takahasi and Mori, Publ. RIMS 9, 1974)
_DE_S = np.arange(-144, 113) / 32.0
_DE_T = np.exp(0.5 * math.pi * np.sinh(_DE_S))
_DE_W = _DE_T * 0.5 * math.pi * np.cosh(_DE_S) / 32.0


def period_integral(g: Callable, tau, *, rtol: float = 1e-11):
    """i * integral_0^infinity g(-conj(tau) + i t) / (2 v + t)^(3/2) dt,
    the weight-3/2 period integral, by one exp-sinh pass at every point of
    ``tau``: ``g`` is called once, on the flat array of the 257 contour
    points of each point in turn, and returns an array whose last axis runs
    over them (leading axes, a row per mode say, are kept).  ``points_out``
    gives a number at one point for a plain integrand.

    The vertical contour from -conj(tau) to i*infinity keeps
    -i (w + tau) = 2 v + t real and positive, so the fractional power needs
    no branch bookkeeping.  Raises ``DomainError`` when, at any point, the
    gap to the step-2h sum, or either end term (an integrand that decays
    too slowly), passes ``rtol`` |integral|.
    """
    tz = read_points(tau)[:, None]
    nodes = -tz.real + 1j * (tz.imag + _DE_T)
    vals = np.asarray(g(nodes.ravel()))
    terms = _DE_W * vals.reshape(vals.shape[:-1] + nodes.shape) \
        / (2.0 * tz.imag + _DE_T) ** 1.5
    total = terms.sum(axis=-1)
    miss = np.maximum(np.abs(total - 2.0 * terms[..., ::2].sum(axis=-1)),
                      np.maximum(np.abs(terms[..., 0]), np.abs(terms[..., -1])))
    missed = miss > rtol * np.abs(total)
    if missed.any():
        raise DomainError(f"period integral misses rtol {rtol:.1e} by"
                          f" {miss[missed].max():.1e}")
    return points_out(1j * total, tau)


def single_mode_period(a, tau):
    """Closed form of the period integral of w -> exp(2 pi i a w), a > 0:

    i exp(-2 pi i a conj(tau)) (2 pi a)^(1/2) exp(x) Gamma(-1/2, x)

    at x = 4 pi a v; the exponents ``a`` broadcast with the points of
    ``tau`` (``points_out``).
    """
    modes = np.atleast_1d(np.asarray(a, dtype=float))
    if not (modes > 0).all():
        raise DomainError("mode exponent must be positive")
    tz = read_points(tau)
    phase = 1j * np.exp(-TWO_PI * 1j * modes * tz.conjugate())
    return points_out(phase * upper_gamma_scaled(4.0 * math.pi * modes * tz.imag)
                      * np.sqrt(TWO_PI * modes), a, tau)


# ---------------------------------------------------------------------------
# numeric lowering operator
# ---------------------------------------------------------------------------


def lowering_numeric(f: Callable, tau) -> tuple:
    """L f = -2 i v^2 * (1/2)(d/du + i d/dv) f by central differences of
    step h = 1e-4 v and h / 2 with one Richardson step, at every point of
    ``tau``, each with its own h.  ``f`` maps points to values, or to one
    row of values per order, and is called once, on the complex array of
    the eight stencil points tau + h (1, -1, i, -i) of each point in turn,
    so one pass serves every order and point.  Returns (value, error
    estimate), each with a last axis over the points (``points_out``: two
    numbers, or two rows, at one point)."""
    tz = read_points(tau)
    h = 1e-4 * tz.imag
    steps = np.stack([h, h / 2.0])
    stencil = tz[:, None, None] + np.multiply.outer(steps.T, (1, -1, 1j, -1j))
    vals = np.asarray(f(stencil.ravel()))
    # one block per step: f(u + h), f(u - h), f(v + h), f(v - h)
    blocks = np.moveaxis(vals.reshape(vals.shape[:-1] + stencil.shape), -2, 0)
    d1, d2 = (0.5 * ((r[..., 0] - r[..., 1]) / (2.0 * step)
                     + 1j * ((r[..., 2] - r[..., 3]) / (2.0 * step)))
              for r, step in zip(blocks, steps))
    ext = (4.0 * d2 - d1) / 3.0
    scale = -2j * tz.imag * tz.imag
    return points_out(scale * ext, tau), \
        points_out(np.abs(scale) * np.abs(ext - d2), tau)


# ---------------------------------------------------------------------------
# the two transformation laws, each given ``base`` at tau and ``lhs``, over
# arrays
# ---------------------------------------------------------------------------


# the Jacobi index of the odd theta: theta(z)^2 has index one
THETA_INDEX = ((0.5,),)


def _form(m, x, y):
    """The bilinear form x^T m y of an index matrix, entrywise over arrays."""
    return sum(m[i][j] * x[i] * y[j] for i in range(len(m)) for j in range(len(m)))


def modular_law(gamma, base, lhs, tau, *, halves, psi: int = 0, chi=1,
                index=None, z=(), shift: complex = 0, scale=0.0):
    """Residual of lhs = chi psi(gamma)^psi J^(halves/2) e^(2 pi i c z^T M
    z / J) base + shift c J^(halves/2 - 1), J = c tau + d: the law of weight
    halves/2 (principal powers) and Jacobi index M (``index``; none for a
    modular form) at z/J, ``psi`` a power of the eta multiplier.  The
    ``scale`` at tau is carried to gamma tau by |J|^(halves/2).  ``gamma``
    is one matrix or a (nested) sequence of them, and it broadcasts with
    the arrays ``base``, ``lhs``, ``tau``, ``halves``, ``chi``, ``scale``
    and the entries of ``z`` and ``index`` to an array of residuals; one
    case gives a float (``points_out``), from the same array arithmetic as
    an entry of a batch."""
    gs = np.asarray(gamma, dtype=object)
    # at least one axis: numpy's scalar arithmetic rounds differently
    c, d = np.array([(g.c, g.d) for g in gs.flat]).T.reshape(
        (2,) + (gs.shape or (1,)))
    jf = c * np.asarray(tau) + d
    rhs = chi
    if psi:
        rhs = rhs * np.array([eta_multiplier(g) ** psi
                              for g in gs.flat]).reshape(c.shape)
    rhs = rhs * principal_halfpower(jf, halves)
    if index is not None:
        z = [np.atleast_1d(w) for w in z]
        rhs = rhs * np.exp(TWO_PI * 1j * c * _form(index, z, z) / jf)
    rhs = rhs * base
    if shift:
        rhs = rhs + shift * c * principal_halfpower(jf, np.asarray(halves) - 2)
    return points_out(relative_residual(
        lhs, rhs, np.abs(jf) ** (np.asarray(halves) / 2) * scale),
        gamma, base, lhs, tau)


def elliptic_law(lam, mu, z, base, lhs, tau, *, index):
    """Residual of lhs = (-1)^(diag(2M).(lam + mu)) e^(-2 pi i (lam^T M lam
    tau + 2 lam^T M z)) base, the lattice-shift law of Jacobi index M
    (``index``) at z + lam tau + mu, lam and mu integer vectors: each entry
    of ``lam``, ``mu``, ``z`` and ``index`` broadcasts with ``base``,
    ``lhs`` and ``tau`` to an array of residuals; one case gives a float
    (``points_out``), from the same array arithmetic as an entry of a
    batch."""
    odd = sum(np.rint(2 * np.asarray(index[i][i])) * (lam[i] + mu[i])
              for i in range(len(index))) % 2
    drift = [l * np.atleast_1d(tau) + 2 * w for l, w in zip(lam, z)]
    fac = np.exp(-TWO_PI * 1j * _form(index, lam, drift))
    return points_out(relative_residual(lhs, np.where(odd, -fac, fac) * base),
                      base, lhs, tau)
