"""Completion of the lattice Lambert series of half-integer moments.

The holomorphic core is the exact expansion (1/2) sum_{n != 0} n^(k-1)
q^(n^2) / (1 - q^n) for even weight k.  Its modular completion adds a
delta term (k = 2 only) and a Rankin-Cohen bracket coupling each
half-characteristic theta null series

    vartheta_nu(tau) = -sum over m in (nu+1)/2 + Z of q^(m^2)

(weight 1/2) to a nonholomorphic partner of weight 3/2,

    s_nu(tau) = sqrt(pi) sum over the same m of
                |m| Gamma(-1/2, 4 pi m^2 v) q^(-m^2),

whose m = 0 term (nu = -1 only) is the limit value 1/(sqrt v).  The
q-derivative tower of s_nu closes over {Gamma(-1/2, x), v^(r/2) e^(-x)}
with x = 4 pi m^2 v, so bracket derivatives are applied analytically, in
closed form on one (points x m) array; finite differences are reserved
for the outer lowering checks.  Every weight k a check reads shares one
pass: ``joyce_hat_rows`` takes the tower once per class at the top depth
and each theta-block derivative once, each weight at its own points.

Two independent routes exist for every nonholomorphic ingredient: the
term-wise tower here, and the z-columns of the gauge-shifted period sum
e^(-pi i nu z) q^(-nu^2/4) S(z + nu tau + 1/2; 2 tau), whose odd
z-coefficients reproduce the same tower through the heat equation
4 pi i d_tau + d_z^2 = 0.  The index-killed blocks theta_star take rows
(nu, z, tau) in one theta pass.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import numpy as np

from .appell import raw_moments, shifted_S_column
from .core import (DomainError, GEN_T, IDENTITY, Mobius, Tau, TWO_PI,
                   lattice_window, points_out, read_points, relative_residual,
                   worst_of)
from .exactq import QSeries, binom_poly, joyce_expansion, theta_q_expansion
from .jets import _check_residue, gaussian_columns, vartheta_nu_column
from .special import (eta_multiplier, eval_qseries, lowering_numeric,
                      modular_law, series_trunc_for, theta_value,
                      upper_gamma_scaled)

_SQRT_PI = math.sqrt(math.pi)

BRACKET_WEIGHT_THETA = Fraction(1, 2)
BRACKET_WEIGHT_S = Fraction(3, 2)


def _check_weight(k: int) -> None:
    if not isinstance(k, int) or k < 2 or k % 2:
        raise DomainError("weight must be a positive even integer")


@lru_cache(maxsize=None)
def theta_block_series(nu: int, trunc: int) -> QSeries:
    """Exact expansion of the weight-1/2 theta block vartheta_nu."""
    _check_residue(nu)
    return theta_q_expansion("vartheta_minus" if nu == -1 else "vartheta_zero", trunc)


@lru_cache(maxsize=None)
def _theta_block_derivatives(nu: int, trunc: int, order: int) -> QSeries:
    """The order-th q d/dq derivative of ``theta_block_series(nu, trunc)``,
    built from the order - 1 entry of this cache, so each is built once."""
    if order == 0:
        return theta_block_series(nu, trunc)
    return _theta_block_derivatives(nu, trunc, order - 1).derivative()


def theta_block_deriv0(nu: int, a: int, tau: Tau) -> complex:
    """[d^a/dz^a vartheta_nu(z; tau)] at z = 0 from the exact expansion
    cut by ``series_trunc_for``; a = 0 gives -Theta_nu.

    Odd orders vanish by evenness; even orders trade two z-derivatives for
    one q-derivative: d_z^2 = (2 pi i)^2 q d/dq on each lattice term.
    """
    if a < 0:
        raise DomainError("derivative order must be nonnegative")
    if a % 2:
        return 0j
    ser = _theta_block_derivatives(nu, series_trunc_for(tau, 4), a // 2)
    return (TWO_PI * 1j) ** a * eval_qseries(ser, tau)


# ---------------------------------------------------------------------------
# the weight-3/2 nonholomorphic partner and its derivative tower
# ---------------------------------------------------------------------------


def s_nu_tower(nu: int, taus, depth: int) -> np.ndarray:
    """[s_nu, D s_nu, ..., D^depth s_nu] at each point of ``taus``, one row
    per point, with D = q d/dq applied analytically.

    D maps Gamma(-1/2, x) q^(-m^2) (x = 4 pi m^2 v) to -m^2 times itself
    plus v^(-3/2) e^(-x) q^(-m^2) / (8 pi^(3/2) |m|), and v^(-r) e^(-x)
    q^(-m^2) to r/(4 pi) v^(-r-1) e^(-x) q^(-m^2) (the two m^2 columns
    cancel exactly), so row j is the sum over m of phase(m) [(-m^2)^j
    sqrt(pi) |m| G(x) + sum_{s=1..j} (-m^2)^(j-s) c_s v^(-s-1/2)], with
    c_s = prod_{r<=s} (2r - 1)/(8 pi), G the scaled gamma (the m = 0 term
    of sqrt(pi) |m| G(x) is its limit v^(-1/2)) and phase(m) = e^(-2 pi i
    m^2 u - x/2): the growing q-power is paired with the scaled gamma so
    nothing overflows.  One lattice window, at the smallest v, serves all.
    """
    _check_residue(nu)
    if depth < 0:
        raise DomainError("derivative depth must be nonnegative")
    tz = read_points(taus)[:, None]
    u, v = tz.real, tz.imag
    m_max = lattice_window(TWO_PI * v.min()) + 1 + depth
    # m runs over (nu+1)/2 + Z inside [-m_max, m_max]
    m = np.arange(-m_max, m_max - nu) + (nu + 1) / 2.0
    x = 4.0 * math.pi * m * m * v
    lead = np.where(m == 0, v ** -0.5, _SQRT_PI * np.abs(m)
                    * upper_gamma_scaled(np.where(m == 0, 1.0, x)))
    s = np.arange(depth + 1)
    c = np.cumprod(np.where(s > 0, (2 * s - 1) / (8.0 * math.pi), 1.0))
    powers = (-m * m) ** s[:, None]
    # tail[p, j, m] = sum over 1 <= s <= j of powers[j - s, m] c_s v^(-s-1/2)
    lag = np.subtract.outer(s, s)
    mix = np.where(((lag >= 0) & (s > 0))[..., None],
                   powers[np.maximum(lag, 0)], 0.0)
    tail = np.einsum("jsm,ps->pjm", mix, c * v ** (-s - 0.5))
    phase = np.exp(-TWO_PI * 1j * m * m * u - x / 2.0)
    return ((powers * lead[:, None] + tail) * phase[:, None]).sum(axis=-1)


# derivative depth of the tower compared by ``s_nu_route_residual``
S_ROUTE_DEPTH = 2


def s_nu_route_residual(nu: int, tau: Tau, depth: int = S_ROUTE_DEPTH) -> float:
    """Worst gap between ``s_nu_tower`` and the jet route: odd z-coefficients
    of the block z -> e^(-pi i nu z) q^(-nu^2/4) S(z + nu tau + 1/2; 2 tau),
    which is minus ``shifted_S_column``, as S(w + 1) = -S(w).

    The block obeys the heat equation, so the (2p+1)-st z-coefficient
    carries D^p of the z-linear coefficient: D^p s = (2p+1)! c_{2p+1,0}
    / (4 pi^2)^p.  Entry p is read out of the column, so its scale is that
    factor times the largest coefficient of the column.
    """
    col = shifted_S_column(nu, tau, 2 * depth + 1)
    p = np.arange(depth + 1)
    facs = np.array([math.factorial(2 * i + 1) for i in p]) \
        / (4.0 * math.pi ** 2) ** p
    return worst_of([relative_residual(s_nu_tower(nu, tau, depth)[0],
                                       -col[2 * p + 1] * facs,
                                       facs * np.abs(col).max())])


def s_nu_lowering_residual(nu: int, tau: Tau) -> float:
    """Residual of L(s_nu) = -(sqrt v / 2) conj(Theta_nu(2 tau)), where
    Theta_nu = -vartheta_nu(0) is the plain theta null sum."""
    got, _ = lowering_numeric(lambda ts: s_nu_tower(nu, ts, 0)[:, 0], tau)
    theta2 = -theta_block_deriv0(nu, 0, tau)
    want = -0.5 * math.sqrt(tau.v) * theta2.conjugate()
    return relative_residual(got, want)


# ---------------------------------------------------------------------------
# jet-extracted theta blocks of higher order
# ---------------------------------------------------------------------------


def theta_ln(ell: int, nu: int, tau: Tau) -> complex:
    """(ell-1)-st z-derivative at 0 of vartheta_nu(z) e^(pi z^2 / (4v)):
    the theta column times the Gaussian column."""
    _check_residue(nu)
    if ell < 1:
        raise DomainError("block order must be a positive integer")
    order = ell - 1
    col = np.convolve(vartheta_nu_column(nu, tau, order),
                      gaussian_columns(math.pi / (4.0 * tau.v), order))
    return math.factorial(order) * complex(col[order])


def theta_ln_route_residual(ell: int, nu: int, tau: Tau) -> float:
    """``theta_ln`` against the binomial route, the product rule over even
    theta derivatives sum_j (ell-1)!/(j! (ell-1-2j)!) (pi/(4v))^j
    [d^(ell-1-2j) vartheta_nu]_0, on the scale of its terms, which cancel."""
    order, a = ell - 1, math.pi / (4.0 * tau.v)
    terms = np.array([math.factorial(order)
                      / (math.factorial(j) * math.factorial(order - 2 * j))
                      * a ** j * theta_block_deriv0(nu, order - 2 * j, tau)
                      for j in range(order // 2 + 1)])
    return relative_residual(theta_ln(ell, nu, tau), terms.sum(),
                             np.abs(terms).sum())


# ---------------------------------------------------------------------------
# bracket assembly and its lowering
# ---------------------------------------------------------------------------


def bracket_constant(k: int) -> float:
    """(k-2)! (-1)^(k/2+1) / (Gamma((k-1)/2)^2 2^(k+1))."""
    _check_weight(k)
    return (math.factorial(k - 2) * (-1.0) ** (k // 2 + 1)
            / (math.gamma((k - 1) / 2.0) ** 2 * 2.0 ** (k + 1)))


def bracket_coefficient_identity(ell: int) -> bool:
    """Exact-rational equality of the two bracket-coefficient closed forms.

    For odd ell and 0 <= j <= (ell-1)/2:

      C(ell, 2j) / (4 pi) = (ell-1)! / (Gamma(ell/2)^2 2^(ell+1))
                              * C(ell/2 - 1, (ell-1)/2 - j) * C(ell/2, j)

    after multiplying out Gamma(ell/2)^2 = pi ((2s)! / (4^s s!))^2 with
    s = (ell-1)/2; both sides become rationals and are compared exactly.
    """
    if ell < 1 or ell % 2 == 0:
        raise DomainError("order must be a positive odd integer")
    s = (ell - 1) // 2
    gamma_sq_over_pi = Fraction(math.factorial(2 * s),
                                4 ** s * math.factorial(s)) ** 2
    for j in range(s + 1):
        lhs = Fraction(math.comb(ell, 2 * j))
        rhs = (4 * math.factorial(ell - 1)
               * binom_poly(Fraction(ell, 2) - 1, s - j)
               * binom_poly(Fraction(ell, 2), j)
               / (gamma_sq_over_pi * 2 ** (1 + ell)))
        if lhs != rhs:
            return False
    return True


def _on_distinct(f: Callable, points: np.ndarray) -> np.ndarray:
    """``f`` read once at the distinct entries of ``points``, its rows put
    back in the shape of ``points``."""
    distinct, back = np.unique(points, return_inverse=True)
    vals = f(distinct)
    return vals[back.ravel()].reshape(points.shape + vals.shape[1:])


def _weight_rows(ks, taus) -> np.ndarray:
    """A row of points per weight in ``ks``: its own row of a 2-D ``taus``,
    or every point of a 1-D one."""
    pts = read_points(taus)
    return np.broadcast_to(pts, (len(ks), pts.shape[-1]))


def joyce_brackets(ks, nu: int, taus) -> np.ndarray:
    """Rankin-Cohen brackets of vartheta_nu (weight 1/2) against s_nu
    (weight 3/2) of order k/2 - 1, with D on the s side analytic and D on
    the theta side formal, a row per weight k in ``ks`` at its row of
    ``_weight_rows``.  ``s_nu_tower`` runs once, at the top depth over
    every distinct point, and each theta-block derivative once, over the
    points of the weights that read it, cut at their smallest Im tau by
    ``series_trunc_for``."""
    for k in ks:
        _check_weight(k)
    _check_residue(nu)
    kaps = [k // 2 - 1 for k in ks]
    rows = _weight_rows(ks, taus)
    tower = _on_distinct(lambda ts: s_nu_tower(nu, ts, max(kaps)), rows)
    total = np.zeros(rows.shape, dtype=complex)
    for j in range(max(kaps) + 1):
        need = [i for i, kap in enumerate(kaps) if kap >= j]
        theta = _on_distinct(lambda ts: eval_qseries(_theta_block_derivatives(
            nu, series_trunc_for(ts, 4), j), ts), rows[need])
        for i, th in zip(need, theta):
            total[i] += _bracket_coeffs(kaps[i])[j] * th * tower[i, :, kaps[i] - j]
    return total


@lru_cache(maxsize=None)
def _bracket_coeffs(kap: int) -> tuple:
    """Signed Rankin-Cohen coefficients (-1)^j C(1/2 + kap - 1, kap - j)
    C(3/2 + kap - 1, j) of the order-kap bracket, rounded once to floats."""
    return tuple(float((-1) ** j
                       * binom_poly(BRACKET_WEIGHT_THETA + kap - 1, kap - j)
                       * binom_poly(BRACKET_WEIGHT_S + kap - 1, j))
                 for j in range(kap + 1))


@lru_cache(maxsize=None)
def _joyce_series(k: int, trunc: int) -> QSeries:
    return joyce_expansion(k, trunc)


def _core_value(k: int, taus):
    """The exact weight-k core at one point or a batch, cut where a term
    is below 1e-18 of the leading q: |c_N| <= N^(k/2) gives the log-bound
    (k/2) ln T + 2 pi v at the smallest v."""
    lead = TWO_PI * read_points(taus).imag.min()
    trunc = series_trunc_for(taus, 1, lambda t: 0.5 * k * math.log(t) + lead)
    return eval_qseries(_joyce_series(k, trunc), taus)


def joyce_hat_rows(ks, taus) -> np.ndarray:
    """The completed weight-k objects, exact core + delta term + bracket, a
    row per weight k in ``ks`` at its row of ``_weight_rows``: the brackets
    of every weight share their passes (``joyce_brackets``), and each core,
    a series of its own, is one evaluation at its row."""
    rows = _weight_rows(ks, taus)
    brackets = joyce_brackets(ks, -1, rows) + joyce_brackets(ks, 0, rows)
    return np.array([
        _core_value(k, tz) + (1.0 / (8.0 * math.pi * tz.imag) if k == 2 else 0.0)
        + bracket_constant(k) * br for k, tz, br in zip(ks, rows, brackets)])


def lowering_reference_joyce(k: int, t1: complex, t3: complex, tau: Tau,
                             variant: str = "stated") -> complex:
    """Closed forms compared against numeric lowering of the completion,
    given the theta nulls ``t1`` = Theta_{-1}(tau) and ``t3`` = Theta_0(tau)
    (Theta_nu = -vartheta_nu(0)).

    ``stated``: -delta_{k=2}/(8 pi) - i(k-1)/(8 (2 pi i)^(k-1)) sqrt(v)
    (conj(Theta_{-1}) theta_ln(k-1,-1) + conj(Theta_0) theta_ln(k-1,0)).
    ``corollary_display``: the k=2 variant printed with constant -1/(4 pi)
    and prefactor 1/(16 pi v), a rival reading that the lowering check
    must refute.
    """
    _check_weight(k)
    if variant == "stated":
        pref = -1j * (k - 1) / (8.0 * (TWO_PI * 1j) ** (k - 1))
        out = pref * math.sqrt(tau.v) * (t1.conjugate() * theta_ln(k - 1, -1, tau)
                                         + t3.conjugate() * theta_ln(k - 1, 0, tau))
        if k == 2:
            out += -1.0 / (8.0 * math.pi)
        return out
    if variant == "corollary_display":
        if k != 2:
            raise DomainError("display variant exists only at k = 2")
        return (-1.0 / (4.0 * math.pi)
                + (abs(t1) ** 2 + abs(t3) ** 2) / (16.0 * math.pi * tau.v))
    raise DomainError(f"unknown variant {variant!r}")


def lowering_values(ks, tau: Tau) -> list:
    """What the lowering law compares at tau, a tuple (k, numeric lowering
    of the completion, Theta_{-1}, Theta_0) per weight in ``ks``: one
    stencil pass over every weight, and the theta nulls at tau read once."""
    got, _ = lowering_numeric(lambda ts: joyce_hat_rows(ks, ts), tau)
    t1, t3 = (-theta_block_deriv0(nu, 0, tau) for nu in (-1, 0))
    return [(k, complex(g), t1, t3) for k, g in zip(ks, got)]


def lowering_readings(k: int, got: complex, t1: complex, t3: complex,
                      tau: Tau) -> dict:
    """Residual of the numeric lowering ``got`` of the weight-k completion
    against each reading of its closed form, given the theta nulls at tau:
    ``stated`` (the documented one) and, at k = 2, ``corollary_display``."""
    readings = ("stated", "corollary_display") if k == 2 else ("stated",)
    return {name: relative_residual(
                got, lowering_reference_joyce(k, t1, t3, tau, name))
            for name in readings}


# ---------------------------------------------------------------------------
# theta-block transformation on the level-four congruence group
# ---------------------------------------------------------------------------


def kronecker_symbol(a: int, n: int) -> int:
    """Extended quadratic residue symbol (a/n)."""
    if n == 0:
        return 1 if abs(a) == 1 else 0
    k = 1
    if n < 0:
        n = -n
        if a < 0:
            k = -k
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            k = -k
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                k = -k
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            k = -k
        a %= n
    return k if n == 1 else 0


def theta_star_value(nu, z, tau):
    """vartheta_nu(z; tau) e^(pi z^2/(4v)), the index-killed completion: a
    complex at one row, an array over a batch of rows (nu, z, tau), each
    one value or a batch, broadcast together, in one ``theta_value`` pass."""
    nus, zs, tz = np.broadcast_arrays(nu, z, read_points(tau))
    for n in set(nus.tolist()):
        _check_residue(n)
    theta = theta_value(zs + nus * tz + 0.5, 2 * tz)
    vals = np.exp(1j * math.pi * nus * zs) * np.exp(0.5j * math.pi * nus * nus * tz) \
        * theta * np.exp(math.pi * zs * zs / (4.0 * tz.imag))
    return points_out(vals, nu, z, tau)


def theta_star_multiplier(nu: int, gamma: Mobius) -> complex:
    """Adjudicated multiplier of theta_star under the level-four group.

    The half-lattice conjugate eta-cube form psi^3(a, 2b; c/2, d) i^(c/4)
    is exactly the nu = 0 multiplier; nu = -1 carries the extra i^(-b)
    and then coincides with the classical quadratic-symbol multiplier
    (c/d) eps_d^(-1).
    """
    _check_residue(nu)
    a, b, c, d = gamma.entries()
    if c % 4:
        raise DomainError("lower-left entry must be divisible by 4")
    if a % 4 != 1 or d % 4 != 1:
        raise DomainError("diagonal entries must be 1 modulo 4")
    chi = eta_multiplier(Mobius(a, 2 * b, c // 2, d)) ** 3 * 1j ** ((c // 4) % 4)
    if nu == 0:
        return chi
    return chi * 1j ** ((-b) % 4)


def theta_star_residual(gamma, z, base, lhs, tau) -> tuple:
    """Residual of theta_star(z/(c tau+d); gamma tau) = chi_nu (c tau+d)^(1/2)
    theta_star(z; tau) by ``modular_law``, given ``theta_star_value`` at tau
    (``base``) and at gamma tau (``lhs``) on the rows (nu, point) = (-1, 0),
    (-1, z), (0, 0), (0, z) (the last axis): the worst row, with the
    nu = -1 quadratic-symbol gap as a part.  ``gamma`` is one matrix or a
    sequence, with a point of ``tau`` and a row of each side per matrix:
    floats for one matrix, an entry per matrix for a sequence."""
    gs = np.asarray(gamma, dtype=object)
    chis, gaps = [], []
    for g in gs.flat:
        chi = [theta_star_multiplier(nu, g) for nu in (-1, 0)]
        eps = 1.0 if g.d % 4 == 1 else 1j
        chis.append([chi[0], chi[0], chi[1], chi[1]])
        gaps.append(abs(chi[0] - kronecker_symbol(g.c, g.d) / eps))
    rows = modular_law(gs[..., None], base, lhs, np.asarray(tau)[..., None],
                       halves=1, chi=np.reshape(chis, gs.shape + (4,)))
    return points_out(rows.max(axis=-1), gamma), \
        {"quadratic_symbol_gap": points_out(np.reshape(gaps, gs.shape), gamma)}


def appell_limit_values(ks, tau: Tau) -> list:
    """Twice the exact expansion and the Appell-limit construction of the
    same odd-order moment k - 1, a pair per weight in ``ks``; every moment
    comes from one ``raw_moments`` pass."""
    for k in ks:
        _check_weight(k)
    limits = raw_moments([k - 1 for k in ks], tau)
    return [(2.0 * _core_value(k, tau), limit)
            for k, (limit, _) in zip(ks, limits)]


def sample_gamma1_4(rng) -> Mobius:
    """Random word in the two parabolic generators of the level-four
    congruence group (unit upper shift and lower shift by four); both lie
    in the group, so any word does.  Resamples until the entries are
    bounded by 60 and the lower-left entry is nonzero."""
    lower = Mobius(1, 0, 4, 1)
    while True:
        g = IDENTITY
        for _ in range(rng.randint(1, 4)):
            h = GEN_T if rng.randrange(2) else lower
            e = rng.randint(-2, 2)
            step = h if e >= 0 else h.inverse()
            for _ in range(abs(e)):
                g = g @ step
        if g.c != 0 and max(abs(x) for x in g.entries()) <= 60:
            return g
