"""Bivariate Taylor jets in (z, conj z) around z = 0.

A jet stores coefficients c[j, k] of z^j conj(z)^k for j + k <= order.
Holomorphic blocks occupy the k = 0 column; real-analytic blocks such as
the Gaussian error factor in the nonholomorphic period sums fill the full
triangle.  All block constructors pair growing lattice exponentials with
their decaying partners inside a single exponent, so no intermediate can
overflow even when individual classical factors would.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import DomainError, TWO_PI, lattice_window
from .special import gauss_E, upper_gamma_scaled, _gauss_E_poly

_SQRT_PI = math.sqrt(math.pi)


@lru_cache(maxsize=None)
def _triangle(order: int) -> tuple:
    """Layout of the jet triangle at this order: index arrays (j, k) of the
    entries j + k <= order, and each entry's slot m (order + 1) + j in a
    packed vector, m = j + k.

    Packing by total degree makes the packed vector a polynomial whose
    products keep every triangle entry apart: j1 + j2 <= m1 + m2, so a
    slot sum never carries into the next degree, and degrees above the
    order land beyond the last slot that is read back.
    """
    rows, cols = np.nonzero(np.add.outer(np.arange(order + 1),
                                         np.arange(order + 1)) <= order)
    slots = (rows + cols) * (order + 1) + rows
    for a in (rows, cols, slots):
        a.setflags(write=False)
    return rows, cols, slots


@dataclass(frozen=True)
class Jet:
    """Truncated expansion sum c[j,k] z^j conj(z)^k, j + k <= order."""

    order: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        n = self.order + 1
        if self.coeffs.shape != (n, n):
            raise DomainError("jet coefficient array has wrong shape")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(order: int) -> "Jet":
        return Jet(order, np.zeros((order + 1, order + 1), dtype=complex))

    @staticmethod
    def constant(value: complex, order: int) -> "Jet":
        j = Jet.zero(order)
        j.coeffs[0, 0] = value
        return j

    @staticmethod
    def variable(order: int) -> "Jet":
        j = Jet.zero(order)
        if order >= 1:
            j.coeffs[1, 0] = 1.0
        return j

    @staticmethod
    def polynomial(entries: dict, order: int) -> "Jet":
        """entries: {(j, k): coefficient}."""
        jet = Jet.zero(order)
        for (j, k), c in entries.items():
            if j + k <= order:
                jet.coeffs[j, k] = c
        return jet

    # -- accessors ---------------------------------------------------------

    def value(self) -> complex:
        return complex(self.coeffs[0, 0])

    def coeff(self, j: int, k: int = 0) -> complex:
        if j + k > self.order:
            raise DomainError("jet coefficient beyond truncation order")
        return complex(self.coeffs[j, k])

    def z_deriv0(self, ell: int) -> complex:
        """[d^ell/dz^ell f]_{z=0} = ell! * c[ell, 0]."""
        return math.factorial(ell) * self.coeff(ell, 0)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Jet") -> "Jet":
        n = min(self.order, other.order)
        out = Jet.zero(n)
        out.coeffs[:, :] = self.coeffs[: n + 1, : n + 1] + other.coeffs[: n + 1, : n + 1]
        return out

    def __neg__(self) -> "Jet":
        return Jet(self.order, -self.coeffs)

    def __sub__(self, other: "Jet") -> "Jet":
        return self + (-other)

    def scale(self, factor: complex) -> "Jet":
        return Jet(self.order, self.coeffs * factor)

    def __mul__(self, other: "Jet") -> "Jet":
        """Truncated product by Kronecker substitution: both triangles are
        packed into one vector, multiplied by one ``np.convolve``, and the
        triangle of the result is read back (see ``_triangle``)."""
        n = min(self.order, other.order)
        rows, cols, slots = _triangle(n)
        packed = np.zeros((2, (n + 1) ** 2), dtype=complex)
        packed[0, slots] = self.coeffs[rows, cols]
        packed[1, slots] = other.coeffs[rows, cols]
        out = np.zeros((n + 1, n + 1), dtype=complex)
        out[rows, cols] = np.convolve(packed[0], packed[1])[slots]
        return Jet(n, out)

    def exp(self) -> "Jet":
        """exp of the jet; exact through the truncation order."""
        c0 = self.coeffs[0, 0]
        rest = Jet(self.order, self.coeffs.copy())
        rest.coeffs[0, 0] = 0.0
        out = Jet.constant(1.0, self.order)
        power = Jet.constant(1.0, self.order)
        for p in range(1, self.order + 1):
            power = power * rest
            out = out + power.scale(1.0 / math.factorial(p))
        return out.scale(cmath.exp(c0))

    def dz(self) -> "Jet":
        """Holomorphic Wirtinger derivative; drops one order."""
        if self.order == 0:
            raise DomainError("cannot differentiate an order-0 jet")
        n = self.order - 1
        out = Jet.zero(n)
        for j in range(n + 1):
            for k in range(n + 1 - j):
                out.coeffs[j, k] = (j + 1) * self.coeffs[j + 1, k]
        return out

    def dzbar(self) -> "Jet":
        """Antiholomorphic Wirtinger derivative; drops one order."""
        if self.order == 0:
            raise DomainError("cannot differentiate an order-0 jet")
        n = self.order - 1
        out = Jet.zero(n)
        for j in range(n + 1):
            for k in range(n + 1 - j):
                out.coeffs[j, k] = (k + 1) * self.coeffs[j, k + 1]
        return out

    def scale_variable(self, s: complex) -> "Jet":
        """Substitute z -> s z (and conj z -> conj(s) conj z)."""
        rows, cols, _ = _triangle(self.order)
        powers = np.arange(self.order + 1)
        out = Jet.zero(self.order)
        out.coeffs[rows, cols] = self.coeffs[rows, cols] \
            * (complex(s) ** powers)[rows] \
            * (complex(s).conjugate() ** powers)[cols]
        return out

    def even_part(self) -> "Jet":
        """(f(z) + f(-z)) / 2 as a jet."""
        return (self + self.scale_variable(-1.0)).scale(0.5)

    def odd_part(self) -> "Jet":
        return (self - self.scale_variable(-1.0)).scale(0.5)


def exp_quadratic_jet(c: complex, order: int) -> Jet:
    """Jet of exp(c z^2)."""
    return Jet.polynomial({(2, 0): c}, order).exp()


def exp_linear_jet(c: complex, order: int) -> Jet:
    """Jet of exp(c z)."""
    return Jet.polynomial({(1, 0): c}, order).exp()


# ---------------------------------------------------------------------------
# lattice blocks
# ---------------------------------------------------------------------------


def exp_column_jet(weights, freqs, order: int) -> Jet:
    """Jet of z -> sum_t weights[t] exp(freqs[t] z), a holomorphic column:
    coefficient p is sum_t weights[t] freqs[t]^p / p!."""
    facs = np.array([math.factorial(p) for p in range(order + 1)], dtype=float)
    out = Jet.zero(order)
    out.coeffs[:, 0] = np.asarray(weights) \
        @ np.vander(freqs, order + 1, increasing=True) / facs
    return out


def theta_arg_jet(base: complex, lattice: complex, order: int) -> Jet:
    """Jet of z -> theta(base + z; lattice), the odd Jacobi theta."""
    n_max = lattice_window(math.pi * lattice.imag, TWO_PI * abs(base.imag))
    nu = np.arange(-n_max, n_max + 1) + 0.5
    weights = np.exp(1j * math.pi * (nu * nu * lattice + 2.0 * nu * (base + 0.5)))
    return exp_column_jet(weights, TWO_PI * 1j * nu, order)


def vartheta_nu_jet(nu: int, tau_z: complex, order: int) -> Jet:
    """Jet of z -> -sum over m in (nu+1)/2 + Z of q^(m^2) e^(2 pi i m z),
    for nu in {-1, 0}."""
    if nu not in (-1, 0):
        raise DomainError("characteristic must be -1 or 0")
    m_max = lattice_window(TWO_PI * tau_z.imag)
    # m runs over (nu+1)/2 + Z inside [-m_max, m_max]
    m = np.arange(-m_max, m_max - nu) + (nu + 1) / 2.0
    return exp_column_jet(-np.exp(TWO_PI * 1j * m * m * tau_z),
                          TWO_PI * 1j * m, order)


def zwegers_S_jet(base: complex, lattice: complex, order: int) -> Jet:
    """Jet of z -> S(base + z; lattice) where

    S(w; tau') = sum over n in 1/2 + Z of
        (sgn(n) - E((n + Im w / v') sqrt(2 v'))) (-1)^(n - 1/2)
        e^(-pi i n^2 tau') e^(-2 pi i n w).

    Growing lattice exponentials are paired against the Gaussian tail of
    the error-integral factor inside one exponent, so the construction is
    overflow-safe whenever the result itself is representable.
    """
    vp = lattice.imag
    y0 = base.imag
    n_max = lattice_window(math.pi * vp, TWO_PI * abs(y0))
    ns = np.arange(-n_max, n_max)
    nn = ns + 0.5
    sgn = np.where(nn > 0, 1.0, -1.0)
    parity = np.where(ns % 2 == 0, 1.0, -1.0)
    a0 = (nn + y0 / vp) * math.sqrt(2.0 * vp)
    hol_exp = -1j * math.pi * nn * nn * lattice - TWO_PI * 1j * nn * base
    # flat[t] is the jet of sgn - E(arg) times e^(-pi i n^2 tau' - 2 pi i n w)
    # for term t; its order-0 coefficient takes the incomplete-gamma form
    # on the tail side of the error integral
    rows, cols, _ = _triangle(order)
    polys, table, lag = _S_jet_tables(order)
    flat = np.zeros((nn.size, order + 1, order + 1), dtype=complex)
    for t, (a, sg, h) in enumerate(zip(a0.tolist(), sgn.tolist(),
                                       hol_exp.tolist())):
        if a * sg > 0:
            scaled = upper_gamma_scaled(0.5, math.pi * a * a) / _SQRT_PI
            flat[t, 0, 0] = sg * scaled * cmath.exp(h - math.pi * a * a)
        else:
            flat[t, 0, 0] = (sg - gauss_E(a)) * cmath.exp(h)
    if order >= 1:
        # derivative coefficients of -E(arg), paired with exp(-pi a0^2):
        # d^m E = P_m(a0) e^(-pi a0^2), and d(arg)/dz = -i (2 v')^(-1/2),
        # d(arg)/d(conj z) = i (2 v')^(-1/2)
        pm = np.zeros((nn.size, order + 1))
        for c in polys.T[::-1]:
            pm = pm * a0[:, None] + c
        pm *= (2.0 * vp) ** (-0.5 * np.arange(order + 1))
        w_pair = np.exp(hol_exp - math.pi * a0 * a0)
        higher = (rows + cols) > 0
        r, k = rows[higher], cols[higher]
        flat[:, r, k] = -pm[:, r + k] * table[r, k] * w_pair[:, None]
    # multiply term t by its parity and the remaining holomorphic
    # exponential e^(-2 pi i n z): a lower-triangular Toeplitz matrix of
    # its Taylor column (-2 pi i n)^p / p! = (2 pi n)^p table[p, 0]
    col = parity[:, None] * (TWO_PI * nn[:, None]) ** np.arange(order + 1) \
        * table[:, 0]
    toeplitz = np.where(lag >= 0, col[:, lag], 0.0)
    total = np.einsum("tji,tik->jk", toeplitz, flat)
    out = Jet.zero(order)
    out.coeffs[rows, cols] = total[rows, cols]
    return out


@lru_cache(maxsize=None)
def _S_jet_tables(order: int) -> tuple:
    """The parts of the S-jet that depend on the order alone: the
    coefficients of P_1 .. P_order as rows of a matrix (row m holds P_m by
    ascending degree, row 0 is zero), (-i)^j i^k / (j! k!), and the lag
    j - i of a Toeplitz matrix."""
    polys = np.zeros((order + 1, order))
    for m in range(1, order + 1):
        poly = _gauss_E_poly(m)
        polys[m, : len(poly)] = poly
    j, k = np.indices((order + 1, order + 1))
    facs = np.array([math.factorial(p) for p in range(order + 1)], dtype=float)
    table = (-1j) ** j * 1j ** k / np.outer(facs, facs)
    lag = j - k
    for a in (polys, table, lag):
        a.setflags(write=False)
    return polys, table, lag


def zwegers_S_value(w: complex, lattice: complex) -> complex:
    """Point value of the nonholomorphic period sum S(w; lattice)."""
    return zwegers_S_jet(w, lattice, 0).value()


def gaussian_completed_coeffs(chis, a: complex) -> list:
    """Coefficients of f(z) exp(a z^2) given the coefficients of f:
    out[n] = sum_j a^j / j! * chis[n - 2j]."""
    out = []
    for n in range(len(chis)):
        acc = 0.0 + 0.0j
        j = 0
        while n - 2 * j >= 0:
            acc += (a ** j) / math.factorial(j) * chis[n - 2 * j]
            j += 1
        out.append(acc)
    return out


def theta_power_taylor(power: int, lattice: complex, top: int) -> list:
    """Taylor coefficients at z = 0 of the odd theta raised to ``power``.

    The base theta vanishes at 0, so the list starts with ``power`` zeros;
    entries above ``top`` are not computed.
    """
    if power < 1:
        raise DomainError("power must be a positive integer")
    base = theta_arg_jet(0.0, lattice, top)
    acc = base
    for _ in range(power - 1):
        acc = acc * base
    return [acc.coeff(n, 0) for n in range(top + 1)]


def taylor_completion_psi(chis, m: float, tau, n: int) -> complex:
    """Weight-raising recombination with the 1/v Gaussian:

        psi_n = sum_j (pi m / v)^j / j! * chis[n - 2j]

    for a weight-k index-m form with z-coefficients ``chis``; transforms
    with weight k + n.  Negative indices count as zero.
    """
    if n < 0 or n >= len(chis):
        raise DomainError("coefficient index out of range")
    return gaussian_completed_coeffs(chis[: n + 1], math.pi * m / tau.v)[n]


def taylor_completion_rho(chis, m: float, tau, n: int) -> complex:
    """Holomorphic counterpart of ``taylor_completion_psi`` built on the
    quasimodular weight-two series instead of 1/v:

        rho_n = sum_j (pi^2 m E2(tau) / 3)^j / j! * chis[n - 2j].
    """
    from .special import e2_value

    if n < 0 or n >= len(chis):
        raise DomainError("coefficient index out of range")
    a = math.pi ** 2 * m * e2_value(tau) / 3.0
    return gaussian_completed_coeffs(chis[: n + 1], a)[n]


def theta_power_completed_residual(power: int, n: int, kind: str,
                                   gamma, tau) -> float:
    """Transform residual of a recombined z-coefficient of the theta power.

    The ``power``-th theta power is a Jacobi form of weight and index
    power/2; its n-th z-coefficient recombined through ``psi`` (the 1/v
    route) or ``rho`` (the quasimodular route) transforms with weight
    power/2 + n.  The residual is normalized against the term scale
    sum_j |a|^j/j! |chi_(n-2j)| so rows that vanish identically (odd n
    by parity, degenerate zero rows) are tested sharply instead of
    producing 0/0 noise.
    """
    if power < 2 or power % 2:
        raise DomainError("theta power must be even and >= 2")
    if n < 0:
        raise DomainError("coefficient index must be nonnegative")
    m = power // 2
    im = gamma.apply(tau)
    chis = theta_power_taylor(power, tau.z, n + 1)
    chis_im = theta_power_taylor(power, im.z, n)
    if kind == "psi":
        a_here = math.pi * m / tau.v
        lhs = taylor_completion_psi(chis_im, m, im, n)
        base = taylor_completion_psi(chis, m, tau, n)
    elif kind == "rho":
        from .special import e2_value

        a_here = math.pi ** 2 * m * e2_value(tau) / 3.0
        lhs = taylor_completion_rho(chis_im, m, im, n)
        base = taylor_completion_rho(chis, m, tau, n)
    else:
        raise DomainError(f"unknown kind {kind!r}")
    jf = gamma.j_factor(tau)
    rhs = jf ** (m + n) * base
    # roundoff in an identically-zero row comes from the adjacent even
    # coefficients during the jet product, so the yardstick is the
    # parity-blind envelope of each recombined term
    env = [max(abs(chis[max(i - 1, 0)]), abs(chis[i]), abs(chis[i + 1]))
           for i in range(n + 1)]
    scale = sum(abs(a_here) ** j / math.factorial(j) * env[n - 2 * j]
                for j in range(n // 2 + 1))
    return abs(lhs - rhs) / max(abs(jf) ** (m + n) * scale, 1e-300)


def rho_degeneracy_residual(tau) -> float:
    """The eighth theta power vanishes to z-order 8, so its rho row at
    n = 10 collapses: chi_10 = -(4 pi^2/3) E2 chi_8 identically.  Returns
    the relative gap of that collapse."""
    from .special import e2_value

    chis = theta_power_taylor(8, tau.z, 10)
    want = -(4.0 * math.pi ** 2 / 3.0) * e2_value(tau) * chis[8]
    return abs(chis[10] - want) / max(abs(want), 1e-300)
