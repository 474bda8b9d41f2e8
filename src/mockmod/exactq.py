"""Exact q-series arithmetic over the rationals.

Series here are truncated expansions in a formal variable ``q`` whose
exponents live on a grid ``Z/den``.  Coefficients are ``fractions.Fraction``
and every operation tracks how far the expansion remains valid, so a
truncation bug surfaces as an explicit error instead of a wrong tail.  A
product runs as one integer multiplication: each factor becomes integer
numerators over one shared denominator, packed into a single big int
(Kronecker substitution), and the result comes back as ``Fraction``s.

The module also builds the combinatorial generating functions used by the
numeric layers: the partition-rank table and its power moments, the Dedekind
eta and Eisenstein weight-two expansions, the half-integer-coefficient
lattice sums of Joyce type, and null-value theta expansions.  The rank table
is constructed from two classically equivalent expansions of the same
bivariate generating function and the two results are compared entry by
entry at build time.  Both run on int64 arrays: the Durfee-square route
applies each geometric factor by blocks of rows, one slice-add per block,
and the Lambert route divides by (q; q)_inf through Euler's pentagonal
recurrence, one small product per row.  Rank moments sum m^k over the folded
band N(m, n) +- N(-m, n), 0 < m < n, in Python ints, eta is one int64 array
and the Joyce sums run doubled in ints; ``Fraction``s come once, at the end.
The bivariate theta and its triple product are int64 arrays with q rows and
doubled zeta-exponent columns, the rank table's layout.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Union

import numpy as np

from .core import DomainError

Rational = Union[int, Fraction]


def _numerators(coeffs: tuple) -> tuple[list[int], int]:
    """Integer numerators over the least common denominator of ``coeffs``."""
    d = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def _kronecker_product(xs: list[int], ys: list[int], n: int) -> list[int]:
    """The first ``n`` coefficients of the product of two integer
    polynomials, as one big-int multiplication (Kronecker substitution).

    Each coefficient sits in a slot of ``width`` bytes, biased by half the
    slot range so that signed digits pack and unpack without borrows; half
    the range exceeds twice the bound on any output coefficient.
    """
    bound = max(map(abs, xs)) * max(map(abs, ys)) * min(len(xs), len(ys))
    width = (bound.bit_length() + 2 + 7) // 8
    half = 1 << (8 * width - 1)
    slot = half.to_bytes(width, "little")

    def pack(cs: list[int]) -> int:
        biased = b"".join((c + half).to_bytes(width, "little") for c in cs)
        return int.from_bytes(biased, "little") \
            - int.from_bytes(slot * len(cs), "little")

    total = pack(xs) * pack(ys) + int.from_bytes(slot * n, "little")
    size = width * n
    raw = (total & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
    return [int.from_bytes(raw[i:i + width], "little") - half
            for i in range(0, size, width)]


@dataclass(frozen=True)
class QSeries:
    """Truncated q-expansion with exact rational coefficients.

    ``coeffs[i]`` is the coefficient of ``q**((offset + i) / den)``; the
    expansion is only trusted for exponent numerators below ``trunc``.
    """

    den: int
    offset: int
    coeffs: tuple
    trunc: int

    def __post_init__(self) -> None:
        if self.den < 1:
            raise DomainError("denominator must be a positive integer")
        if self.offset + len(self.coeffs) > self.trunc:
            raise DomainError("coefficients stored beyond the truncation order")

    # -- construction helpers -------------------------------------------

    @staticmethod
    def one(trunc: int, den: int = 1) -> "QSeries":
        return QSeries(den, 0, (Fraction(1),), trunc)

    @staticmethod
    def zero(trunc: int, den: int = 1) -> "QSeries":
        return QSeries(den, 0, (), trunc)

    # -- structure -------------------------------------------------------

    @cached_property
    def float_terms(self) -> tuple:
        """The nonzero entries as binary64 arrays (exponents, coefficients),
        built once per series for numeric evaluation."""
        idx = [i for i, c in enumerate(self.coeffs) if c]
        exponents = (self.offset + np.array(idx, dtype=float)) / self.den
        coefficients = np.array([float(self.coeffs[i]) for i in idx])
        for a in (exponents, coefficients):
            a.setflags(write=False)
        return exponents, coefficients

    def lead_exponent(self) -> int:
        """Numerator of the lowest nonzero exponent (trunc if zero series)."""
        for i, c in enumerate(self.coeffs):
            if c:
                return self.offset + i
        return self.trunc

    def rebase(self, den: int) -> "QSeries":
        """Re-express on a finer grid (den must be a multiple of self.den)."""
        if den % self.den != 0:
            raise DomainError("new denominator must refine the old grid")
        return replace(self.rescale(den // self.den), den=den)

    def _strip(self) -> "QSeries":
        co = list(self.coeffs)
        off = self.offset
        while co and not co[0]:
            co.pop(0)
            off += 1
        while co and not co[-1]:
            co.pop()
        if not co:
            off = 0
        return QSeries(self.den, off, tuple(co), self.trunc)

    # -- ring operations --------------------------------------------------

    def __add__(self, other: "QSeries") -> "QSeries":
        den = math.lcm(self.den, other.den)
        a = self.rebase(den)
        b = other.rebase(den)
        trunc = min(a.trunc, b.trunc)
        lo = min((s.offset for s in (a, b) if s.coeffs), default=0)
        lo = min(lo, trunc)
        hi = max((min(s.offset + len(s.coeffs), trunc) for s in (a, b)), default=lo)
        hi = max(hi, lo)
        co = [Fraction(0)] * (hi - lo)
        for s in (a, b):
            for i, c in enumerate(s.coeffs):
                n = s.offset + i
                if lo <= n < hi:
                    co[n - lo] += c
        return QSeries(den, lo, tuple(co), trunc)._strip()

    def __neg__(self) -> "QSeries":
        return QSeries(self.den, self.offset, tuple(-c for c in self.coeffs), self.trunc)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

    def scale(self, factor: Rational) -> "QSeries":
        f = Fraction(factor)
        return QSeries(self.den, self.offset, tuple(f * c for c in self.coeffs), self.trunc)

    def __mul__(self, other: "QSeries") -> "QSeries":
        den = math.lcm(self.den, other.den)
        a = self.rebase(den)._strip()
        b = other.rebase(den)._strip()
        # Validity of a product: each factor's truncation window is shifted
        # by the other factor's lead exponent.  For series starting at
        # exponent zero this is just min(trunc_a, trunc_b).
        trunc = min(a.trunc + b.lead_exponent(), b.trunc + a.lead_exponent())
        if not a.coeffs or not b.coeffs:
            return QSeries.zero(trunc, den)
        lo = a.offset + b.offset
        n = min(len(a.coeffs) + len(b.coeffs) - 1, trunc - lo)
        xs, dx = _numerators(a.coeffs[:n])
        ys, dy = _numerators(b.coeffs[:n])
        d = dx * dy
        co = tuple(Fraction(c, d) for c in _kronecker_product(xs, ys, n))
        return QSeries(den, lo, co, trunc)._strip()

    def shift(self, exponent: Rational) -> "QSeries":
        """Multiply by the monomial q**exponent."""
        e = Fraction(exponent)
        den = math.lcm(self.den, e.denominator)
        a = self.rebase(den)
        step = int(e * den)
        return QSeries(den, a.offset + step, a.coeffs, a.trunc + step)

    def rescale(self, k: int) -> "QSeries":
        """Substitute q -> q**k (argument substitution, k >= 1)."""
        if k < 1:
            raise DomainError("rescale factor must be a positive integer")
        if k == 1:
            return self
        co = [Fraction(0)] * ((len(self.coeffs) - 1) * k + 1)
        co[::k] = self.coeffs
        return QSeries(self.den, self.offset * k, tuple(co), self.trunc * k)

    def derivative(self) -> "QSeries":
        """The exponent-multiplying derivative (q d/dq)."""
        co = tuple(Fraction(self.offset + i, self.den) * c
                   for i, c in enumerate(self.coeffs))
        return QSeries(self.den, self.offset, co, self.trunc)

    def truncate(self, trunc: int) -> "QSeries":
        trunc = min(trunc, self.trunc)
        keep = max(0, trunc - self.offset)
        if keep == 0:
            return QSeries(self.den, 0, (), max(trunc, 0))
        return QSeries(self.den, self.offset, self.coeffs[:keep], trunc)._strip()

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "den": self.den,
            "offset": self.offset,
            # a padded zero is the most common coefficient on fine grids
            "coeffs": [f"{c.numerator}/{c.denominator}" if c else "0/1"
                       for c in self.coeffs],
            "trunc": self.trunc,
        }


# ---------------------------------------------------------------------------
# partitions and the rank table
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _pentagonal_steps(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Euler's recurrence for dividing by (q; q)_inf: the generalized
    pentagonal numbers k(3k -+ 1)/2 up to ``n_max``, ascending, and their
    signs (-1)^(k+1), so that a / (q; q)_inf = b means
    b[e] = a[e] + sum_j signs[j] * b[e - offsets[j]]."""
    offsets, signs = [], []
    k = 1
    while k * (3 * k - 1) // 2 <= n_max:
        sign = 1 if k % 2 else -1
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g <= n_max:
                offsets.append(g)
                signs.append(sign)
        k += 1
    offsets_arr = np.array(offsets, dtype=np.int64)
    signs_arr = np.array(signs, dtype=np.int64)
    for a in (offsets_arr, signs_arr):
        a.setflags(write=False)
    return offsets_arr, signs_arr


@lru_cache(maxsize=None)
def _partition_counts(n_max: int) -> tuple:
    """p(0..n_max) by the pentagonal-number recurrence, on Python ints."""
    offsets, signs = (a.tolist() for a in _pentagonal_steps(n_max))
    p = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        p[n] = sum(s * p[n - g] for g, s in zip(offsets, signs) if g <= n)
    return tuple(p)


def partition_count(n: int) -> int:
    if n < 0:
        raise DomainError("partition count needs n >= 0")
    return _partition_counts(max(n, 1))[n]


def partition_series(trunc: int) -> QSeries:
    """Generating function of p(n), exponents 0..trunc-1."""
    p = _partition_counts(max(trunc - 1, 1))
    return QSeries(1, 0, tuple(Fraction(p[n]) for n in range(trunc)), trunc)


def _rank_array_durfee(nmax: int) -> np.ndarray:
    """Rank counts from the Durfee-square expansion
    1 + sum_n q^(n^2) / ((x q; q)_n (x^{-1} q; q)_n)."""
    width = 2 * nmax + 1
    out = np.zeros((nmax + 1, width), dtype=np.int64)
    out[0, nmax] = 1
    prod = np.zeros((nmax + 1, width), dtype=np.int64)
    prod[0, nmax] = 1
    n = 1
    while n * n <= nmax:
        sq = n * n
        prod = prod[: nmax + 1 - sq]  # the rows later squares still reach
        # times 1/(1 - x q^n), then 1/(1 - x^-1 q^n): row e gains row e - n,
        # already final, so each block of n rows is one slice-add
        for dst, src in ((prod[:, 1:], prod[:, :-1]), (prod[:, :-1], prod[:, 1:])):
            for e in range(n, len(prod), n):
                end = min(e + n, len(prod))
                dst[e:end] += src[e - n:end - n]
        out[sq:, :] += prod
        n += 1
    return out


def _rank_array_lambert(nmax: int) -> np.ndarray:
    """Rank counts from the Lambert-type expansion
    (1 - x)/(q; q)_inf * sum_n (-1)^n q^(n(3n+1)/2) / (1 - x q^n)."""
    width = 2 * nmax + 1
    mid = nmax
    bracket = np.zeros((nmax + 1, width), dtype=np.int64)
    m = 1
    while m * (3 * m - 1) // 2 <= nmax:
        sign = -1 if m % 2 else 1
        e0, e1 = m * (3 * m + 1) // 2, m * (3 * m - 1) // 2
        i = np.arange((nmax - e0) // m + 1)  # empty when e0 > nmax
        bracket[e0 + m * i, mid + i] += sign
        i = np.arange(1, (nmax - e1) // m + 1)
        bracket[e1 + m * i, mid - i] -= sign
        m += 1
    combined = bracket.copy()
    combined[:, 1:] -= bracket[:, :-1]  # multiply the bracket by (1 - x)
    combined[0, mid] += 1
    # divide by (q; q)_inf: one small product per row over the pentagonal
    # offsets that reach back into rows already final
    offsets, signs = _pentagonal_steps(nmax)
    for e in range(1, nmax + 1):
        j = np.searchsorted(offsets, e, side="right")
        combined[e] += signs[:j] @ combined[e - offsets[:j]]
    return combined


@dataclass(frozen=True)
class RankTable:
    """Exact table of partition counts by rank: entry (m, n) is the number
    of partitions of n whose largest part exceeds the number of parts by m."""

    nmax: int
    _table: np.ndarray

    def count(self, m: int, n: int) -> int:
        if not (0 <= n <= self.nmax):
            raise DomainError(f"n={n} outside table range 0..{self.nmax}")
        if abs(m) > self.nmax:
            return 0
        return int(self._table[n, self.nmax + m])

    def row(self, n: int) -> dict[int, int]:
        if not (0 <= n <= self.nmax):
            raise DomainError(f"n={n} outside table range 0..{self.nmax}")
        (idx,) = np.nonzero(self._table[n])
        return dict(zip((idx - self.nmax).tolist(), self._table[n, idx].tolist()))

    def _fold(self, sign: int) -> list:
        """Rows of N(m, n) + sign * N(-m, n) for m = 1..nmax-1 as Python ints;
        int64 is exact, as both counts lie within p(n) < 2^63."""
        c = self.nmax
        return (self._table[:, c + 1:2 * c]
                + sign * self._table[:, c - 1:0:-1]).tolist()

    @cached_property
    def _even_fold(self) -> list:
        return self._fold(1)

    def moments(self, k: int) -> list[int]:
        """sum_m m^k N(m, n) for n = 0..nmax, over the folded columns m >= 1
        (even folds for even k, odd folds, zeros by symmetry, for odd k) and
        the band |m| < n where row n lives; m = 0 adds to k = 0 only."""
        if k < 0:
            raise DomainError("moment order must be nonnegative")
        powers = [m ** k for m in range(1, self.nmax)]
        rows = self._fold(-1) if k % 2 else self._even_fold
        out = [sum(map(operator.mul, powers, row[:n - 1])) if n else 0
               for n, row in enumerate(rows)]
        if k == 0:
            out = [a + b for a, b in zip(out, self._table[:, self.nmax].tolist())]
        return out

    def specialize(self, sign: int, trunc: int) -> QSeries:
        """The q-series with the Laurent variable set to +1 or -1."""
        if sign not in (1, -1):
            raise DomainError("specialization point must be +1 or -1")
        if trunc > self.nmax + 1:
            raise DomainError("specialization beyond table range")
        # one int64 product: its partial sums stay within p(n) < 2^63
        signs = sign ** np.abs(np.arange(-self.nmax, self.nmax + 1))
        co = tuple(Fraction(c) for c in (self._table[:trunc] @ signs).tolist())
        return QSeries(1, 0, co, trunc)


# the largest int64 rank table: |N(m, n)| <= p(n) and p(405) < 2^63 <= p(406)
RANK_TABLE_NMAX = 405


@lru_cache(maxsize=8)
def rank_table(nmax: int) -> RankTable:
    """Build the rank table, cross-checking the two expansions exactly."""
    if nmax < 1:
        raise DomainError("table needs nmax >= 1")
    # int64 sums and products are exact mod 2^64, so a wrapped entry would
    # pass the comparison below
    if nmax > RANK_TABLE_NMAX:
        raise DomainError(f"rank table at nmax {nmax} overflows int64")
    durfee = _rank_array_durfee(nmax)
    lambert = _rank_array_lambert(nmax)
    if not np.array_equal(durfee, lambert):
        raise DomainError("rank table expansions disagree; arithmetic bug")
    durfee.setflags(write=False)
    return RankTable(nmax, durfee)


def rank_moment_series(ell: int, trunc: int) -> QSeries:
    """Generating function of the 2*ell-th power rank moments."""
    if ell < 0:
        raise DomainError("moment order must be nonnegative")
    table = rank_table(max(trunc - 1, 1))
    co = tuple(Fraction(c) for c in table.moments(2 * ell)[:trunc])
    return QSeries(1, 0, co, trunc)


# ---------------------------------------------------------------------------
# classical expansions
# ---------------------------------------------------------------------------


def eta_expansion(trunc: int) -> QSeries:
    """q^(1/24) * prod (1 - q^n), denominator 24, valid below trunc/24.

    ``trunc`` is in numerator units of 1/24.
    """
    if trunc < 0:
        raise DomainError("eta expansion needs trunc >= 0")
    t_int = trunc // 24 + 1
    # The product in int64 needs no guard: its partial products stay within
    # 50 in magnitude at t_int = 240 (170 at 360), and ring arithmetic mod
    # 2^64 is exact whenever the final coefficients (0 or +-1) fit.
    prod = np.zeros(t_int, dtype=np.int64)
    prod[0] = 1
    for n in range(1, t_int):
        prod[n:] -= prod[:-n].copy()
    co = tuple(Fraction(c) for c in prod.tolist())
    return QSeries(1, 0, co, t_int)._strip().shift(Fraction(1, 24)).truncate(trunc)


def e2_expansion(trunc: int) -> QSeries:
    """Weight-two Eisenstein series 1 - 24 sum sigma_1(n) q^n."""
    sigma = [0] * trunc
    for d in range(1, trunc):
        for n in range(d, trunc, d):
            sigma[n] += d
    co = [Fraction(1)] + [Fraction(-24 * sigma[n]) for n in range(1, trunc)]
    return QSeries(1, 0, tuple(co), trunc)


def joyce_expansion(k: int, trunc: int) -> QSeries:
    """Lattice Lambert sum (1/2) sum_{n != 0} n^(k-1) q^(n^2)/(1 - q^n)
    for even k; its half-integer coefficients are summed doubled, in ints."""
    if k < 2 or k % 2:
        raise DomainError("weight must be a positive even integer")
    twice = [0] * max(trunc, 0)
    n = 1
    while n * n < trunc:
        w = n ** (k - 1)
        twice[n * n] += w
        for e in range(n * n + n, trunc, n):
            twice[e] += 2 * w
        n += 1
    return QSeries(1, 0, tuple(Fraction(c, 2) for c in twice), trunc)._strip()


# grid of each theta null; numerators j^2, or (2j+1)^2 on grids 1/4, 1/8
THETA_DENS = {"theta1": 2, "theta3": 8, "vartheta_minus": 1, "vartheta_zero": 4}


def theta_q_expansion(which: str, trunc: int) -> QSeries:
    """Null-value theta expansions.

    theta1: sum q^(n^2/2);  theta3: sum q^((n+1/2)^2/2);
    vartheta_minus / vartheta_zero: the two half-characteristic null values
    -sum q^(m^2) over m in Z, respectively m in 1/2 + Z.  ``trunc`` is in
    numerator units of the grid ``THETA_DENS[which]``.
    """
    if which not in THETA_DENS:
        raise DomainError(f"unknown theta kind {which!r};"
                          f" choose from {tuple(THETA_DENS)}")
    half = THETA_DENS[which] % 4 == 0
    sign = -1 if which.startswith("vartheta") else 1
    co = [Fraction(0)] * max(trunc, 0)
    top = math.isqrt(trunc - 1) + 1 if trunc > 0 else 0  # r^2 < trunc
    for r in range(half, top, 1 + half):
        co[r * r] = Fraction(sign * (2 if r else 1))
    return QSeries(THETA_DENS[which], 0, tuple(co), trunc)._strip()


def mock_theta_f_expansion(trunc: int) -> QSeries:
    """1 + sum_n q^(n^2) / ((-q; q)_n)^2, the classical third-order series."""
    # Python ints: the coefficients outgrow int64 near q^1400
    acc = [1] + [0] * (trunc - 1)
    prod = list(acc)
    n = 1
    while n * n < trunc:
        # divide twice by (1 + q^n): b[e] = a[e] - b[e - n]
        for _ in range(2):
            for e in range(n, trunc):
                prod[e] -= prod[e - n]
        for e in range(n * n, trunc):
            acc[e] += prod[e - n * n]
        n += 1
    return QSeries(1, 0, tuple(Fraction(c) for c in acc), trunc)


# ---------------------------------------------------------------------------
# Bernoulli values and formal Rankin-Cohen brackets
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def bernoulli_number(n: int) -> Fraction:
    if n < 0:
        raise DomainError("Bernoulli index must be nonnegative")
    if n == 0:
        return Fraction(1)
    # sum_{k=0}^{n} C(n+1, k) B_k = 0
    total = Fraction(0)
    for k in range(n):
        total += math.comb(n + 1, k) * bernoulli_number(k)
    return -total / (n + 1)


def bernoulli_half(n: int) -> Fraction:
    """Bernoulli polynomial evaluated at one half, via the defining
    expansion B_n(x) = sum_k C(n,k) B_k x^(n-k)."""
    x = Fraction(1, 2)
    return sum((math.comb(n, k) * bernoulli_number(k) * x ** (n - k)
                for k in range(n + 1)), Fraction(0))


def binom_poly(x: Rational, k: int) -> Fraction:
    """Polynomial binomial coefficient x(x-1)...(x-k+1)/k! (k >= 0)."""
    if k < 0:
        raise DomainError("binomial order must be nonnegative")
    num = Fraction(1)
    xf = Fraction(x)
    for i in range(k):
        num *= xf - i
    return num / math.factorial(k)


# ---------------------------------------------------------------------------
# bivariate theta expansion and the triple product
# ---------------------------------------------------------------------------


def _zeta_grid(trunc: int) -> np.ndarray:
    """Zero int64 array of the bivariate theta layout: q rows on the 1/8
    grid below ``trunc``, columns W + d for doubled zeta-exponents |d| <=
    W = isqrt(trunc), where every term q^(d^2/8) below trunc fits."""
    if trunc < 1:
        raise DomainError("bivariate theta expansion needs trunc >= 1")
    return np.zeros((trunc, 2 * math.isqrt(trunc) + 1), dtype=np.int64)


def theta_zeta_expansion(trunc: int) -> np.ndarray:
    """The odd theta sum divided by i, as an exact bivariate expansion:
    sum over half-integers n of (-1)^(n - 1/2) q^(n^2/2) zeta^n.  Entry
    [r, W + d] is the coefficient of q^(r/8) zeta^(d/2) (``_zeta_grid``);
    ``trunc`` is in numerator units of 1/8."""
    out = _zeta_grid(trunc)
    w = out.shape[1] // 2
    d = np.arange(1, math.isqrt(trunc - 1) + 1, 2)  # d^2 < trunc, n = d/2
    out[d * d, w + d] = np.where(d % 4 == 1, 1, -1)
    out[d * d, w - d] = -out[d * d, w + d]
    return out


def theta_triple_product(trunc: int) -> np.ndarray:
    """-q^(1/8) zeta^(-1/2) prod (1-q^n)(1-zeta q^(n-1))(1-zeta^(-1) q^n),
    in the layout of ``theta_zeta_expansion``.

    The product runs on integer q-rows; each factor (1 - zeta^(s/2) q^b) is
    one subtraction shifted b rows and s columns.  A term of the partial
    product with zeta^e needs q-order at least the triangular number
    e(e-1)/2 (e > 0) or |e|(|e|+1)/2 (e <= 0), so d = 2e - 1 has d^2 <=
    8 (q-order) + 1: a term shifted past the width bound lies beyond trunc
    and is dropped.  int64 arithmetic is exact mod 2^64 and the final
    coefficients are 0 or +-1."""
    out = _zeta_grid(trunc)
    width = out.shape[1]
    prod = np.zeros_like(out[1::8])
    rows = len(prod)
    prod[:1, width // 2 - 1] = -1
    for n in range(1, rows + 1):
        for b, s in ((n, 0), (n - 1, 2), (n, -2)):
            if b >= rows:
                continue  # the factor is 1 below trunc
            src = prod[: rows - b].copy()
            prod[b:, max(s, 0): width + min(s, 0)] -= \
                src[:, max(-s, 0): width - max(s, 0)]
    out[1::8] = prod
    return out
