"""Reference coefficients for the exact-expand workload, built without
mockmod: brute-force partition enumeration, pentagonal-number signs,
divisor sums, Bernoulli numbers from their recurrence, and the closed-form
exponents of the theta nulls.

``expected(name, prefix_q)`` returns ``(den, coeffs)`` where ``coeffs``
maps each exponent numerator below ``prefix_q * den`` (exponent =
numerator / den) to its nonzero coefficient.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, isqrt
from pathlib import Path

# Integer powers of q checked against the oracles on every expansion.
PREFIX_Q = 30
DIGESTS_PATH = Path(__file__).resolve().parent / "golden" / "expand-digests.json"


@lru_cache(maxsize=None)
def rank_histograms(nmax: int) -> tuple:
    """For n < nmax, {rank: count} over all partitions of n, where the rank
    is the largest part minus the number of parts."""
    rows = []
    for n in range(nmax):
        row: dict = {}
        stack = [(n, n, 0, 0)]  # remaining, largest allowed, first, parts
        while stack:
            remaining, top, first, parts = stack.pop()
            if remaining == 0:
                row[first - parts] = row.get(first - parts, 0) + 1
                continue
            for p in range(min(remaining, top), 0, -1):
                stack.append((remaining - p, p, first if parts else p,
                              parts + 1))
        rows.append(row)
    return tuple(rows)


def rank_moments(power: int, nmax: int) -> list:
    """sum_m m^power N(m, n) for n < nmax (power 0 gives p(n))."""
    return [sum(m ** power * c for m, c in row.items())
            for row in rank_histograms(nmax)]


def e2_coeffs(nmax: int) -> list:
    """1 - 24 sum sigma(n) q^n, with sigma(n) summed over all divisors."""
    return [Fraction(1)] + [
        Fraction(-24 * sum(d for d in range(1, n + 1) if n % d == 0))
        for n in range(1, nmax)]


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """B_n with B_1 = -1/2, from sum_k binom(m + 1, k) B_k = 0."""
    if n == 0:
        return Fraction(1)
    return -sum(comb(n + 1, k) * bernoulli(k) for k in range(n)) / (n + 1)


def mul(a: list, b: list) -> list:
    n = min(len(a), len(b))
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n)]


def rank_plus_coeffs(ell: int, nmax: int) -> list:
    """c_n for n < nmax in sum_{p + 2j + 2k = 2l} (B_p(1/2)/p!)
    (M_2j/(2j)!) ((E_2/8)^k/k!); the series is q^(-1/24) sum c_n q^n."""
    e2 = e2_coeffs(nmax)
    total = [Fraction(0)] * nmax
    for p in range(0, 2 * ell + 1, 2):
        b_half = (Fraction(2) ** (1 - p) - 1) * bernoulli(p)
        for j in range(0, ell - p // 2 + 1):
            k = ell - p // 2 - j
            term = [Fraction(c) for c in rank_moments(2 * j, nmax)]
            for _ in range(k):
                term = mul(term, e2)
            weight = b_half / factorial(p) / factorial(2 * j) \
                / (Fraction(8) ** k * factorial(k))
            total = [t + weight * c for t, c in zip(total, term)]
    return total


def _squares(limit: int, odd: bool):
    """Roots r >= 0 (odd ones only if ``odd``) with r*r < limit."""
    r = 1 if odd else 0
    while r * r < limit:
        yield r
        r += 2 if odd else 1


@lru_cache(maxsize=None)
def expected(name: str, prefix_q: int) -> tuple[int, dict]:
    if name == "eta":
        # q^(1/24) prod (1 - q^n) = sum_k (-1)^k q^(1/24 + k(3k - 1)/2)
        den, out = 24, {}
        k = 0
        while 1 + 12 * k * (3 * k - 1) < prefix_q * den:
            for kk in {k, -k}:
                out[1 + 12 * kk * (3 * kk - 1)] = Fraction((-1) ** k)
            k += 1
        return den, {e: c for e, c in out.items() if e < prefix_q * den}
    if name == "P":
        return 1, {n: Fraction(c) for n, c in enumerate(rank_moments(0, prefix_q))}
    if name == "E2":
        return 1, {n: c for n, c in enumerate(e2_coeffs(prefix_q)) if c}
    kind, _, index = name.rpartition("-")
    if kind == "rank-moment":
        moments = rank_moments(2 * int(index), prefix_q)
        return 1, {n: Fraction(c) for n, c in enumerate(moments) if c}
    if kind == "joyce":
        # (1/2) sum_{n != 0} n^(k-1) q^(n^2)/(1 - q^n): the coefficient of
        # q^N sums d^(k-1) over divisors d of N with d^2 < N, plus half of
        # sqrt(N)^(k-1) when N is a square.
        power = int(index) - 1
        out = {}
        for n in range(1, prefix_q):
            c = Fraction(sum(d ** power for d in range(1, isqrt(n) + 1)
                             if n % d == 0 and d * d < n))
            if isqrt(n) ** 2 == n:
                c += Fraction(isqrt(n) ** power, 2)
            if c:
                out[n] = c
        return 1, out
    if kind == "rank-plus":
        # q^(-1/24) shifts each q^n to exponent numerator 24n - 1, so the
        # window below 24 * prefix_q reaches n = prefix_q
        coeffs = rank_plus_coeffs(int(index), prefix_q + 1)
        return 24, {24 * n - 1: c for n, c in enumerate(coeffs) if c}
    # theta nulls: sums over squares (theta1, vartheta_minus) or odd
    # squares (theta3, vartheta_zero) of the exponent numerator
    den, odd, pair, single = {
        "theta1": (2, False, 2, 1),
        "theta3": (8, True, 2, 2),
        "vartheta_minus": (1, False, -2, -1),
        "vartheta_zero": (4, True, -2, -2),
    }[name]
    return den, {r * r: Fraction(pair if r else single)
                 for r in _squares(prefix_q * den, odd)}


def prefix_problems(name: str, t: int, den: int, offset: int, coeffs: list,
                    prefix_q: int = PREFIX_Q) -> list:
    """Mismatches between serialised coefficients (``"num/den"`` strings
    starting at exponent numerator ``offset``) and the oracle."""
    want_den, want = expected(name, prefix_q)
    if den != want_den:
        return [f"{name} T={t}: grid 1/{den}, expected 1/{want_den}"]
    limit = prefix_q * den
    got = {}
    for i, text in enumerate(coeffs[: max(0, limit - offset)]):
        c = Fraction(text)
        if c:
            got[offset + i] = c
    bad = sorted(n for n in set(got) | set(want) if got.get(n) != want.get(n))
    if not bad:
        return []
    n = bad[0]
    return [f"{name} T={t}: coefficient of q^({n}/{den}) is "
            f"{got.get(n, 0)}, oracle says {want.get(n, 0)}"]
