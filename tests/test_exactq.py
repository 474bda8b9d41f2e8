import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mockmod import (DomainError, QSeries, partition_count, partition_series,
                     rank_moment_series, rank_table)
from mockmod.exactq import (RANK_TABLE_NMAX, THETA_DENS, _rank_array_durfee,
                            _rank_array_lambert,
                            bernoulli_half, bernoulli_number, binom_poly,
                            e2_expansion, eta_expansion, joyce_expansion,
                            mock_theta_f_expansion, theta_q_expansion,
                            theta_triple_product, theta_zeta_expansion)
from conftest import brute_partition_count, brute_rank_counts

# literature values, not derived from this package
KNOWN_PARTITIONS = {30: 5604, 60: 966467, 100: 190569292, 200: 3972999029388}


def small_series(draw_coeffs, den=1, offset=0, trunc=12):
    return QSeries(den, offset, tuple(Fraction(c) for c in draw_coeffs), trunc)


def series_from_terms(terms, den: int, trunc: int) -> QSeries:
    """The tests' own builder: a series from a map exponent -> coefficient,
    exponents in units of 1/den on the grid, terms at or past ``trunc``
    dropped."""
    idx: dict = {}
    for e, c in terms.items():
        num = Fraction(e) * den
        if num.denominator != 1:
            raise DomainError(f"exponent {e} not on grid 1/{den}")
        n = int(num)
        if n < trunc:
            idx[n] = idx.get(n, Fraction(0)) + Fraction(c)
    if not idx:
        return QSeries.zero(trunc, den)
    lo, hi = min(idx), max(idx)
    return QSeries(den, lo, tuple(idx.get(n, Fraction(0))
                                  for n in range(lo, hi + 1)), trunc)


def series_from_json(d: dict) -> QSeries:
    """The tests' own parser of ``QSeries.to_json_dict``."""
    co = tuple(Fraction(s) for s in d["coeffs"])
    return QSeries(int(d["den"]), int(d["offset"]), co, int(d["trunc"]))


coeff_lists = st.lists(st.integers(min_value=-9, max_value=9),
                       min_size=1, max_size=8)


def test_partition_count_frozen():
    for n, want in KNOWN_PARTITIONS.items():
        assert partition_count(n) == want


def test_partition_series_matches_enumeration():
    p = partition_series(13)
    for n in range(13):
        assert p.coeffs[n] == brute_partition_count(n)


def test_rank_table_rows_match_enumeration():
    table = rank_table(12)
    for n in range(1, 13):
        assert table.row(n) == brute_rank_counts(n)


def test_rank_table_bounds():
    table = rank_table(8)
    assert table.count(99, 5) == 0
    with pytest.raises(DomainError):
        table.count(0, 9)
    assert len(table.moments(2)) == 9  # rows 0..8, none beyond
    with pytest.raises(DomainError):
        table.moments(-1)


def test_rank_table_int64_range():
    # |N(m, n)| <= p(n), and p(405) < 2^63 <= p(406)
    assert rank_table(405).count(0, 405) > 0
    with pytest.raises(DomainError):
        rank_table(406)


def test_lambert_route_equals_durfee_route():
    for n in [*range(1, 41), 239, 405]:
        assert np.array_equal(_rank_array_lambert(n), _rank_array_durfee(n)), n


def test_rank_moments_against_enumeration():
    table = rank_table(11)
    moments = {k: table.moments(k) for k in (1, 2, 3, 4)}
    for n in range(1, 12):
        hist = brute_rank_counts(n)
        for k in (1, 2, 3, 4):
            want = sum(m ** k * c for m, c in hist.items())
            assert moments[k][n] == want
        assert moments[1][n] == 0
        assert moments[3][n] == 0


def test_rank_moments_match_row_sums_at_size():
    table = rank_table(239)
    for k in range(8):
        want = [sum(m ** k * c for m, c in table.row(n).items())
                for n in range(240)]
        assert table.moments(k) == want
        if k % 2:
            assert not any(want)
    assert table.moments(6)[239] >= 2 ** 63  # beyond int64: no wrap


@pytest.mark.parametrize("nmax", [1, 2, 3, 12])
def test_folded_moments_match_row_sums_on_small_tables(nmax):
    # the folded band m = 1..nmax-1 and the k = 0 centre column at its edges
    table = rank_table(nmax)
    for k in range(8):
        want = [sum(m ** k * c for m, c in table.row(n).items())
                for n in range(nmax + 1)]
        assert table.moments(k) == want
        assert all(type(c) is int for c in table.moments(k))
    assert table.moments(0) == [partition_count(n) for n in range(nmax + 1)]
    assert not any(table.moments(1) + table.moments(7))


def test_durfee_route_needs_no_pentagonal_steps(monkeypatch):
    import mockmod.exactq as ex

    lambert = _rank_array_lambert(60)

    def refuse(n_max):
        raise AssertionError("the Durfee route reached _pentagonal_steps")

    monkeypatch.setattr(ex, "_pentagonal_steps", refuse)
    assert np.array_equal(ex._rank_array_durfee(60), lambert)


def test_spt_from_second_rank_moment():
    # Andrews: spt(n) = n p(n) - N_2(n)/2 counts smallest parts
    n2 = rank_moment_series(1, 240).coeffs
    spt = [n * partition_count(n) - n2[n] / 2 for n in range(240)]
    assert spt[1:8] == [1, 3, 5, 10, 14, 26, 35]
    assert all(s.denominator == 1 and s > 0 for s in spt[1:])
    for a, b in ((5, 4), (7, 5), (13, 6)):  # spt(an + b) = 0 mod a
        assert all(spt[n] % a == 0 for n in range(b, 240, a))


def test_specialize_at_one_gives_partitions():
    table = rank_table(10)
    s = table.specialize(1, 11)
    for n in range(11):
        assert s.coeffs[n] == brute_partition_count(n)


def test_specialize_at_minus_one_alternates_by_rank():
    table = rank_table(10)
    s = table.specialize(-1, 11)
    for n in range(1, 11):
        hist = brute_rank_counts(n)
        assert s.coeffs[n] == sum((-1) ** m * c for m, c in hist.items())


def test_specialize_minus_one_equals_third_order_series():
    got = rank_table(20).specialize(-1, 21)
    want = mock_theta_f_expansion(21)
    assert got.coeffs[:20] == want.coeffs[:20]


def test_third_order_f_beyond_int64():
    # Watson: f(q) (q; q)_inf = 1 + 4 sum_{n>=1} (-1)^n q^(n(3n+1)/2) / (1 + q^n)
    trunc = 1700
    rhs = [1] + [0] * (trunc - 1)
    n = 1
    while n * (3 * n + 1) // 2 < trunc:
        for i, e in enumerate(range(n * (3 * n + 1) // 2, trunc, n)):
            rhs[e] += 4 * (-1) ** (n + i)
        n += 1
    want = []
    for e in range(trunc):  # divide by (q; q)_inf, on Python ints
        total, k = rhs[e], 1
        while k * (3 * k - 1) // 2 <= e:
            for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if g <= e:
                    total += (-1) ** (k + 1) * want[e - g]
            k += 1
        want.append(total)
    got = mock_theta_f_expansion(trunc).coeffs
    assert got == tuple(Fraction(c) for c in want)
    assert got[1400] == -9_263_932_240_451_124_151


def test_rank_moment_series_matches_table():
    table = rank_table(15)
    for ell in (1, 2, 3):
        s = rank_moment_series(ell, 16)
        assert list(s.coeffs) == table.moments(2 * ell)


@given(coeff_lists, coeff_lists)
def test_qseries_ring_axioms(xs, ys):
    a = small_series(xs)
    b = small_series(ys)
    assert (a + b).coeffs == (b + a).coeffs
    assert (a * b).coeffs == (b * a).coeffs
    lhs = a * (a + b)
    rhs = a * a + a * b
    assert lhs.coeffs == rhs.coeffs


def schoolbook_product(x: QSeries, y: QSeries) -> QSeries:
    """Reference for QSeries.__mul__: the Fraction double loop it ran before
    its product became one integer multiplication."""
    den = math.lcm(x.den, y.den)
    a = x.rebase(den)._strip()
    b = y.rebase(den)._strip()
    trunc = min(a.trunc + b.lead_exponent(), b.trunc + a.lead_exponent())
    if not a.coeffs or not b.coeffs:
        return QSeries.zero(trunc, den)
    lo = a.offset + b.offset
    hi = min(lo + len(a.coeffs) + len(b.coeffs) - 1, trunc)
    co = [Fraction(0)] * max(0, hi - lo)
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            if i + j < len(co):
                co[i + j] += ca * cb
    return QSeries(den, lo, tuple(co), trunc)._strip()


def test_qseries_product_matches_schoolbook():
    rng = random.Random(5)

    def ints(values, offset=0, trunc=None, den=1):
        co = tuple(Fraction(v) for v in values)
        return QSeries(den, offset, co, offset + len(co) if trunc is None else trunc)

    mixed = [ints([rng.randint(-9, 9) for _ in range(n)], trunc=40)
             for n in (1, 7, 23)]
    big = []
    for top in (63, 200):
        for delta in (-3, 0, 1):
            m = (1 << top) + delta
            for n in (1, 2, 5):
                big += [ints([m] * n, trunc=12), ints([-m] * n, trunc=12),
                        ints([rng.choice((m, -m, m - 7, 0)) for _ in range(n)],
                             trunc=12)]
    rational = [
        QSeries(1, 0, (Fraction(3, 7), Fraction(-5, 12), Fraction(0),
                       Fraction(1, 1 << 70), Fraction(-9, 2)), 20),
        QSeries(1, 2, (Fraction(-1, 3), Fraction(7, 10), Fraction(2)), 20),
    ]
    grids = [eta_expansion(24 * 8), theta_q_expansion("theta3", 8 * 6),
             theta_q_expansion("theta1", 2 * 6), partition_series(12)]
    negative = partition_series(12).shift(Fraction(-1, 24))
    one_term = QSeries(1, 3, (Fraction(-2),), 10)
    zero = QSeries.zero(10)
    padded = QSeries(1, 0, (Fraction(0), Fraction(0), Fraction(3),
                            Fraction(-1), Fraction(0), Fraction(0)), 12)
    late = QSeries(1, 3, (Fraction(1), Fraction(4), Fraction(-2)), 10)
    short = QSeries(1, 4, (Fraction(5),), 5)
    # (1 + q)(1 - q) = 1 - q^2: an inner zero and, below trunc 3, no tail
    plus = ints([1, 1], trunc=3)
    minus = ints([1, -1], trunc=3)
    pairs = [(a, b) for a in mixed for b in mixed]
    pairs += [(a, b) for a in big for b in big[::4]]
    pairs += [(a, b) for a in rational for b in rational + mixed]
    pairs += [(partition_series(12), grids[0]),     # den 1 x 24
              (grids[1], grids[2]),                 # den 8 x 2
              (negative, grids[0]), (negative, negative), (negative, mixed[2]),
              (one_term, mixed[2]), (mixed[2], one_term), (one_term, one_term),
              (zero, mixed[1]), (mixed[1], zero), (zero, zero),
              (padded, mixed[2]), (padded, padded), (padded, late),
              (late, ints(range(1, 12), trunc=11)),  # clipped at 10 + 0
              (ints([2, 3, 4, 5, 6]), short),        # one term below trunc 5
              (plus, minus),
              (rank_moment_series(3, 40), e2_expansion(40))]
    for a, b in pairs:
        got = a * b
        assert got == schoolbook_product(a, b)
        assert all(type(c) is Fraction for c in got.coeffs)
    assert (plus * minus).coeffs == (1, 0, -1)
    assert (ints([2, 3, 4, 5, 6]) * short).coeffs == (10,)


def _coeff_map(s: QSeries) -> dict:
    return {s.offset + i: c for i, c in enumerate(s.coeffs) if c}


@given(coeff_lists, coeff_lists)
def test_derivative_product_rule(xs, ys):
    a = small_series(xs)
    b = small_series(ys)
    lhs = (a * b).derivative()
    rhs = a.derivative() * b + a * b.derivative()
    assert _coeff_map(lhs) == _coeff_map(rhs)


def test_derivative_on_fractional_grid():
    # D(q^(1/24)) = (1/24) q^(1/24)
    s = QSeries(24, 1, (Fraction(1),), 30)
    d = s.derivative()
    assert d.coeffs[0] == Fraction(1, 24)


def test_shift_rescale_rebase_roundtrips():
    s = eta_expansion(24 * 6)
    moved = s.shift(Fraction(-1, 24))
    assert moved.offset == 0
    back = moved.shift(Fraction(1, 24))
    assert back.coeffs == s.coeffs and back.offset == s.offset
    doubled = s.rescale(2)
    assert doubled.den * s.offset * 2 == s.den * doubled.offset * 1
    wide = s.rebase(48)
    assert wide.den == 48
    assert wide.coeffs[::2] == s.coeffs or wide.coeffs[1::2] == s.coeffs


def test_qseries_json_roundtrip():
    s = eta_expansion(24 * 4)
    d = s.to_json_dict()
    t = series_from_json(d)
    assert t == s


def test_eta_expansion_is_pentagonal():
    s = eta_expansion(24 * 240)
    # eta = sum (-1)^j q^((6j+1)^2/24) over all integers j
    want = {}
    for j in range(-13, 14):
        e = (6 * j + 1) ** 2
        if e < 24 * 240:
            want[e] = want.get(e, 0) + (-1) ** j
    got = {s.offset + i: c for i, c in enumerate(s.coeffs) if c}
    assert got == {e: c for e, c in want.items() if c}


def test_e2_expansion_divisor_sums():
    s = e2_expansion(9)
    def sigma(n):
        return sum(d for d in range(1, n + 1) if n % d == 0)
    assert s.coeffs[0] == 1
    for n in range(1, 9):
        assert s.coeffs[n] == -24 * sigma(n)


def test_joyce_expansion_lambert_forms_agree():
    # (1/2) sum n^(k-1) q^(n^2) (1+q^n)/(1-q^n) via the geometric tail
    for k in (2, 4, 6):
        s = joyce_expansion(k, 40)
        want: dict[int, Fraction] = {}
        for n in range(1, 8):
            base = n * n
            if base >= 40:
                break
            # q^(n^2)(1 + q^n)/(1 - q^n) = q^(n^2)(1 + 2 sum_m q^(nm))
            want[base] = want.get(base, Fraction(0)) + Fraction(n ** (k - 1), 2)
            m = 1
            while base + n * m < 40:
                e = base + n * m
                want[e] = want.get(e, Fraction(0)) + n ** (k - 1)
                m += 1
        got = {s.offset + i: c for i, c in enumerate(s.coeffs) if c}
        assert got == {e: c for e, c in want.items() if c}


def fraction_joyce(k: int, trunc: int) -> QSeries:
    """Reference for joyce_expansion: the Fraction-dict sum it ran before
    its sum moved to ints."""
    terms: dict[int, Fraction] = {}
    n = 1
    while n * n < trunc:
        w = Fraction(n ** (k - 1))
        terms[n * n] = terms.get(n * n, Fraction(0)) + w / 2
        e = n * n + n
        while e < trunc:
            terms[e] = terms.get(e, Fraction(0)) + w
            e += n
        n += 1
    return series_from_terms(terms, 1, trunc)


@pytest.mark.parametrize("k", [2, 4, 6])
def test_joyce_expansion_matches_fraction_sum(k):
    for trunc in (0, 1, 2, 3, 5, 121, 240, 400):
        got = joyce_expansion(k, trunc)
        assert got == fraction_joyce(k, trunc)
        assert all(type(c) is Fraction for c in got.coeffs)


def qseries_rank_plus(ell: int, trunc: int) -> QSeries:
    """Reference for rank_plus_series: the QSeries scale / + / * sum it ran
    before the sum moved to ints."""
    e2 = e2_expansion(trunc)
    moments = [rank_moment_series(j, trunc) for j in range(ell + 1)]
    inner = []
    for k in range(ell + 1):
        part = QSeries.zero(trunc)
        for j in range(ell - k + 1):
            p = 2 * (ell - k - j)
            coeff = (bernoulli_half(p) / math.factorial(p)
                     / math.factorial(2 * j)
                     / (Fraction(8) ** k * math.factorial(k)))
            part = part + moments[j].scale(coeff)
        inner.append(part)
    total = inner[ell]
    for k in reversed(range(ell)):
        total = total * e2 + inner[k]
    return total.shift(Fraction(-1, 24))


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_rank_plus_series_matches_qseries_sum(ell):
    from mockmod.rank import rank_plus_series
    for trunc in (1, 2, 5, 121, 240, 384):
        got = rank_plus_series(ell, trunc)
        assert got == qseries_rank_plus(ell, trunc)
        assert all(type(c) is Fraction for c in got.coeffs)


def test_theta_q_expansions_locate_squares():
    s = theta_q_expansion("vartheta_minus", 50)
    got = {i + s.offset: c for i, c in enumerate(s.coeffs) if c}
    assert got == {m * m: (-2 if m else -1) for m in range(8) if m * m < 50}
    s3 = theta_q_expansion("theta3", 80)
    got3 = {(i + s3.offset): c for i, c in enumerate(s3.coeffs) if c}
    assert got3 == {(2 * m + 1) ** 2: 2 for m in range(5)
                    if (2 * m + 1) ** 2 < 80}


def theta_null_oracle(which: str, trunc: int) -> QSeries:
    """The four theta nulls term by term over the whole lattice, summed
    through ``series_from_terms``: theta1 q^(n^2/2) and theta3
    q^((n+1/2)^2/2), vartheta_minus -q^(m^2) and vartheta_zero
    -q^((m+1/2)^2), n and m running over Z."""
    exponent, sign, den = {
        "theta1": (lambda n: Fraction(n * n, 2), 1, 2),
        "theta3": (lambda n: Fraction(2 * n + 1, 2) ** 2 / 2, 1, 8),
        "vartheta_minus": (lambda n: n * n, -1, 1),
        "vartheta_zero": (lambda n: Fraction(2 * n + 1, 2) ** 2, -1, 4),
    }[which]
    terms = {}
    for n in range(-max(trunc, 0) - 1, max(trunc, 0) + 1):
        terms[exponent(n)] = terms.get(exponent(n), 0) + sign
    return series_from_terms(terms, den, trunc)


@pytest.mark.parametrize("which", sorted(THETA_DENS))
def test_theta_nulls_byte_identical_to_term_sums(which):
    # the expand command and the benchmark's digests print these series,
    # so the table-built arrays must serialize exactly as the term sums
    for trunc in (*range(0, 40), 64, 200, 480, 961):
        want = theta_null_oracle(which, trunc)
        got = theta_q_expansion(which, trunc)
        assert got.den == THETA_DENS[which]
        assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())
    with pytest.raises(DomainError):
        theta_q_expansion(which, -1)
    with pytest.raises(DomainError, match="unknown theta kind"):
        theta_q_expansion(which + "x", 8)


def test_theta_block_identities_low_order():
    lhs = theta_q_expansion("vartheta_minus", 30)
    rhs = theta_q_expansion("theta1", 60).rescale(2).scale(-1)
    a = lhs.rebase(rhs.den)
    for e in range(min(a.trunc, rhs.trunc)):
        ia = e - a.offset
        ib = e - rhs.offset
        ca = a.coeffs[ia] if 0 <= ia < len(a.coeffs) else 0
        cb = rhs.coeffs[ib] if 0 <= ib < len(rhs.coeffs) else 0
        assert ca == cb


def test_bernoulli_frozen():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(2) == Fraction(1, 6)
    assert bernoulli_number(4) == Fraction(-1, 30)
    assert bernoulli_number(12) == Fraction(-691, 2730)
    assert bernoulli_number(3) == 0
    # B(1/2)-type values enter the half-integer binomials
    assert bernoulli_half(0) == 1


def test_binom_poly_extends_comb():
    for x in range(0, 9):
        for k in range(0, 9):
            assert binom_poly(Fraction(x), k) == math.comb(x, k)
    assert binom_poly(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert binom_poly(Fraction(-1, 2), 1) == Fraction(-1, 2)
    assert binom_poly(Fraction(-1), 3) == -1


def test_triple_product_low_order():
    # entry [r, W + d] is the coefficient of q^(r/8) zeta^(d/2)
    for trunc in (1, 2, 9, 10, 8 * 6):
        a = theta_zeta_expansion(trunc)
        w = math.isqrt(trunc)
        assert a.shape == (trunc, 2 * w + 1) and a.dtype == np.int64
        want = np.zeros_like(a)
        for j in range(w):
            d = 2 * j + 1
            if d * d < trunc:
                want[d * d, w + d] = (-1) ** j
                want[d * d, w - d] = -(-1) ** j
        assert np.array_equal(a, want)
        assert np.array_equal(theta_triple_product(trunc), a)
    with pytest.raises(DomainError):
        theta_zeta_expansion(0)


def test_rank_table_limit_is_the_int64_partition_bound():
    assert partition_count(RANK_TABLE_NMAX) < 2 ** 63 \
        <= partition_count(RANK_TABLE_NMAX + 1)


def test_json_zero_coefficients_format_as_fractions():
    s = QSeries(24, 3, (Fraction(0), Fraction(-5, 7), Fraction(0), Fraction(2)),
                10)
    assert s.to_json_dict()["coeffs"] == ["0/1", "-5/7", "0/1", "2/1"]
    for series in (eta_expansion(24 * 30), rank_moment_series(1, 30)):
        assert series.to_json_dict()["coeffs"] == [
            f"{c.numerator}/{c.denominator}" for c in series.coeffs]
