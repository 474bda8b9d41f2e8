import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mockmod import (DomainError, QSeries, partition_count, partition_series,
                     rank_moment_series, rank_table)
from mockmod.exactq import (bernoulli_half, bernoulli_number, binom_poly,
                            e2_expansion, eta_expansion, joyce_expansion,
                            mock_theta_f_expansion, theta_q_expansion,
                            theta_triple_product, theta_zeta_expansion)
from conftest import brute_partition_count, brute_rank_counts

# literature values, not derived from this package
KNOWN_PARTITIONS = {30: 5604, 60: 966467, 100: 190569292, 200: 3972999029388}


def small_series(draw_coeffs, den=1, offset=0, trunc=12):
    return QSeries(den, offset, tuple(Fraction(c) for c in draw_coeffs), trunc)


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
    with pytest.raises(DomainError):
        table.moment(2, 9)


def test_rank_moments_against_enumeration():
    table = rank_table(11)
    for n in range(1, 12):
        hist = brute_rank_counts(n)
        for k in (1, 2, 3, 4):
            want = sum(m ** k * c for m, c in hist.items())
            assert table.moment(k, n) == want
        assert table.moment(1, n) == 0
        assert table.moment(3, n) == 0


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


def test_rank_moment_series_matches_table():
    table = rank_table(15)
    for ell in (1, 2, 3):
        s = rank_moment_series(ell, 16)
        for n in range(16):
            assert s.coeffs[n] == table.moment(2 * ell, n)


@given(coeff_lists, coeff_lists)
def test_qseries_ring_axioms(xs, ys):
    a = small_series(xs)
    b = small_series(ys)
    assert (a + b).coeffs == (b + a).coeffs
    assert (a * b).coeffs == (b * a).coeffs
    lhs = a * (a + b)
    rhs = a * a + a * b
    assert lhs.coeffs == rhs.coeffs


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
    t = QSeries.from_json_dict(d)
    assert t == s


def test_eta_expansion_is_pentagonal():
    s = eta_expansion(24 * 40)
    # eta = sum (-1)^j q^((6j+1)^2/24) over all integers j
    want = {}
    for j in range(-10, 11):
        e = (6 * j + 1) ** 2
        if e < 24 * 40:
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


def test_theta_q_expansions_locate_squares():
    s = theta_q_expansion("vartheta_minus", 50)
    got = {i + s.offset: c for i, c in enumerate(s.coeffs) if c}
    assert got == {m * m: (-2 if m else -1) for m in range(8) if m * m < 50}
    s3 = theta_q_expansion("theta3", 80)
    got3 = {(i + s3.offset): c for i, c in enumerate(s3.coeffs) if c}
    assert got3 == {(2 * m + 1) ** 2: 2 for m in range(5)
                    if (2 * m + 1) ** 2 < 80}


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
    a = theta_zeta_expansion(8 * 6)
    b = theta_triple_product(8 * 6)
    gap = a + b.scale(-1)
    assert all(not any(row.values()) for row in gap.data.values())
