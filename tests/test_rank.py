import math
import random
from fractions import Fraction

import numpy as np
import pytest

from mockmod import DomainError, GEN_S, GEN_T, SuiteConfig, Tau, run_suite
from mockmod.core import IM_FLOOR, sample_mobius
from mockmod.rank import (_plus_trunc, combination_series,
                          completed_family_value,
                          constant_row_series,
                          completion_circle_residual,
                          completion_collapse_residual,
                          completion_route_residual, generic_completion,
                          lowering_values, lowering_variants,
                          oddness_residual, rank_hat_parts, rank_hat_rows,
                          rank_hat_value, rank_minus_coeffs, rank_minus_jet,
                          rank_nonhol_lattice, rank_nonhol_modes,
                          rank_nonhol_period, rank_plus_series,
                          single_mode_identity_residual,
                          three_halves_residual, two_term_completion_value)
from mockmod.exactq import QSeries, e2_expansion
from mockmod.special import eta_value, eval_qseries, modular_law

TAU_FROZEN = Tau(0.19, 0.87)

# frozen against this module's first validated build; guards regressions
RANK_MINUS_FROZEN = -0.11928243087282403 + 0.005886932975993433j
RANK_HAT_FROZEN = -0.02099940321164251 - 0.013582884717440916j


def coeff_map(s):
    return {s.offset + i: c for i, c in enumerate(s.coeffs) if c}


def test_frozen_values():
    assert rank_minus_coeffs((1,), [TAU_FROZEN])[0, 0] \
        == pytest.approx(RANK_MINUS_FROZEN, abs=1e-14)
    assert rank_hat_value(1, [TAU_FROZEN])[0] \
        == pytest.approx(RANK_HAT_FROZEN, abs=1e-14)


def test_ell_validation():
    with pytest.raises(DomainError):
        rank_plus_series(0, 10)
    with pytest.raises(DomainError):
        rank_hat_value(-1, [TAU_FROZEN])


def test_plus_series_dual_route():
    # the literal three-term combination equals the general-ell assembly
    assert coeff_map(combination_series(80)) == coeff_map(rank_plus_series(1, 80))


def test_constant_row_series_matches_power_sum():
    # reference: the term-by-term sum over explicit powers of E_2
    for trunc in (5, 60):
        e2 = e2_expansion(trunc)
        for ell in (1, 2, 3):
            want = QSeries.zero(trunc)
            power = QSeries.one(trunc)
            for k in range(ell):
                a = 2 * ell - 1 - 2 * k
                want = want + power.scale(
                    Fraction(1, 2 ** a * math.factorial(a))
                    / (Fraction(8) ** k * math.factorial(k)))
                power = power * e2
            assert constant_row_series(ell, trunc) \
                == want.shift(Fraction(-1, 24))


def test_assembly_splits_into_plus_and_minus(tau_a):
    # in the raw normalization the assembled value times (2 pi i)^(2l-1) is
    # the exact-series value plus the bare (2l-1, 0) single-term coefficient,
    # read from the two-variable jet as the reference of the column route.
    # At ell = 3, tau_a, plus and minus cancel to 1e-2 of either part, so
    # the column route's 2.3e-14 relative gap in minus is 2.2e-12 of the sum
    hat_rel = {1: 1e-13, 2: 1e-13, 3: 1e-11}
    for ell in (1, 2, 3):
        gauge = (2j * math.pi) ** (2 * ell - 1)
        for tau in (tau_a, Tau(tau_a.u, IM_FLOOR)):
            plus = gauge * eval_qseries(rank_plus_series(ell, 120), tau)
            minus = rank_minus_jet(tau, 2 * ell)[2 * ell - 1, 0]
            assert plus + minus == pytest.approx(
                gauge * rank_hat_value(ell, [tau])[0], rel=hat_rel[ell])
            assert minus == pytest.approx(
                gauge * rank_minus_coeffs((ell,), [tau])[0, 0], rel=1e-13)
            assert completion_route_residual(tau, order=2 * ell + 2) < 1e-9


def test_nonholomorphic_routes_agree(tau_a, tau_b):
    for tau in (tau_a, tau_b):
        lat = rank_nonhol_lattice(tau)
        assert abs(lat - rank_nonhol_period(tau)) < 1e-12
        assert abs(lat - rank_nonhol_modes(tau)) < 1e-12
    # near the real axis both windows widen with 1/v; fixed ones fall short
    for v in (0.01, 0.02):
        for tau in (Tau(tau_a.u, v), Tau(tau_b.u, v)):
            lat = rank_nonhol_lattice(tau)
            assert abs(lat - rank_nonhol_modes(tau)) < 1e-14 * abs(lat)


def _hat_reference(ell, tau):
    return eval_qseries(rank_plus_series(ell, 400), tau) \
        + rank_minus_coeffs((ell,), [tau])[0, 0]


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_hat_value_matches_long_series(ell):
    # the derived truncation agrees with T = 400 from v = 2 down to 0.07,
    # where order 3 takes T = 320
    for v in (0.07, 0.1, 0.2, 0.5, 1.0, 2.0):
        tau = Tau(0.13, v)
        want = _hat_reference(ell, tau)
        assert abs(rank_hat_value(ell, [tau])[0] - want) <= 1e-15 * abs(want)


def test_hat_value_truncation_domain():
    tau = Tau(0.13, 0.05)
    want = _hat_reference(1, tau)
    assert abs(rank_hat_value(1, [tau])[0] - want) <= 1e-15 * abs(want)
    with pytest.raises(DomainError, match="tau"):
        rank_hat_value(3, [tau])
    # every Mobius image the samplers keep stays far inside the table, so
    # rank.transform's one call per point and order never raises for a
    # truncation
    for ell in (1, 2, 3):
        assert _plus_trunc(ell, Tau(0.0, IM_FLOOR)) <= 128


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_batch_values_equal_one_point_values(ell):
    # 13 points, v from 0.2 to 2, as a transform check's point and images:
    # the batch takes the cuts and windows of its smallest v, and its
    # S-columns sum their terms in lattice order, so every value equals
    # its one-point value bit for bit here (bound 1e-14 relative)
    batch = [Tau(round(-0.48 + 0.08 * i, 2), float(v))
             for i, v in enumerate(np.geomspace(0.2, 2.0, 13))]
    minus = lambda ell, ts: rank_minus_coeffs((ell,), ts)[0]  # noqa: E731
    for f in (minus, rank_hat_value):
        got = f(ell, batch)
        want = np.array([f(ell, [t])[0] for t in batch])
        assert (np.abs(got - want) <= 1e-14 * np.abs(want)).all()


def _images_of(tau, seed: int) -> list:
    """tau and its images under T, S and ten sampled matrices."""
    rng = random.Random(seed)
    gs = [GEN_T, GEN_S] + [sample_mobius(rng, tau) for _ in range(10)]
    return [tau] + [g.apply(tau) for g in gs]


@pytest.mark.parametrize("ells", [(1, 2, 3), (2,), (3, 1)])
def test_order_rows_equal_one_order_values(ells, tau_a):
    # every order at a point and its 12 images in one pass: each row equals
    # its order computed alone (bit for bit here; bound 1e-14 relative)
    points = _images_of(tau_a, 5)
    plus, minus = rank_hat_parts(ells, points)
    rows = rank_hat_rows(ells, points)
    assert rows.shape == (len(ells), 13)
    for ell, p, m, row in zip(ells, plus, minus, rows):
        (one_p,), (one_m,) = rank_hat_parts((ell,), points)
        for got, want in ((p, one_p), (m, one_m),
                          (row, rank_hat_value(ell, points))):
            assert (np.abs(got - want) <= 1e-14 * np.abs(want)).all()
    # the lowering law's values: one stencil pass for every order
    for got, ell in zip(lowering_values(ells, tau_a), ells):
        (want,) = lowering_values((ell,), tau_a)
        assert got[0] == want[0] == ell
        for a, b in zip(got[1:], want[1:]):
            assert abs(a - b) <= 1e-14 * abs(b)


def test_hat_parts_read_their_points_once(monkeypatch, tau_a, tau_b):
    # a list of points becomes an array once; the cut, the series values
    # and the nonholomorphic part are handed that array
    import mockmod.rank as rk
    import mockmod.special as sp

    real = sp.read_points
    raw = []

    def spy(tau):
        if not isinstance(tau, np.ndarray):
            raw.append(tau)
        return real(tau)

    for mod in (rk, sp):
        monkeypatch.setattr(mod, "read_points", spy)
    points = [tau_a, tau_b, GEN_S.apply(tau_a)]
    plus, minus = rk.rank_hat_parts((2,), points)
    assert raw == [points]
    assert plus.shape == minus.shape == (1, 3)


def test_transform_at_generators(tau_a):
    gs = (GEN_S, GEN_T, GEN_S @ GEN_T)
    for ell in (1, 2):
        base, *images = rank_hat_value(ell, [tau_a] + [g.apply(tau_a) for g in gs])
        for g, lhs in zip(gs, images):
            assert modular_law(g, base, lhs, tau_a, halves=4 * ell - 1,
                               psi=-1) < 1e-9


def test_lowering_adjudication_margins(tau_a):
    variants = lowering_variants(1, tau_a)
    assert variants["conjugate_plus"] < 1e-9
    # the rejected readings are wrong by orders of magnitude, not noise
    assert variants["conjugate_minus"] > 1e-3
    assert variants["plain_plus"] > 1e-3
    assert variants["plain_minus"] > 1e-3
    assert min(variants, key=variants.get) == "conjugate_plus"


def test_lowering_higher_order(tau_b):
    assert lowering_variants(3, tau_b)["conjugate_plus"] < 1e-8


def test_two_term_completion_collapse(tau_a, tau_b):
    for tau in (tau_a, tau_b):
        zs = (0.21 + 0.05j, -0.13 + 0.11j)
        for z, generic in zip(zs, generic_completion(zs, tau)):
            assert completion_collapse_residual(z, generic, eta_value(tau),
                                                tau) < 1e-12


def test_completion_jet_routes(tau_a):
    assert completion_route_residual(tau_a, order=7) < 1e-10


def test_completion_circle_modes(tau_a):
    assert completion_circle_residual(13, tau_a) < 1e-8


def test_completed_family_is_odd(tau_a):
    assert oddness_residual(tau_a) < 1e-12
    z = 0.11 + 0.04j
    lhs, rhs = completed_family_value([z, -z], tau_a)
    assert lhs == pytest.approx(-rhs, rel=1e-12)


def test_oddness_evaluates_each_circle_point_and_mirror_once(monkeypatch):
    import mockmod.rank as rk

    calls = []
    real = rk.completed_family_value

    def spy(zs, tau):
        calls.append([(z, tau) for z in zs])
        return real(zs, tau)

    monkeypatch.setattr(rk, "completed_family_value", spy)
    reports, code = run_suite(SuiteConfig(only=("rank.oddness",)))
    assert code == 0
    # one call per point, which reads E_2 and eta once
    assert len(calls) == 2
    # two points, sixteen circle samples, F(z) and F(-z) once each
    values = [value for call in calls for value in call]
    assert len(values) == 2 * 16 * 2
    assert len(set(values)) == len(values)


def test_two_term_value_matches_residue_class_sum(tau_a):
    z = 0.17 + 0.02j
    two = two_term_completion_value(z, tau_a)
    (classes,) = generic_completion([z], tau_a)
    assert classes == pytest.approx(-eta_value(tau_a) * two, rel=1e-13)


def test_single_mode_closed_form(tau_a, tau_b):
    # relative to the values themselves, also at k = 2, where they are
    # 2e-19 and 2e-30
    for tau in (tau_a, tau_b):
        for k in range(-2, 3):
            assert single_mode_identity_residual(k, tau) < 1e-12


def test_weight_three_halves_assembly(tau_a, tau_b):
    for tau in (tau_a, tau_b):
        res, parts = three_halves_residual(tau)
        assert res == max(parts.values())
        assert parts.pop("match") < 1e-12
        for gap in parts.values():
            assert gap < 1e-11


def test_weight_three_halves_nan_route_fails(monkeypatch):
    import mockmod.rank as rk
    monkeypatch.setattr(rk, "rank_nonhol_modes", lambda tau: complex("nan"))
    res, _ = three_halves_residual(TAU_FROZEN)
    assert math.isnan(res)


def test_nan_circle_value_fails_the_oddness_check(monkeypatch):
    import mockmod.rank as rk
    real = rk.completed_family_value

    def poisoned(zs, tau):
        out = real(zs, tau)
        out[3] = complex(math.nan)
        return out

    monkeypatch.setattr(rk, "completed_family_value", poisoned)
    (rep,), code = run_suite(SuiteConfig(only=("rank.oddness",)))
    assert code == 1
    assert math.isnan(rep.residual)


def test_nan_circle_value_fails_the_completion_circle_check(monkeypatch):
    import mockmod.rank as rk
    real = rk.appell_columns

    def poisoned(ell, z1s, z2s, taus, order):
        # the completion at one of the 32 circle points of each grid point
        a, comp = real(ell, z1s, z2s, taus, order)
        comp[np.asarray(z1s) == 0.1] = math.nan
        return a, comp

    monkeypatch.setattr(rk, "appell_columns", poisoned)
    (rep,), code = run_suite(SuiteConfig(only=("rank.completion-circle",)))
    assert code == 1
    assert math.isnan(rep.residual)
