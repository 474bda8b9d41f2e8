import math

import pytest

from mockmod import DomainError, GEN_S, GEN_T, Tau
from mockmod.rank import (DEFAULT_TRUNC, check_rank_lowering,
                          check_rank_transform, check_weight_three_halves,
                          combination_series, completed_family_value,
                          completion_circle_residual,
                          completion_collapse_residual,
                          completion_route_residual, oddness_residual,
                          rank_hat_value, rank_minus_coeff, rank_minus_jet,
                          rank_nonhol_lattice, rank_nonhol_modes,
                          rank_nonhol_period, rank_plus_series,
                          single_mode_identity_residual,
                          two_term_completion_value)
from mockmod.special import eval_qseries

TAU_FROZEN = Tau(0.19, 0.87)

# frozen against this module's first validated build; guards regressions
RANK_MINUS_FROZEN = -0.11928243087282403 + 0.005886932975993433j
RANK_HAT_FROZEN = -0.02099940321164251 - 0.013582884717440916j


def coeff_map(s):
    return {s.offset + i: c for i, c in enumerate(s.coeffs) if c}


def test_frozen_values():
    assert rank_minus_coeff(1, TAU_FROZEN) == pytest.approx(RANK_MINUS_FROZEN,
                                                            abs=1e-14)
    assert rank_hat_value(1, TAU_FROZEN) == pytest.approx(RANK_HAT_FROZEN,
                                                          abs=1e-14)


def test_ell_validation():
    with pytest.raises(DomainError):
        rank_plus_series(0)
    with pytest.raises(DomainError):
        rank_hat_value(-1, TAU_FROZEN)


def test_plus_series_dual_route():
    # the literal three-term combination equals the general-ell assembly
    assert coeff_map(combination_series(80)) == coeff_map(rank_plus_series(1, 80))


def test_assembly_splits_into_plus_and_minus(tau_a):
    # in the raw normalization the assembled value times (2 pi i)^(2l-1) is
    # the exact-series value plus the bare (2l-1, 0) single-term coefficient
    for ell in (1, 2):
        gauge = (2j * math.pi) ** (2 * ell - 1)
        plus = gauge * eval_qseries(rank_plus_series(ell, DEFAULT_TRUNC), tau_a)
        minus = rank_minus_jet(tau_a, 2 * ell).coeff(2 * ell - 1, 0)
        assert plus + minus == pytest.approx(
            gauge * rank_hat_value(ell, tau_a), rel=1e-13)
        assert minus == pytest.approx(
            gauge * rank_minus_coeff(ell, tau_a), rel=1e-13)
        assert completion_route_residual(tau_a, order=2 * ell + 2) < 1e-9


def test_nonholomorphic_routes_agree(tau_a, tau_b):
    for tau in (tau_a, tau_b):
        lat = rank_nonhol_lattice(tau)
        assert abs(lat - rank_nonhol_period(tau)) < 1e-12
        assert abs(lat - rank_nonhol_modes(tau)) < 1e-12


def test_transform_at_generators(tau_a):
    for ell in (1, 2):
        for g in (GEN_S, GEN_T, GEN_S @ GEN_T):
            rep = check_rank_transform(ell, g, tau_a)
            assert rep.verdict == "pass"
            assert rep.residual < 1e-9


def test_lowering_adjudication_margins(tau_a):
    rep = check_rank_lowering(1, tau_a)
    variants = rep.params["variants"]
    assert variants["conjugate_plus"] < 1e-9
    # the rejected readings are wrong by orders of magnitude, not noise
    assert variants["conjugate_minus"] > 1e-3
    assert variants["plain_plus"] > 1e-3
    assert variants["plain_minus"] > 1e-3
    assert rep.params["variant"] == "conjugate_plus"


def test_lowering_higher_order(tau_b):
    rep = check_rank_lowering(3, tau_b)
    assert rep.residual < 1e-8


def test_two_term_completion_collapse(tau_a, tau_b):
    for tau in (tau_a, tau_b):
        for z in (0.21 + 0.05j, -0.13 + 0.11j):
            assert completion_collapse_residual(z, tau) < 1e-12


def test_completion_jet_routes(tau_a):
    assert completion_route_residual(tau_a, order=7) < 1e-10


def test_completion_circle_modes(tau_a):
    assert completion_circle_residual(tau_a, order=13) < 1e-8


def test_completed_family_is_odd(tau_a):
    assert oddness_residual(tau_a) < 1e-12
    z = 0.11 + 0.04j
    lhs = completed_family_value(z, tau_a)
    rhs = -completed_family_value(-z, tau_a)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_two_term_value_matches_residue_class_sum(tau_a):
    from mockmod.appell import appell_completion_term
    from mockmod.special import eta_value
    z = 0.17 + 0.02j
    two = two_term_completion_value(z, tau_a)
    classes = 0.5j * sum(appell_completion_term(3, nu, z, 0.0j, tau_a)
                         for nu in range(3))
    assert classes == pytest.approx(-eta_value(tau_a) * two, rel=1e-13)


def test_single_mode_closed_form(tau_a, tau_b):
    for tau in (tau_a, tau_b):
        for k in range(-2, 3):
            assert single_mode_identity_residual(k, tau) < 1e-12


def test_weight_three_halves_assembly(tau_a, tau_b):
    for tau in (tau_a, tau_b):
        rep = check_weight_three_halves(tau)
        assert rep.verdict == "pass"
        assert rep.params["match_residual"] < 1e-12
        for gap in rep.params["route_gaps"].values():
            assert gap < 1e-11


def test_weight_three_halves_nan_route_fails(monkeypatch):
    import mockmod.rank as rk
    monkeypatch.setattr(rk, "rank_nonhol_modes", lambda tau: complex("nan"))
    rep = check_weight_three_halves(TAU_FROZEN)
    assert math.isnan(rep.residual)
    assert rep.verdict == "fail"
