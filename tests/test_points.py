"""The point contract: a point is a complex number in the upper half-plane,
a batch is any sequence or array of them, every kernel that takes points
refuses one with Im <= 0, and a kernel gives a Python number at one point
and an array at a batch."""
import numpy as np
import pytest

from mockmod import DomainError, GEN_S, joyce, rank
from mockmod.appell import appell_columns
from mockmod.exactq import eta_expansion
from mockmod.jets import gaussian_scale, rho_degeneracy_residual
from mockmod.joyce import joyce_hat_rows, theta_star_value
from mockmod.rank import rank_hat_rows
from mockmod.special import (e2_completed, e2_value, eta_value, eval_qseries,
                             lowering_numeric, period_integral,
                             series_trunc_for, single_mode_period, theta_value)


def _theta_null(nu):
    return lambda ts: -joyce.theta_block_deriv0(nu, 0, ts)


VALUES = {
    "theta_value": lambda ts: theta_value(0.1 + 0.05j, ts),
    "eta_value": eta_value,
    "e2_value": e2_value,
    "e2_completed": e2_completed,
    "eval_qseries": lambda ts: eval_qseries(eta_expansion(96), ts),
    "theta_star_value": lambda ts: theta_star_value(-1, 0.1 + 0.05j, ts),
    "gaussian_scale": lambda ts: gaussian_scale("psi", 4, ts),
    "gaussian_scale_rho": lambda ts: gaussian_scale("rho", -1.5, ts),
    # the kernels and residuals of the per-point checks, each reading every
    # point of a grid in one pass
    "lowering_numeric": lambda ts: lowering_numeric(eta_value, ts)[0],
    "period_integral": lambda ts: period_integral(eta_value, ts),
    "single_mode_period": lambda ts: single_mode_period(25.0 / 24.0, ts),
    "rho_degeneracy_residual": rho_degeneracy_residual,
    "rank_nonhol_lattice": rank.rank_nonhol_lattice,
    "rank_nonhol_period": rank.rank_nonhol_period,
    "rank_nonhol_modes": rank.rank_nonhol_modes,
    "rank_lowering_reference": lambda ts: rank.lowering_reference(
        2, eta_value(ts), e2_completed(ts), ts),
    "two_term_completion_value": lambda ts: rank.two_term_completion_value(
        0.1 + 0.05j, ts),
    "completion_route_residual": rank.completion_route_residual,
    "completion_circle_residual": lambda ts: rank.completion_circle_residual(
        13, ts),
    "oddness_residual": rank.oddness_residual,
    "three_halves_residual": lambda ts: rank.three_halves_residual(ts)[0],
    "single_mode_identity_residual": lambda ts:
        rank.single_mode_identity_residual(1, ts),
    "theta_block_deriv0": lambda ts: joyce.theta_block_deriv0(0, 2, ts),
    "theta_ln": lambda ts: joyce.theta_ln(3, -1, ts),
    "theta_ln_route_residual": lambda ts: joyce.theta_ln_route_residual(3, 0, ts),
    "s_nu_route_residual": lambda ts: joyce.s_nu_route_residual(-1, ts),
    "s_nu_lowering_residual": lambda ts: joyce.s_nu_lowering_residual(0, ts),
    "joyce_lowering_reference": lambda ts: joyce.lowering_reference_joyce(
        4, _theta_null(-1)(ts), _theta_null(0)(ts), ts),
}
KERNELS = {
    **VALUES,
    # the assembled rank and Joyce values: a row of order 2 or weight 4 of
    # the batched kernels, which give a row per order at one point too
    "rank_hat_value": lambda ts: rank_hat_rows((2,), ts)[0],
    "joyce_hat_value": lambda ts: joyce_hat_rows((4,), ts)[0],
    "series_trunc_for": lambda ts: series_trunc_for(ts, 24),
    "appell_columns": lambda ts: appell_columns(2, 0.1 + 0.05j, 0.2, ts, 2),
}
REFUSING = ("theta_value", "eta_value", "e2_value", "e2_completed",
            "eval_qseries", "series_trunc_for", "appell_columns",
            "rank_hat_value", "joyce_hat_value", "lowering_numeric",
            "period_integral", "single_mode_period", "rank_nonhol_lattice",
            "completion_route_residual", "oddness_residual",
            "three_halves_residual", "theta_ln", "s_nu_route_residual")


@pytest.mark.parametrize("name", REFUSING)
@pytest.mark.parametrize("bad", [0.1 - 0.5j, 0.3 + 0.0j])
def test_a_point_off_the_half_plane_is_refused(name, bad):
    with pytest.raises(DomainError):
        KERNELS[name](np.array([0.19 + 0.87j, bad]))


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_a_list_of_taus_reads_as_its_complex_array(name, tau_a, tau_b):
    taus = [tau_a, tau_b, GEN_S.apply(tau_a)]
    plain = np.array([complex(t.u, t.v) for t in taus])
    np.testing.assert_array_equal(KERNELS[name](taus), KERNELS[name](plain))


@pytest.mark.parametrize("name", sorted(VALUES))
def test_one_point_gives_a_python_number(name, tau_a):
    one, batch = VALUES[name](tau_a), VALUES[name]([tau_a])
    assert type(one) in (complex, float) and isinstance(batch, np.ndarray)
    assert one == batch[0]
    assert VALUES[name](complex(tau_a)) == one


def test_a_batch_of_values_at_one_point_keeps_every_entry(tau_a):
    # a law that takes values read at tau lists them in the shape rule: a
    # batch of values at one point gives one entry per value
    from mockmod.appell import moment_difference_readings

    etas = np.array([eta_value(tau_a), 0.5 + 0.25j, 1j])
    e2hat = e2_completed(tau_a)
    got = rank.lowering_reference(2, etas, e2hat, tau_a)
    assert got.shape == (3,)
    assert [rank.lowering_reference(2, e, e2hat, tau_a) for e in etas] \
        == got.tolist()
    nulls = np.array([_theta_null(-1)(tau_a), 0.3 - 0.1j])
    t3 = _theta_null(0)(tau_a)
    got = joyce.lowering_reference_joyce(4, nulls, t3, tau_a)
    assert [joyce.lowering_reference_joyce(4, t1, t3, tau_a) for t1 in nulls] \
        == got.tolist()
    gs = np.array([0.1 + 0.2j, 0.3, -0.2j])
    got = moment_difference_readings(1, gs, 0.4 + 0.1j, 0.05j, tau_a)
    assert got["negative-half-i-jet"].shape == (3,)
    assert [moment_difference_readings(1, g, 0.4 + 0.1j, 0.05j, tau_a)
            ["negative-half-i-jet"] for g in gs] \
        == got["negative-half-i-jet"].tolist()


def test_an_unlisted_batch_at_one_point_is_refused():
    # the point axis is the last of values and the first of Taylor columns
    # and jets; at one point it has one entry, and more means a batch came
    # in through an argument the kernel did not list
    from mockmod.core import points_out

    assert points_out(np.ones((2, 1)), 0.5j).shape == (2,)
    assert points_out(np.ones((1, 4)), 0.5j, axis=0).shape == (4,)
    assert points_out(np.ones(3), np.ones(2)).shape == (3,)
    with pytest.raises(DomainError):
        points_out(np.ones(3), 0.5j)
    with pytest.raises(DomainError):
        points_out(np.ones((3, 4)), 0.5j, axis=0)
