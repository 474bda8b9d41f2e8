"""The point contract: a point is a complex number in the upper half-plane,
a batch is any sequence or array of them, every kernel that takes points
refuses one with Im <= 0, and a kernel gives a Python number at one point
and an array at a batch."""
import numpy as np
import pytest

from mockmod import DomainError, GEN_S
from mockmod.appell import appell_columns
from mockmod.exactq import eta_expansion
from mockmod.jets import gaussian_scale
from mockmod.joyce import joyce_hat_rows, theta_star_value
from mockmod.rank import rank_hat_rows
from mockmod.special import (e2_completed, e2_value, eta_value, eval_qseries,
                             series_trunc_for, theta_value)

VALUES = {
    "theta_value": lambda ts: theta_value(0.1 + 0.05j, ts),
    "eta_value": eta_value,
    "e2_value": e2_value,
    "e2_completed": e2_completed,
    "eval_qseries": lambda ts: eval_qseries(eta_expansion(96), ts),
    "theta_star_value": lambda ts: theta_star_value(-1, 0.1 + 0.05j, ts),
    "gaussian_scale": lambda ts: gaussian_scale("psi", 4, ts),
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
            "rank_hat_value", "joyce_hat_value")


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
