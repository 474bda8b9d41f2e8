import cmath
import math
import random

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mockmod import GEN_S, IDENTITY, Mobius, Tau, eta_value, theta_value
from mockmod.appell import appell_index
from mockmod.jets import (THETA_POWER, column_times, exp_column,
                          gaussian_columns, gaussian_scale, recombined_rows,
                          rho_degeneracy_residual, theta_columns,
                          theta_power_taylor, triangle, vartheta_nu_column,
                          zwegers_S_columns, zwegers_S_jet)
from mockmod.core import TWO_PI, relative_residual, sample_mobius, sample_tau
from mockmod.exactq import theta_q_expansion
from mockmod.rank import RANK_INDEX
from mockmod.special import (THETA_INDEX, _gauss_E_poly, e2_value,
                             eval_qseries, modular_law, series_trunc_for)

# the index of the eighth theta power, power times theta's own
THETA8_INDEX = THETA_POWER * THETA_INDEX[0][0]


def random_column(rng: random.Random, order: int) -> np.ndarray:
    return np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                     for _ in range(order + 1)])


def random_jet(rng: random.Random, order: int) -> np.ndarray:
    j = np.zeros((order + 1, order + 1), dtype=complex)
    for a in range(order + 1):
        for b in range(order + 1 - a):
            j[a, b] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return j


def jet_eval(j: np.ndarray, z: complex) -> complex:
    zb = z.conjugate()
    return sum(j[a, b] * z ** a * zb ** b
               for a in range(len(j)) for b in range(len(j) - a))


def column_eval(col, z: complex) -> complex:
    return sum(c * z ** p for p, c in enumerate(col))


def test_jet_ring_axioms():
    # columns act on jets: associative with the column product,
    # commutative between columns, distributive over jet sums
    rng = random.Random(1)
    for _ in range(10):
        a, b = random_column(rng, 4), random_column(rng, 4)
        j, k = random_jet(rng, 4), random_jet(rng, 4)
        ab = column_times(a, column_times(b, j))
        assert np.allclose(ab, column_times(np.convolve(a, b), j))
        assert np.allclose(ab, column_times(b, column_times(a, j)))
        assert np.allclose(column_times(a, j + k),
                           column_times(a, j) + column_times(a, k))


def wirtinger(jet: np.ndarray, axis: int) -> np.ndarray:
    """d/dz (axis 0) or d/d(conj z) (axis 1) of a jet; drops one order."""
    n = len(jet) - 1
    out = np.zeros((n, n), dtype=complex)
    for a in range(n):
        for b in range(n - a):
            step = (a + 1, b) if axis == 0 else (a, b + 1)
            out[a, b] = step[axis] * jet[step]
    return out


def test_wirtinger_derivatives_leibniz():
    rng = random.Random(7)
    col = random_column(rng, 5)
    jet = random_jet(rng, 5)
    prod = column_times(col, jet)
    dcol = np.arange(1, 6) * col[1:]
    lhs = wirtinger(prod, 0)
    rhs = column_times(dcol, jet[:5, :5]) + column_times(col, wirtinger(jet, 0))
    assert np.allclose(lhs, rhs)
    # a holomorphic factor passes through d/d(conj z)
    assert np.allclose(wirtinger(prod, 1), column_times(col, wirtinger(jet, 1)))


def test_exp_builders():
    c = 0.3 - 0.8j
    jq = gaussian_columns(c, 8)
    assert jq[0] == pytest.approx(1.0)
    assert jq[2] == pytest.approx(c)
    assert jq[4] == pytest.approx(c * c / 2.0)
    assert jq[3] == pytest.approx(0.0)
    jl = exp_column([1.0], [c], 6)
    assert jl[3] == pytest.approx(c ** 3 / 6.0)


@pytest.mark.parametrize("order", [0, 1, 7, 13])
def test_exp_column_jet_matches_jet_exp(order):
    # each column entry against sum_t w_t f_t^p / p! in 40-digit arithmetic
    rng = random.Random(order)
    freqs = np.array([complex(rng.uniform(-9, 9), rng.uniform(-9, 9))
                      for _ in range(6)])
    weights = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                        for _ in range(6)])
    got = exp_column(weights, freqs, order)
    assert got.shape == (order + 1,)
    with mp.workdps(40):
        for p in range(order + 1):
            want = complex(mp.fsum(mp.mpc(w) * mp.mpc(f) ** p
                                   for w, f in zip(weights, freqs))
                           / mp.factorial(p))
            assert abs(got[p] - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("c", [0.3 - 0.8j, -2.5 + 1.5j])
def test_exp_jets_match_point_values(c):
    # closed-form columns against cmath.exp; truncation ~ |c z|^14 / 14!,
    # below 1e-16 for |c z| <= 0.41
    for z in (0.1 + 0.05j, -0.12j, 0.14):
        lin = exp_column([1.0], [c], 13)
        quad = gaussian_columns(c, 13)
        assert column_eval(lin, z) == pytest.approx(cmath.exp(c * z), rel=1e-14)
        assert column_eval(quad, z) == pytest.approx(cmath.exp(c * z * z),
                                                     rel=1e-14)


def test_theta_arg_jet_matches_point_values(tau_a):
    base = 0.13 + 0.07j
    col = theta_columns([base], tau_a, 10)[0]
    for dz in (0.05 + 0.02j, -0.08j):
        got = column_eval(col, dz)
        want = theta_value(base + dz, tau_a)
        assert got == pytest.approx(want, rel=1e-10)


def test_theta_jet_heat_equation(tau_a):
    # 4 pi i d(theta)/d(tau) = d^2(theta)/dz^2, checked on jet columns
    h = 1e-6
    up = theta_columns([0.11 + 0.04j], (tau_a + h), 6)[0]
    dn = theta_columns([0.11 + 0.04j], (tau_a - h), 6)[0]
    col = theta_columns([0.11 + 0.04j], tau_a, 6)[0]
    for p in range(4):
        dtau = (up[p] - dn[p]) / (2.0 * h)
        dzz = (p + 2) * (p + 1) * col[p + 2]
        assert 4j * math.pi * dtau == pytest.approx(dzz, rel=2e-5)


def test_vartheta_jet_value_matches_blocks(tau_a):
    for nu, kind, den in ((-1, "vartheta_minus", 1), (0, "vartheta_zero", 4)):
        col = vartheta_nu_column(nu, tau_a, 4)
        series = theta_q_expansion(kind, series_trunc_for(tau_a, den))
        assert col[0] == pytest.approx(eval_qseries(series, tau_a), rel=1e-13)


def test_zwegers_S_jet_against_finite_differences(tau_a):
    # S is not holomorphic: a real step sees c10 + c01, an imaginary step
    # sees c10 - c01; recombine to isolate each Wirtinger column
    base = 0.21 + 0.09j
    jet = zwegers_S_jet(base, tau_a, 2)
    h = 1e-5
    up, dn, up_i, dn_i = zwegers_S_columns(
        [base + h, base - h, base + 1j * h, base - 1j * h], tau_a, 0)[:, 0]
    fd_r = (up - dn) / (2.0 * h)
    fd_i = (up_i - dn_i) / (2j * h)
    assert jet[1, 0] == pytest.approx((fd_r + fd_i) / 2.0, rel=1e-7)
    assert jet[0, 1] == pytest.approx((fd_r - fd_i) / 2.0, rel=1e-6)


def schoolbook_product(col: np.ndarray, jet: np.ndarray) -> np.ndarray:
    """Reference column-times-jet product: the plain double sum over the
    column and the jet triangle."""
    n = len(jet) - 1
    out = np.zeros((n + 1, n + 1), dtype=complex)
    for p in range(n + 1):
        for j in range(n + 1 - p):
            for k in range(n + 1 - p - j):
                out[p + j, k] += col[p] * jet[j, k]
    return out


@pytest.mark.parametrize("orders", [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4),
                                    (5, 5), (6, 6), (7, 7), (13, 13),
                                    (13, 7), (2, 13), (1, 0)],
                         ids=lambda o: f"{o[0]}x{o[1]}")
def test_jet_product_matches_schoolbook(orders):
    # a column of order A times a jet of order B is known to order
    # min(A, B); the jet's entries past that triangle are not read
    rng = random.Random(sum(orders))
    col = random_column(rng, orders[0])
    jet = random_jet(rng, orders[1])
    n = min(orders)
    want = schoolbook_product(col, np.where(triangle(n), jet[:n + 1, :n + 1], 0))
    got = column_times(col[:n + 1], jet[:n + 1, :n + 1])
    assert got.shape == (n + 1, n + 1)
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= 1e-14 * scale


def test_jet_product_reads_only_the_triangle():
    col = random_column(random.Random(5), 4)
    jet = random_jet(random.Random(6), 4)
    junk = jet.copy()
    junk[4, 4], junk[3, 2], junk[1, 4] = 1e300, np.inf, np.nan
    assert np.array_equal(column_times(col, junk), column_times(col, jet))
    out = column_times(col, jet)
    assert not np.any(out[~triangle(4)])
    assert not triangle(4).flags.writeable


def per_term_S_jet(base: complex, lattice: complex, order: int) -> np.ndarray:
    """Reference S-jet: one flat jet and one column-times-jet product per
    lattice term, the construction that ``zwegers_S_jet`` vectorizes.  The
    order-0 term sgn - E(a0) = sgn erfc(sgn sqrt(pi) a0) and its
    exponential come from 30-digit mpmath, whose exponent range cannot
    overflow."""
    vp = lattice.imag
    y0 = base.imag
    n_max = int(math.ceil(abs(y0) / vp + math.sqrt(45.0 / (math.pi * vp)))) + 2
    beta = -1j / math.sqrt(2.0 * vp)
    gamma = 1j / math.sqrt(2.0 * vp)
    facs = [math.factorial(p) for p in range(order + 1)]
    out = np.zeros((order + 1, order + 1), dtype=complex)
    n = -n_max
    while n + 0.5 <= n_max:
        nn = n + 0.5
        sgn = 1.0 if nn > 0 else -1.0
        parity = 1.0 if n % 2 == 0 else -1.0
        a0 = (nn + y0 / vp) * math.sqrt(2.0 * vp)
        hol_exp = -1j * math.pi * nn * nn * lattice - TWO_PI * 1j * nn * base
        flat = np.zeros((order + 1, order + 1), dtype=complex)
        with mp.workdps(30):
            flat[0, 0] = complex(
                sgn * mp.erfc(sgn * mp.sqrt(mp.pi) * a0) * mp.exp(hol_exp))
        w_pair = cmath.exp(hol_exp - math.pi * a0 * a0)
        for m in range(1, order + 1):
            pm = 0.0
            for c in reversed(_gauss_E_poly(m)):
                pm = pm * a0 + c
            for j in range(m + 1):
                k = m - j
                flat[j, k] += (-pm * (beta ** j) * (gamma ** k)
                               / (facs[j] * facs[k])) * w_pair
        hol = [(-TWO_PI * 1j * nn) ** p / facs[p] for p in range(order + 1)]
        out += parity * schoolbook_product(hol, flat)
        n += 1
    return out


@pytest.mark.parametrize("order", [0, 1, 7])
@pytest.mark.parametrize("base,lattice", [
    (0.21 + 0.09j, 0.19 + 0.87j),
    (-0.7 + 0.9j, 0.3 + 0.8j),
    (0.0j, 0.25 + 0.3j),
    # pi (Im w)^2 / v' = 543, close to the 600 guard on either side
    (0.3 + 9.3j, 0.2 + 0.5j),
    (0.1 - 9.3j, -0.3 + 0.5j),
])
def test_zwegers_S_jet_matches_per_term_loop(base, lattice, order):
    want = per_term_S_jet(base, lattice, order)
    got = zwegers_S_jet(base, lattice, order)
    assert got.shape == (order + 1, order + 1)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    (value,) = zwegers_S_columns([base], lattice, 0)[:, 0]
    assert value == pytest.approx(want[0, 0], rel=1e-13)
    # the point value is the order-0 jet coefficient; the two sum their
    # terms in different orders, so they agree to a few ulps
    assert abs(value - zwegers_S_jet(base, lattice, 0)[0, 0]) \
        <= 1e-15 * abs(value)


def recombination_gap(chis, a, want, n, tau, power=2):
    """The residual of the weight power/2 + n law of row n under the
    identity matrix with image row ``want``: the gap between the recombined
    row n of ``chis`` and ``want``, over the term scale."""
    rows, scale = recombined_rows(chis, a)
    return modular_law(IDENTITY, rows[n], want, tau, halves=power + 2 * n,
                       scale=scale[n])


def test_gaussian_completed_coeffs_by_hand(tau_a):
    # coefficient n of f(z) exp(a z^2) is sum_j a^j / j! chis[n - 2j]
    chis = [1.0, 2.0, 3.0, 4.0, 5.0]
    a = 0.5 + 0.25j
    by_hand = [1.0, 2.0, 3.0 + a * 1.0, 4.0 + a * 2.0]
    for n, want in enumerate(by_hand):
        assert recombination_gap(chis, a, want, n, tau_a) <= 1e-15
        assert recombination_gap(chis, a, want + 1e-6, n, tau_a) > 1e-8


def test_theta_power_taylor_vanishing_order(tau_a):
    chis = theta_power_taylor(8, tau_a, 10)
    # the first surviving coefficient is theta'(0)^8 = (2 pi)^8 eta^24
    want = (-2.0 * math.pi * eta_value(tau_a) ** 3) ** 8
    assert chis[8] == pytest.approx(want, rel=1e-11)
    for n in range(8):
        assert abs(chis[n]) < 1e-11 * abs(chis[8])


def test_completions_at_vanishing_order_are_bare(tau_a):
    # below z^8 the eighth theta power vanishes, so both recombined rows
    # at n = 8 are the bare coefficient
    chis = theta_power_taylor(8, tau_a, 9)
    for kind in ("psi", "rho"):
        a = gaussian_scale(kind, THETA8_INDEX, tau_a)
        assert recombination_gap(chis, a, chis[8], 8, tau_a, power=8) < 1e-12
        assert recombination_gap(chis, a, 1.001 * chis[8], 8, tau_a,
                                 power=8) > 1e-4


def test_completed_rows_transform(tau_a):
    points = [tau_a, GEN_S.apply(tau_a)]
    chis = theta_power_taylor(8, points, 11)
    for kind in ("psi", "rho"):
        (row, row_im), (scale, _) = recombined_rows(
            chis, gaussian_scale(kind, THETA8_INDEX, points))
        for n in (8, 9, 10):
            assert modular_law(GEN_S, row[n], row_im[n], tau_a,
                               halves=8 + 2 * n, scale=scale[n]) < 1e-12


def two_variable_theta_power(power: int, lattice: complex, top: int) -> list:
    """Reference theta power: the theta column lifted to a triangle jet and
    multiplied by the column ``power`` - 1 times with ``column_times``,
    apart from the Toeplitz products of ``theta_power_taylor``."""
    col = theta_columns([0.0], lattice, top)[0]
    acc = np.zeros((top + 1, top + 1), dtype=complex)
    acc[:, 0] = col
    for _ in range(power - 1):
        acc = column_times(col, acc)
    assert np.all(acc[:, 1:] == 0.0)
    return acc[:, 0].tolist()


# tau_a and its image under (2 1; 3 2), at v = 0.065
@pytest.mark.parametrize("lattice", [
    0.19 + 0.87j, Mobius(2, 1, 3, 2).apply(Tau(0.19, 0.87))],
    ids=["standard", "low-v-image"])
@pytest.mark.parametrize("power", range(1, 9))
def test_theta_power_taylor_matches_jet_products(power, lattice):
    for top in range(14):
        got = theta_power_taylor(power, lattice, top)
        want = two_variable_theta_power(power, lattice, top)
        assert len(got) == top + 1
        scale = max(abs(c) for c in want)
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-14 * scale


def test_batched_theta_power_rows_equal_one_lattice_rows(tau_a):
    # tau and twelve images drawn as the Taylor checks draw them, one window
    # for the batch: each row against its own one-lattice row
    rng = random.Random(25)
    gammas = [GEN_S, Mobius(1, 1, 0, 1)] \
        + [sample_mobius(rng, tau_a) for _ in range(10)]
    points = [tau_a] + [g.apply(tau_a) for g in gammas]
    rows = theta_power_taylor(8, points, 13)
    assert rows.shape == (13, 14)
    for lattice, row in zip(points, rows):
        one = theta_power_taylor(8, lattice, 13)
        assert one.shape == (14,)
        assert np.abs(row - one).max() <= 1e-14 * np.abs(one).max()


def test_gaussian_batch_rows_equal_one_number_columns():
    a = np.array([0.3 - 0.8j, -2.5 + 1.5j, 4.1, 0.0])
    cols = gaussian_columns(a, 9)
    assert cols.shape == (4, 10)
    for c, col in zip(a, cols):
        assert np.array_equal(col, gaussian_columns(c, 9))


# each family's index, the lattice its gauge is read on, and the exponent it
# must give, with the relative bound (0.0: bit for bit)
FAMILY_GAUGES = {
    # rank: the z-index -3/2 of Ahat_3(z, 0) gives -pi^2 E2 / 2
    "rank": ("rho", RANK_INDEX, lambda ts: ts,
             lambda ts: -math.pi ** 2 * e2_value(ts) / 2.0, 1e-15),
    # crank: the level-1 Appell index -1/2 gives -pi^2 E2 / 6
    "crank": ("rho", appell_index(1)[0][0], lambda ts: ts,
              lambda ts: -math.pi ** 2 * e2_value(ts) / 6.0, 1e-15),
    # Joyce blocks: theta's index on their lattice 2 tau gives pi / (4v)
    "joyce": ("psi", THETA_INDEX[0][0], lambda ts: 2.0 * ts,
              lambda ts: math.pi / (4.0 * ts.imag), 0.0),
    # the eighth theta power: index 4 gives (4 pi^2 / 3) E2
    "theta8": ("rho", THETA8_INDEX, lambda ts: ts,
               lambda ts: 4.0 * math.pi ** 2 / 3.0 * e2_value(ts), 1e-15),
}


@pytest.mark.parametrize("family", sorted(FAMILY_GAUGES))
def test_gaussian_scale_at_each_family_index(family, tau_a, tau_b):
    kind, index, lattice, want, rtol = FAMILY_GAUGES[family]
    rng = random.Random(33)
    ts = np.array([complex(tau_a), complex(tau_b)]
                  + [complex(sample_tau(rng)) for _ in range(20)])
    got = gaussian_scale(kind, index, lattice(ts))
    if rtol:
        assert relative_residual(got, want(ts)).max() <= rtol
    else:
        assert np.array_equal(got, want(ts))
    # one point gives its entry of the batch, as a number
    one = gaussian_scale(kind, index, lattice(ts[0]))
    assert np.ndim(one) == 0 and one == got[0]


def test_every_family_reads_its_gauge_from_gaussian_scale(monkeypatch, tau_a):
    import sys
    from mockmod import appell, jets, joyce, rank

    tz = complex(tau_a)
    calls = {
        "gauge_column": lambda: rank.gauge_column(np.array([tz]), 4),
        "completed_family_value": lambda: rank.completed_family_value(
            0.1 + 0.05j, tz),
        "theta_ln": lambda: joyce.theta_ln(3, -1, tz),
        "theta_star_value": lambda: joyce.theta_star_value(-1, 0.2, tz),
        "completed_moments": lambda: appell.completed_moments((1, 2), tz)[0],
        "rho_degeneracy_residual": lambda: jets.rho_degeneracy_residual(tz),
    }
    before = {name: np.asarray(call()) for name, call in calls.items()}
    real = jets.gaussian_scale
    bound = [name for name, module in sorted(sys.modules.items())
             if name.startswith("mockmod")
             and getattr(module, "gaussian_scale", None) is real]
    assert bound == ["mockmod.appell", "mockmod.jets", "mockmod.joyce",
                     "mockmod.rank"]
    for name in bound:
        monkeypatch.setattr(sys.modules[name], "gaussian_scale",
                            lambda *args: real(*args) + 1e-3)
    for name, call in calls.items():
        assert not np.array_equal(np.asarray(call()), before[name]), name


def test_rho_row_ten_degenerates(tau_a, tau_b):
    # chi_10 = -(4 pi^2 / 3) E2 chi_8 makes the tenth recombined row vanish
    assert rho_degeneracy_residual(tau_a) < 1e-12
    chis = theta_power_taylor(8, tau_b, 10)
    want = -(4.0 * math.pi ** 2 / 3.0) * e2_value(tau_b) * chis[8]
    assert chis[10] == pytest.approx(want, rel=1e-12)


def test_taylor_checks_compute_coefficients_once_per_point_and_image(
        monkeypatch):
    import mockmod.jets as jt
    from mockmod.harness import SuiteConfig, run_suite

    calls = []
    real = jt.theta_power_taylor

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(jt, "theta_power_taylor", spy)
    reports, code = run_suite(SuiteConfig(
        only=("theta.taylor-psi", "theta.taylor-rho")))
    assert code == 0
    for rep in reports:
        assert rep.params["cases"] == 180
        assert sorted(rep.params["rows"], key=int) == [str(n)
                                                       for n in range(8, 13)]
    # two checks, each with its three points and their twelve images in one
    # call
    assert [len(lattices) for _, lattices, _ in calls] == [3 * (1 + 12)] * 2
