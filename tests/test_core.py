import cmath
import math
import random

import pytest

from mockmod import (DomainError, GEN_S, GEN_T, IDENTITY, Mobius, Report, Tau,
                     principal_halfpower, relative_residual, theta_value)
from mockmod.core import (LATTICE_PEAK_GUARD, lattice_window, richardson,
                          sample_mobius, sample_tau, sample_z, worst_of)


def small_mobius(rng: random.Random) -> Mobius:
    while True:
        a = rng.randint(-5, 5)
        c = rng.randint(-5, 5)
        if c == 0:
            if abs(a) == 1:
                return Mobius(a, rng.randint(-5, 5), 0, a)
            continue
        if math.gcd(a, c) != 1:
            continue
        # extend the coprime column (a, c) to determinant one
        d = pow(a, -1, abs(c))
        b = (a * d - 1) // c
        return Mobius(a, b, c, d)


def test_tau_rejects_lower_half_plane():
    with pytest.raises(DomainError):
        Tau(0.3, -1.0)
    with pytest.raises(DomainError):
        Tau(0.3, 0.0)


def test_tau_is_a_complex_number():
    t = Tau(0.4, 1.1)
    assert isinstance(t, complex) and (t.u, t.v) == (0.4, 1.1)
    assert t == complex(0.4, 1.1) and hash(t) == hash(complex(0.4, 1.1))
    assert t != Tau(0.4, 1.2)
    # arithmetic leaves the validated type: a plain complex may leave the
    # half-plane
    for w in (t + 1.0, 2.0 * t, -t, t.conjugate(), t * t, 1.0 / t):
        assert type(w) is complex
    assert -t == complex(-0.4, -1.1)


def test_tau_q_magnitude():
    t = Tau(0.4, 1.1)
    assert abs(t.q) == pytest.approx(math.exp(-2.0 * math.pi * 1.1))


def test_mobius_determinant_validation():
    with pytest.raises(DomainError):
        Mobius(2, 0, 0, 1)


def test_mobius_group_structure():
    rng = random.Random(11)
    for _ in range(50):
        g = small_mobius(rng)
        h = small_mobius(rng)
        tau = sample_tau(rng)
        lhs = (g @ h).apply(tau)
        rhs = g.apply(h.apply(tau))
        assert abs(lhs - rhs) < 1e-12
        assert (g @ g.inverse()).entries() in ((1, 0, 0, 1), (-1, 0, 0, -1))


def test_j_factor_cocycle():
    rng = random.Random(7)
    for _ in range(50):
        g = small_mobius(rng)
        h = small_mobius(rng)
        tau = sample_tau(rng)
        lhs = (g @ h).j_factor(tau)
        rhs = g.j_factor(h.apply(tau)) * h.j_factor(tau)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_im_transformation_identity():
    rng = random.Random(3)
    for _ in range(30):
        tau = sample_tau(rng)
        g = sample_mobius(rng, tau)
        # Im(g tau) = v / |c tau + d|^2
        want = tau.v / abs(g.j_factor(tau)) ** 2
        assert abs(g.apply(tau).v - want) < 1e-14 * want


def test_generators():
    t = Tau(0.25, 1.5)
    assert GEN_T.apply(t) == pytest.approx(t + 1.0)
    assert GEN_S.apply(t) == pytest.approx(-1.0 / t)
    assert IDENTITY.j_factor(t) == 1.0


def test_principal_halfpower_square():
    rng = random.Random(5)
    for _ in range(100):
        w = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(w) < 1e-3:
            continue
        for tw in (-3, -1, 1, 3, 5):
            val = principal_halfpower(w, tw)
            assert val * val == pytest.approx(w ** tw, rel=1e-12)
            # branch pinned to the principal square root
            assert (principal_halfpower(w, 1).real > 0
                    or (principal_halfpower(w, 1).real == 0
                        and principal_halfpower(w, 1).imag >= 0))


def test_principal_halfpower_integer_weight():
    assert principal_halfpower(2.0 + 0.0j, 4) == pytest.approx(4.0)
    with pytest.raises(DomainError):
        principal_halfpower(0.0, 1)


def test_report_verdicts():
    assert Report("x", {}, 1e-9, 1e-6).verdict == "pass"
    assert Report("x", {}, 1e-3, 1e-6).verdict == "fail"
    assert Report("x", {}, math.inf, 1e-6).verdict == "fail"
    assert Report("x", {}, 0.0, 0.0).verdict == "pass"


def test_report_json_roundtrip():
    import json
    r = Report("law", {"ell": 2}, 1e-10, 1e-6)
    d = json.loads(json.dumps(r.to_dict()))
    assert d["check_id"] == "law"
    assert d["verdict"] == "pass"
    assert d["params"] == {"ell": 2}


def test_relative_residual_scales():
    assert relative_residual(1.0 + 1e-9, 1.0) == pytest.approx(1e-9)
    assert relative_residual(2e6 + 2.0, 2e6) == pytest.approx(1e-6)
    # no floor: values below 1 are compared relative to themselves
    assert relative_residual(2e-12, 1e-12) == pytest.approx(0.5)
    assert relative_residual(1e-20j, -1e-20j) == pytest.approx(2.0)
    # a scale above both sides takes the denominator; one below does not
    assert relative_residual(3e-12, 1e-12, 1.0) == pytest.approx(2e-12)
    assert relative_residual(3.0, 1.0, 1e-3) == pytest.approx(2.0 / 3.0)
    assert relative_residual(0.0, 0.0, 1.0) == 0.0


def test_relative_residual_is_symmetric():
    rng = random.Random(5)
    for _ in range(50):
        a, b = (complex(rng.gauss(0, 1), rng.gauss(0, 1))
                * 10.0 ** rng.randint(-30, 30) for _ in range(2))
        scale = rng.choice([0.0, abs(a), 10.0 ** rng.randint(-30, 30)])
        assert relative_residual(a, b, scale) \
            == relative_residual(b, a, scale)


def test_relative_residual_of_zero_against_zero_is_nan():
    # a law whose two sides and scale all vanish has shown nothing, and
    # worst_of makes the NaN a failed check
    assert math.isnan(relative_residual(0.0, 0.0))
    assert math.isnan(relative_residual(0j, -0j, 0.0))
    # a NaN scale fails the comparison too, whatever the two sides are
    assert math.isnan(relative_residual(1.0, 1.0, math.nan))
    assert math.isnan(worst_of([1e-15, relative_residual(0.0, 0.0)]))


def test_sampler_windows_and_determinism():
    r1 = random.Random(9)
    r2 = random.Random(9)
    for _ in range(25):
        t1 = sample_tau(r1)
        t2 = sample_tau(r2)
        assert (t1.u, t1.v) == (t2.u, t2.v)
        assert -0.5 <= t1.u <= 0.5
        assert 0.8 <= t1.v <= 2.0
        g = sample_mobius(r1, t1)
        assert g.entries() == sample_mobius(r2, t2).entries()
        a, b, c, d = g.entries()
        assert a * d - b * c == 1
        assert max(abs(a), abs(b), abs(c), abs(d)) <= 6
        assert g.apply(t1).v >= 0.2
    rz = random.Random(4)
    assert all(abs(sample_z(rz)) <= 0.4 * math.sqrt(2.0) for _ in range(50))


# The truncation rules that lattice_window replaced, kept verbatim as
# references: theta_value, the jets range (the theta column and
# zwegers_S_jet had the same rule), vartheta_nu_jet, the Appell sums, s_nu_tower and
# eta_value.  Each returns its half-width.

def old_theta_value(y, v):
    return int(math.ceil(abs(y) / v
                         + math.sqrt((y / v) ** 2 + 45.0 / (math.pi * v)))) + 2


def old_jets_range(y, v):
    return int(math.ceil(abs(y) / v + math.sqrt(45.0 / (math.pi * v)))) + 2


def old_vartheta(v):
    return int(math.ceil(math.sqrt(45.0 / (2.0 * math.pi * v)))) + 2


def old_appell(ell, y2, v):
    b = abs(y2) / (ell * v)
    return int(math.ceil(b + math.sqrt(b * b + 45.0 / (math.pi * ell * v)))) + 2


def old_s_nu_tower(v, depth):
    return int(math.ceil(math.sqrt(50.0 / (2.0 * math.pi * v)))) + 3 + depth


def old_eta(v):
    k_max = 2
    while 2.0 * math.pi * v * (6 * k_max - 5) ** 2 / 24.0 < 45.0:
        k_max += 1
    return k_max


def test_lattice_window_never_narrower_than_old_rules():
    two_pi = 2.0 * math.pi
    for v in [0.01 * 400.0 ** (i / 199.0) for i in range(200)]:
        assert lattice_window(two_pi * v) >= old_vartheta(v)
        for depth in (0, 3, 7):
            assert lattice_window(two_pi * v) + 1 + depth \
                >= old_s_nu_tower(v, depth)
        assert lattice_window(math.pi * v / 12.0) // 6 + 2 >= old_eta(v)
        # |y| from 0 up to the guard pi y^2 / v = 600
        y_top = math.sqrt(LATTICE_PEAK_GUARD * v / math.pi)
        for y in [y_top * min(j / 40.0, 1.0 - 1e-9) for j in range(41)]:
            for sy in (y, -y):
                n = lattice_window(math.pi * v, two_pi * abs(sy))
                assert n >= old_theta_value(sy, v)
                assert n >= old_jets_range(sy, v)
                for ell in (1, 2, 3):
                    assert lattice_window(math.pi * ell * v, two_pi * abs(sy)) \
                        >= old_appell(ell, sy, v)


def test_lattice_window_guard():
    for v in (0.05, 0.8, 3.0):
        # the guard is pi y^2 / v = 600 for a theta-type sum
        y = math.sqrt(LATTICE_PEAK_GUARD * v / math.pi)
        lattice_window(math.pi * v, 2.0 * math.pi * y * (1.0 - 1e-9))
        with pytest.raises(DomainError):
            lattice_window(math.pi * v, 2.0 * math.pi * y * (1.0 + 1e-9))
        with pytest.raises(DomainError):
            theta_value(complex(0.1, y * (1.0 + 1e-9)), Tau(0.2, v))
    for curvature in (0.0, -1.0):
        with pytest.raises(DomainError):
            lattice_window(curvature)


def test_richardson_eliminates_low_orders():
    # cubic with all low powers present: four halving samples kill it
    vals = [1.0 + h + h * h / 2 + h ** 3 / 6 for h in (0.4, 0.2, 0.1, 0.05)]
    extrap, err = richardson(vals)
    assert abs(extrap - 1.0) < 1e-12
    # a genuinely infinite expansion: estimate bounds the true error
    vals = [math.exp(h) for h in (0.4, 0.2, 0.1, 0.05)]
    extrap, err = richardson(vals)
    assert abs(extrap - 1.0) < 1e-4
    assert abs(extrap - 1.0) <= 10.0 * err + 1e-12
