"""Level-ell Appell sums, their nonholomorphic completions, and jet
extraction in the elliptic variable.

The basic object is

    A_ell(z1, z2; tau) = e^(pi i ell z1) * sum over n in Z of
        (-1)^(ell n) e^(2 pi i n z2) q^(ell n (n+1)/2)
        / (1 - e^(2 pi i z1) q^n),

meromorphic in z1 with simple poles on the lattice Z tau + Z.  The
completion adds one nonholomorphic theta x period-sum product per residue
class modulo ell and transforms like a two-variable Jacobi form of weight
one.  Negative-index denominators are folded so that no intermediate
quantity grows faster than the final term size.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .core import (DomainError, Mobius, Tau, accumulate, lattice_window,
                   relative_residual, richardson, TWO_PI)
from .jets import (Jet, exp_column_jet, exp_linear_jet, theta_arg_jet,
                   zwegers_S_jet, zwegers_S_value)
from .special import theta_value

_POLE_TOL = 1e-12


def _pole_distance(z1: complex, tau: Tau) -> float:
    """Distance of z1 from the lattice Z tau + Z, in lattice coordinates."""
    lam = z1.imag / tau.v
    mu = z1.real - lam * tau.u
    return math.hypot(lam - round(lam), mu - round(mu))


def appell_A(ell: int, z1: complex, z2: complex, tau: Tau,
             precision: str = "f64") -> complex:
    """The level-ell Appell sum; raises on z1 within 1e-6 of a pole."""
    if ell < 1:
        raise DomainError("level must be a positive integer")
    if _pole_distance(z1, tau) < 1e-6:
        raise DomainError("z1 too close to the pole lattice")
    n_max = lattice_window(math.pi * ell * tau.v, TWO_PI * abs(z2.imag))
    w1 = cmath.exp(TWO_PI * 1j * z1)
    terms = []
    for n in range(-n_max, n_max + 1):
        sign = -1.0 if (ell * n) % 2 else 1.0
        top = TWO_PI * 1j * (n * z2 + 0.5 * ell * n * (n + 1) * tau.z)
        if n >= 0:
            den = 1.0 - w1 * cmath.exp(TWO_PI * 1j * n * tau.z)
            terms.append(sign * cmath.exp(top) / den)
        else:
            # fold: 1/(1 - w q^n) = -w^{-1} q^{-n} / (1 - w^{-1} q^{-n})
            den = 1.0 - cmath.exp(TWO_PI * 1j * (-z1 - n * tau.z))
            terms.append(-sign * cmath.exp(top - TWO_PI * 1j * (z1 + n * tau.z)) / den)
    return cmath.exp(1j * math.pi * ell * z1) * accumulate(terms, precision)


def appell_completion_term(ell: int, nu: int, z1: complex, z2: complex,
                           tau: Tau) -> complex:
    """One residue-class term of the completion:
    e^(2 pi i nu z1) theta(z2 + nu tau + (ell-1)/2; ell tau)
    S(ell z1 - z2 - nu tau - (ell-1)/2; ell tau)."""
    shift = nu * tau.z + (ell - 1) / 2.0
    lat = ell * tau.z
    return (cmath.exp(TWO_PI * 1j * nu * z1)
            * theta_value(z2 + shift, Tau.from_complex(lat))
            * zwegers_S_value(ell * z1 - z2 - shift, lat))


def appell_hat(ell: int, z1: complex, z2: complex, tau: Tau,
               precision: str = "f64") -> complex:
    """Completed Appell sum: A_ell plus (i/2) times the residue-class sum."""
    comp = [appell_completion_term(ell, nu, z1, z2, tau) for nu in range(ell)]
    return appell_A(ell, z1, z2, tau, precision) \
        + 0.5j * accumulate(comp, precision)


# ---------------------------------------------------------------------------
# jets in the second elliptic variable
# ---------------------------------------------------------------------------


def appell_A_z2_jet(ell: int, z1: complex, base_z2: complex, tau: Tau,
                    order: int) -> Jet:
    """Jet of z -> A_ell(z1, base_z2 + z; tau)."""
    if ell < 1:
        raise DomainError("level must be a positive integer")
    if _pole_distance(z1, tau) < 1e-6:
        raise DomainError("z1 too close to the pole lattice")
    n_max = lattice_window(math.pi * ell * tau.v, TWO_PI * abs(base_z2.imag))
    ns = np.arange(-n_max, n_max + 1)
    weights = []
    for n in ns.tolist():
        sign = -1.0 if (ell * n) % 2 else 1.0
        top = TWO_PI * 1j * (n * base_z2 + 0.5 * ell * n * (n + 1) * tau.z)
        if n >= 0:
            den = 1.0 - cmath.exp(TWO_PI * 1j * (z1 + n * tau.z))
            weights.append(sign * cmath.exp(top) / den)
        else:
            den = 1.0 - cmath.exp(TWO_PI * 1j * (-z1 - n * tau.z))
            weights.append(-sign * cmath.exp(top - TWO_PI * 1j * (z1 + n * tau.z)) / den)
    return exp_column_jet(weights, TWO_PI * 1j * ns, order) \
        .scale(cmath.exp(1j * math.pi * ell * z1))


def appell_hat_z2_jet(ell: int, z1: complex, base_z2: complex, tau: Tau,
                      order: int) -> Jet:
    """Jet of z -> A_hat_ell(z1, base_z2 + z; tau)."""
    total = appell_A_z2_jet(ell, z1, base_z2, tau, order)
    lat = ell * tau.z
    comp = Jet.zero(order)
    for nu in range(ell):
        shift = nu * tau.z + (ell - 1) / 2.0
        th = theta_arg_jet(base_z2 + shift, lat, order)
        # S argument depends on the increment with coefficient -1
        sj = zwegers_S_jet(ell * z1 - base_z2 - shift, lat, order).scale_variable(-1.0)
        comp = comp + (th * sj).scale(cmath.exp(TWO_PI * 1j * nu * z1))
    return total + comp.scale(0.5j)


# ---------------------------------------------------------------------------
# moment limits in the first variable
# ---------------------------------------------------------------------------

_W_SEQ = (8e-3, 4e-3, 2e-3, 1e-3)


def raw_moment(ell_order: int, tau: Tau,
               w_seq=_W_SEQ) -> tuple[complex, float]:
    """(2 pi i)^(-ell_order) lim_{w -> 0} [d^ell_order/dz^ell_order
    A_2(w, z; tau)]_{z = -tau}, by Richardson extrapolation along real w.

    The z-independent n = 0 term carries the pole in w, so every
    derivative order >= 1 extends analytically to w = 0.
    """
    if ell_order < 1:
        raise DomainError("moment order must be >= 1")
    vals = []
    for w in w_seq:
        jet = appell_A_z2_jet(2, w, -tau.z, tau, ell_order)
        vals.append(jet.z_deriv0(ell_order))
    lim, err = richardson(vals)
    scale = (TWO_PI * 1j) ** (-ell_order)
    return scale * lim, abs(scale) * err


def completed_moment(ell_order: int, tau: Tau,
                     w_seq=_W_SEQ) -> tuple[complex, float]:
    """(2 pi i)^(-ell_order) lim_{w -> 0} [d^ell_order/dz^ell_order
    (e^(pi z w / v) A_hat_2(w, z; tau))]_{z = 0}, real-w Richardson."""
    if ell_order < 1:
        raise DomainError("moment order must be >= 1")
    vals = []
    for w in w_seq:
        jet = appell_hat_z2_jet(2, w, 0.0 + 0.0j, tau, ell_order)
        gauge = exp_linear_jet(math.pi * w / tau.v, ell_order)
        vals.append((gauge * jet).z_deriv0(ell_order))
    lim, err = richardson(vals)
    scale = (TWO_PI * 1j) ** (-ell_order)
    return scale * lim, abs(scale) * err


def shifted_S_jet(nu: int, tau: Tau, order: int) -> Jet:
    """Jet of the gauge-shifted period sum

        z -> e^(2 pi i a z - pi i a^2 tau') S(z - a tau' - 1/2; tau')

    with a = -nu/2 and tau' = 2 tau, for nu in {-1, 0}.  Satisfies the same
    heat equation as the unshifted sum.
    """
    if nu not in (-1, 0):
        raise DomainError("residue class must be -1 or 0")
    a = -nu / 2.0
    lat = 2.0 * tau.z
    base = -a * lat - 0.5
    pref = cmath.exp(-1j * math.pi * a * a * lat)
    return (exp_linear_jet(TWO_PI * 1j * a, order)
            * zwegers_S_jet(base, lat, order)).scale(pref)


def completion_difference_jet(tau: Tau, order: int) -> Jet:
    """Jet of z -> sum over nu in {-1, 0} of vartheta_nu(z) S_nu(z), the
    combination whose z-derivatives at 0 measure the gap between the raw
    and completed moment limits."""
    from .jets import vartheta_nu_jet

    out = Jet.zero(order)
    for nu in (-1, 0):
        out = out + vartheta_nu_jet(nu, tau.z, order) * shifted_S_jet(nu, tau, order)
    return out


def moment_difference_residual(ell_order: int, tau: Tau,
                               w_seq=(8e-3, 4e-3, 2e-3, 1e-3, 5e-4)) -> float:
    """Residual of the closed form for the completed-minus-raw moment gap:

        ghat_l - g_l = delta_{l,1} / (4 pi v)
                       - (i/2) (2 pi i)^(-l) [d^l_z sum_nu
                         vartheta_nu(z) S_nu(z)]_{z=0}.

    The sign of the jet term is the numerically adjudicated one.
    """
    g, _ = raw_moment(ell_order, tau, w_seq)
    gh, _ = completed_moment(ell_order, tau, w_seq)
    jet = completion_difference_jet(tau, ell_order)
    pred = -0.5j * (TWO_PI * 1j) ** (-ell_order) * jet.z_deriv0(ell_order)
    if ell_order == 1:
        pred += 1.0 / (4.0 * math.pi * tau.v)
    return abs((gh - g) - pred)


# ---------------------------------------------------------------------------
# transformation-law residuals
# ---------------------------------------------------------------------------


def elliptic_shift_residual(ell: int, n1: int, m1: int, n2: int, m2: int,
                            z1: complex, z2: complex, tau: Tau) -> float:
    """Residual of the lattice-shift law of the completed sum:

    Ahat(z1 + n1 tau + m1, z2 + n2 tau + m2) = (-1)^(ell(n1+m1))
    e^(2 pi i z1 (ell n1 - n2)) e^(-2 pi i n1 z2)
    q^(ell n1^2/2 - n1 n2) Ahat(z1, z2).
    """
    lhs = appell_hat(ell, z1 + n1 * tau.z + m1, z2 + n2 * tau.z + m2, tau)
    fac = (-1.0) ** (ell * (n1 + m1)) \
        * cmath.exp(TWO_PI * 1j * (z1 * (ell * n1 - n2) - n1 * z2)) \
        * cmath.exp(TWO_PI * 1j * tau.z * (0.5 * ell * n1 * n1 - n1 * n2))
    return relative_residual(lhs, fac * appell_hat(ell, z1, z2, tau))


def modular_residual(ell: int, gamma: Mobius, z1: complex, z2: complex,
                     tau: Tau) -> float:
    """Residual of the weight-one law:

    Ahat(z1/(c tau+d), z2/(c tau+d); gamma tau) = (c tau+d)
    e^(pi i c (-ell z1^2 + 2 z1 z2)/(c tau+d)) Ahat(z1, z2; tau).
    """
    jf = gamma.j_factor(tau)
    lhs = appell_hat(ell, z1 / jf, z2 / jf, gamma.apply(tau))
    rhs = jf * cmath.exp(1j * math.pi * gamma.c
                         * (-ell * z1 * z1 + 2.0 * z1 * z2) / jf) \
        * appell_hat(ell, z1, z2, tau)
    return relative_residual(lhs, rhs)
