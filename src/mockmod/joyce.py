"""Completion of the lattice Lambert series of half-integer moments.

The holomorphic core is the exact expansion (1/2) sum_{n != 0} n^(k-1)
q^(n^2) / (1 - q^n) for even weight k.  Its modular completion adds a
delta term (k = 2 only) and a Rankin-Cohen bracket coupling each
half-characteristic theta null series

    vartheta_nu(tau) = -sum over m in (nu+1)/2 + Z of q^(m^2)

(weight 1/2) to a nonholomorphic partner of weight 3/2,

    s_nu(tau) = sqrt(pi) sum over the same m of
                |m| Gamma(-1/2, 4 pi m^2 v) q^(-m^2),

whose m = 0 term (nu = -1 only) is the limit value 1/(sqrt v).  The
q-derivative tower of s_nu closes over {Gamma(-1/2, x), v^(r/2) e^(-x)}
with x = 4 pi m^2 v, so bracket derivatives are applied analytically;
finite differences are reserved for the outer lowering checks.

Two independent routes exist for every nonholomorphic ingredient: the
term-wise tower here, and Wirtinger jets of the gauge-shifted period sum
e^(-pi i nu z) q^(-nu^2/4) S(z + nu tau + 1/2; 2 tau), whose odd
z-coefficients reproduce the same tower through the heat equation
4 pi i d_tau + d_z^2 = 0.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .core import (DomainError, Mobius, Report, Tau, TWO_PI, accumulate,
                   lattice_window, principal_halfpower, relative_residual)
from .exactq import QSeries, binom_poly, joyce_expansion, theta_q_expansion
from .jets import exp_linear_jet, exp_quadratic_jet, vartheta_nu_jet, zwegers_S_jet
from .special import (eta_multiplier, eval_qseries, lowering_numeric,
                      series_trunc_for, theta_value, upper_gamma_scaled)

_SQRT_PI = math.sqrt(math.pi)

BRACKET_WEIGHT_THETA = Fraction(1, 2)
BRACKET_WEIGHT_S = Fraction(3, 2)


def _check_weight(k: int) -> None:
    if not isinstance(k, int) or k < 2 or k % 2:
        raise DomainError("weight must be a positive even integer")


def _check_residue(nu: int) -> None:
    if nu not in (-1, 0):
        raise DomainError("residue class must be -1 or 0")


@lru_cache(maxsize=None)
def theta_block_series(nu: int, trunc: int) -> QSeries:
    """Exact expansion of the weight-1/2 theta block vartheta_nu."""
    _check_residue(nu)
    return theta_q_expansion("vartheta_minus" if nu == -1 else "vartheta_zero", trunc)


@lru_cache(maxsize=None)
def _theta_block_derivatives(nu: int, trunc: int, count: int) -> tuple:
    ser = theta_block_series(nu, trunc)
    out = [ser]
    for _ in range(count):
        out.append(out[-1].derivative())
    return tuple(out)


def theta_block_deriv0(nu: int, a: int, tau: Tau, precision: str = "f64") -> complex:
    """[d^a/dz^a vartheta_nu(z; tau)] at z = 0 from the exact expansion.

    Odd orders vanish by evenness; even orders trade two z-derivatives for
    one q-derivative: d_z^2 = (2 pi i)^2 q d/dq on each lattice term.
    """
    if a < 0:
        raise DomainError("derivative order must be nonnegative")
    if a % 2:
        return 0j
    trunc = series_trunc_for(tau, 4)
    ser = _theta_block_derivatives(nu, trunc, a // 2)[a // 2]
    return (TWO_PI * 1j) ** a * eval_qseries(ser, tau, precision)


# ---------------------------------------------------------------------------
# the weight-3/2 nonholomorphic partner and its derivative tower
# ---------------------------------------------------------------------------


def s_nu_tower(nu: int, tau: Tau, depth: int, precision: str = "f64") -> list:
    """[s_nu, D s_nu, ..., D^depth s_nu] with D = q d/dq applied analytically.

    Each lattice term carries the state A Gamma(-1/2, x) + sum_r B_r
    v^(r/2) e^(-x) times q^(-m^2); D maps A to -m^2 A, feeds
    A/(8 pi^(3/2) |m|) into the tail at r = -3, and shifts B_r to
    -B_r r/(8 pi) at r - 2 (the two m^2 columns cancel exactly).  The
    growing q-power is paired with the scaled gamma so nothing overflows.
    """
    _check_residue(nu)
    if depth < 0:
        raise DomainError("derivative depth must be nonnegative")
    v = tau.v
    rows: list[list[complex]] = [[] for _ in range(depth + 1)]
    m_max = lattice_window(TWO_PI * v) + 1 + depth
    half = (nu + 1) / 2.0
    m = -m_max
    while m + half <= m_max + 0.25:
        mm = m + half
        m += 1
        x = 4.0 * math.pi * mm * mm * v
        if mm == 0.0:
            A = 0.0
            tail = {-1: 1.0}
        else:
            A = _SQRT_PI * abs(mm)
            tail = {}
        phase = cmath.exp(-TWO_PI * 1j * mm * mm * tau.u) * math.exp(-x / 2.0)
        for j in range(depth + 1):
            val = A * upper_gamma_scaled(-0.5, x) if A else 0.0
            for r, B in tail.items():
                val += B * v ** (r / 2.0)
            rows[j].append(val * phase)
            ntail = {}
            if A:
                ntail[-3] = A / (8.0 * math.pi ** 1.5 * abs(mm))
                A = -mm * mm * A
            for r, B in tail.items():
                ntail[r - 2] = ntail.get(r - 2, 0.0) - B * r / (8.0 * math.pi)
            tail = ntail
    return [accumulate(row, precision) for row in rows]


def s_nu(nu: int, tau: Tau, d_order: int = 0, precision: str = "f64") -> complex:
    """D^d_order of the incomplete-gamma theta partner at tau."""
    return s_nu_tower(nu, tau, d_order, precision)[d_order]


def s_block_jet(nu: int, tau: Tau, order: int):
    """Jet of z -> e^(-pi i nu z) q^(-nu^2/4) S(z + nu tau + 1/2; 2 tau)."""
    _check_residue(nu)
    pref = cmath.exp(-0.5j * math.pi * nu * nu * tau.z)
    return (exp_linear_jet(-1j * math.pi * nu, order)
            * zwegers_S_jet(nu * tau.z + 0.5, 2.0 * tau.z, order)).scale(pref)


def s_nu_jet_route(nu: int, tau: Tau, depth: int) -> list:
    """The same tower as ``s_nu_tower`` from odd jet coefficients.

    The block obeys the heat equation, so the (2p+1)-st z-coefficient
    carries D^p of the z-linear coefficient: D^p s = (2p+1)! c_{2p+1,0}
    / (4 pi^2)^p.
    """
    jet = s_block_jet(nu, tau, 2 * depth + 1)
    return [jet.coeff(2 * p + 1, 0) * math.factorial(2 * p + 1)
            / (4.0 * math.pi ** 2) ** p for p in range(depth + 1)]


def s_nu_route_residual(nu: int, tau: Tau, depth: int = 2) -> float:
    """Worst relative gap between the analytic tower and the jet route."""
    a = s_nu_tower(nu, tau, depth)
    b = s_nu_jet_route(nu, tau, depth)
    return max(relative_residual(x, y) for x, y in zip(a, b))


def s_nu_lowering_residual(nu: int, tau: Tau) -> float:
    """Residual of L(s_nu) = -(sqrt v / 2) conj(Theta_nu(2 tau)), where
    Theta_nu = -vartheta_nu(0) is the plain theta null sum."""
    got, _ = lowering_numeric(lambda t: s_nu(nu, t), tau)
    theta2 = -eval_qseries(theta_block_series(nu, series_trunc_for(tau, 4)), tau)
    want = -0.5 * math.sqrt(tau.v) * theta2.conjugate()
    return relative_residual(got, want)


# ---------------------------------------------------------------------------
# jet-extracted theta blocks of higher order
# ---------------------------------------------------------------------------


def theta_ln(ell: int, nu: int, tau: Tau, route: str = "jet") -> complex:
    """(ell-1)-st z-derivative at 0 of vartheta_nu(z) e^(pi z^2 / (4v)).

    ``route="jet"`` multiplies the theta jet by the Gaussian jet;
    ``route="binomial"`` expands the product rule over even theta
    derivatives: sum_j (ell-1)!/(j! (ell-1-2j)!) (pi/(4v))^j
    [d^(ell-1-2j) vartheta_nu]_0.
    """
    _check_residue(nu)
    if ell < 1:
        raise DomainError("block order must be a positive integer")
    order = ell - 1
    if route == "jet":
        jet = (vartheta_nu_jet(nu, tau.z, order)
               * exp_quadratic_jet(math.pi / (4.0 * tau.v), order))
        return jet.z_deriv0(order)
    if route == "binomial":
        a = math.pi / (4.0 * tau.v)
        total = 0j
        for j in range(order // 2 + 1):
            c = (math.factorial(order)
                 / (math.factorial(j) * math.factorial(order - 2 * j)))
            total += c * a ** j * theta_block_deriv0(nu, order - 2 * j, tau)
        return total
    raise DomainError(f"unknown route {route!r}")


def theta_ln_route_residual(ell: int, nu: int, tau: Tau) -> float:
    return relative_residual(theta_ln(ell, nu, tau, "jet"),
                             theta_ln(ell, nu, tau, "binomial"))


# ---------------------------------------------------------------------------
# bracket assembly
# ---------------------------------------------------------------------------


def bracket_constant(k: int) -> float:
    """(k-2)! (-1)^(k/2+1) / (Gamma((k-1)/2)^2 2^(k+1))."""
    _check_weight(k)
    return (math.factorial(k - 2) * (-1.0) ** (k // 2 + 1)
            / (math.gamma((k - 1) / 2.0) ** 2 * 2.0 ** (k + 1)))


def bracket_coefficient_identity(ell: int) -> bool:
    """Exact-rational equality of the two bracket-coefficient closed forms.

    For odd ell and 0 <= j <= (ell-1)/2:

      C(ell, 2j) / (4 pi) = (ell-1)! / (Gamma(ell/2)^2 2^(ell+1))
                              * C(ell/2 - 1, (ell-1)/2 - j) * C(ell/2, j)

    after multiplying out Gamma(ell/2)^2 = pi ((2s)! / (4^s s!))^2 with
    s = (ell-1)/2; both sides become rationals and are compared exactly.
    """
    if ell < 1 or ell % 2 == 0:
        raise DomainError("order must be a positive odd integer")
    s = (ell - 1) // 2
    gamma_sq_over_pi = Fraction(math.factorial(2 * s),
                                4 ** s * math.factorial(s)) ** 2
    for j in range(s + 1):
        lhs = Fraction(math.comb(ell, 2 * j))
        rhs = (4 * math.factorial(ell - 1)
               * binom_poly(Fraction(ell, 2) - 1, s - j)
               * binom_poly(Fraction(ell, 2), j)
               / (gamma_sq_over_pi * 2 ** (1 + ell)))
        if lhs != rhs:
            return False
    return True


def joyce_bracket(k: int, nu: int, tau: Tau, route: str = "series",
                  precision: str = "f64") -> complex:
    """Rankin-Cohen bracket of vartheta_nu (weight 1/2) against s_nu
    (weight 3/2) of order k/2 - 1, with D on the theta side formal and D
    on the s side analytic (or jet-extracted for ``route="jet"``)."""
    _check_weight(k)
    _check_residue(nu)
    kap = k // 2 - 1
    if route == "series":
        s_d = s_nu_tower(nu, tau, kap, precision)
    elif route == "jet":
        s_d = s_nu_jet_route(nu, tau, kap)
    else:
        raise DomainError(f"unknown route {route!r}")
    trunc = series_trunc_for(tau, 4)
    th_d = _theta_block_derivatives(nu, trunc, kap)
    total = 0j
    for j in range(kap + 1):
        c = (binom_poly(BRACKET_WEIGHT_THETA + kap - 1, kap - j)
             * binom_poly(BRACKET_WEIGHT_S + kap - 1, j))
        if j % 2:
            c = -c
        total += float(c) * eval_qseries(th_d[j], tau, precision) * s_d[kap - j]
    return total


@dataclass(frozen=True)
class JoyceCompletion:
    """One assembled completion value with its three components."""

    k: int
    tau: Tau
    j_holo: complex
    delta_term: complex
    bracket_term: complex

    @property
    def total(self) -> complex:
        return self.j_holo + self.delta_term + self.bracket_term


@lru_cache(maxsize=None)
def _joyce_series(k: int, trunc: int) -> QSeries:
    return joyce_expansion(k, trunc)


def joyce_hat(k: int, tau: Tau, trunc: int | None = None, route: str = "series",
              precision: str = "f64") -> JoyceCompletion:
    """The completed weight-k object: exact core + delta term + bracket."""
    _check_weight(k)
    if trunc is None:
        # polynomial coefficient growth n^(k-1) on top of the target digits
        trunc = series_trunc_for(tau, 1, digits=20.0 + 5.0 * k)
    holo = eval_qseries(_joyce_series(k, trunc), tau, precision)
    delta = 1.0 / (8.0 * math.pi * tau.v) if k == 2 else 0.0
    br = sum(joyce_bracket(k, nu, tau, route, precision) for nu in (-1, 0))
    return JoyceCompletion(k, tau, holo, delta, bracket_constant(k) * br)


def joyce_hat_value(k: int, tau: Tau, **kwargs) -> complex:
    return joyce_hat(k, tau, **kwargs).total


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_joyce_transform(k: int, gamma: Mobius, tau: Tau,
                          tolerance: float = 1e-6,
                          precision: str = "f64") -> Report:
    """Residual of the weight-k law under one matrix, relative scale."""
    lhs = joyce_hat_value(k, gamma.apply(tau), precision=precision)
    rhs = gamma.j_factor(tau) ** k * joyce_hat_value(k, tau,
                                                     precision=precision)
    res = abs(lhs - rhs) / max(abs(rhs), 1e-30)
    return Report("joyce.transform", {"k": k, "gamma": gamma.entries(),
                                      "tau": [tau.u, tau.v]}, res, tolerance)


def lowering_reference_joyce(k: int, tau: Tau, variant: str = "stated") -> complex:
    """Closed forms compared against numeric lowering of the completion.

    ``stated``: -delta_{k=2}/(8 pi) - i(k-1)/(8 (2 pi i)^(k-1)) sqrt(v)
    (conj(Theta_{-1}) theta_ln(k-1,-1) + conj(Theta_0) theta_ln(k-1,0))
    with Theta_nu = -vartheta_nu(0).  ``corollary_display``: the k=2
    variant printed with constant -1/(4 pi) and prefactor 1/(16 pi v);
    kept for adjudication, numerically rejected.
    """
    _check_weight(k)
    trunc = series_trunc_for(tau, 4)
    t1 = -eval_qseries(theta_block_series(-1, trunc), tau)
    t3 = -eval_qseries(theta_block_series(0, trunc), tau)
    if variant == "stated":
        pref = -1j * (k - 1) / (8.0 * (TWO_PI * 1j) ** (k - 1))
        out = pref * math.sqrt(tau.v) * (t1.conjugate() * theta_ln(k - 1, -1, tau)
                                         + t3.conjugate() * theta_ln(k - 1, 0, tau))
        if k == 2:
            out += -1.0 / (8.0 * math.pi)
        return out
    if variant == "corollary_display":
        if k != 2:
            raise DomainError("display variant exists only at k = 2")
        return (-1.0 / (4.0 * math.pi)
                + (abs(t1) ** 2 + abs(t3) ** 2) / (16.0 * math.pi * tau.v))
    raise DomainError(f"unknown variant {variant!r}")


def check_joyce_lowering(k: int, tau: Tau, tolerance: float = 1e-5) -> Report:
    """Numeric lowering against the stated closed form; at k = 2 the
    params also record the rejected display variant's residual."""
    got, fd_err = lowering_numeric(lambda t: joyce_hat_value(k, t), tau)
    want = lowering_reference_joyce(k, tau)
    res = relative_residual(got, want)
    params = {"k": k, "tau": [tau.u, tau.v], "fd_error": fd_err,
              "variant": "stated"}
    if k == 2:
        alt = lowering_reference_joyce(k, tau, "corollary_display")
        params["corollary_display_residual"] = relative_residual(got, alt)
    return Report("joyce.lowering", params, res, tolerance)


# ---------------------------------------------------------------------------
# theta-block transformation on the level-four congruence group
# ---------------------------------------------------------------------------


def kronecker_symbol(a: int, n: int) -> int:
    """Extended quadratic residue symbol (a/n)."""
    if n == 0:
        return 1 if abs(a) == 1 else 0
    k = 1
    if n < 0:
        n = -n
        if a < 0:
            k = -k
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            k = -k
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                k = -k
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            k = -k
        a %= n
    return k if n == 1 else 0


def theta_star_value(nu: int, z: complex, tau: Tau,
                     precision: str = "f64") -> complex:
    """vartheta_nu(z; tau) e^(pi z^2/(4v)), the index-killed completion."""
    _check_residue(nu)
    val = (cmath.exp(1j * math.pi * nu * z)
           * cmath.exp(0.5j * math.pi * nu * nu * tau.z)
           * theta_value(z + nu * tau.z + 0.5, Tau(2.0 * tau.u, 2.0 * tau.v),
                         precision))
    return val * cmath.exp(math.pi * z * z / (4.0 * tau.v))


def theta_star_multiplier(nu: int, gamma: Mobius) -> complex:
    """Adjudicated multiplier of theta_star under the level-four group.

    The half-lattice conjugate eta-cube form psi^3(a, 2b; c/2, d) i^(c/4)
    is exactly the nu = 0 multiplier; nu = -1 carries the extra i^(-b)
    and then coincides with the classical quadratic-symbol multiplier
    (c/d) eps_d^(-1).
    """
    _check_residue(nu)
    a, b, c, d = gamma.entries()
    if c % 4:
        raise DomainError("lower-left entry must be divisible by 4")
    if a % 4 != 1 or d % 4 != 1:
        raise DomainError("diagonal entries must be 1 modulo 4")
    chi = eta_multiplier(Mobius(a, 2 * b, c // 2, d)) ** 3 * 1j ** ((c // 4) % 4)
    if nu == 0:
        return chi
    return chi * 1j ** ((-b) % 4)


def gamma1_4_theta_transform(gamma: Mobius, tau: Tau, z: complex = 0.23 + 0.11j,
                             tolerance: float = 1e-8) -> Report:
    """Residual of theta_star(z/(c tau+d); gamma tau) = chi_nu (c tau+d)^(1/2)
    theta_star(z; tau) for both residue classes, worst case reported; the
    params include the quadratic-symbol cross-check for nu = -1."""
    a, b, c, d = gamma.entries()
    im = gamma.apply(tau)
    jf = gamma.j_factor(tau)
    worst = 0.0
    for nu in (-1, 0):
        chi = theta_star_multiplier(nu, gamma)
        for point in (0.0 + 0.0j, z):
            lhs = theta_star_value(nu, point / jf, im)
            rhs = chi * principal_halfpower(jf, 1) * theta_star_value(nu, point, tau)
            worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-30))
    eps = 1.0 if d % 4 == 1 else 1j
    symbol_gap = abs(theta_star_multiplier(-1, gamma) - kronecker_symbol(c, d) / eps)
    params = {"gamma": gamma.entries(), "tau": [tau.u, tau.v],
              "z": [z.real, z.imag], "quadratic_symbol_gap": symbol_gap}
    return Report("joyce.theta-star", params, worst, tolerance)


def appell_limit_residual(k: int, tau: Tau) -> float:
    """Relative gap between twice the exact expansion and the Appell-limit
    construction of the same odd-order moment."""
    from .appell import raw_moment

    _check_weight(k)
    trunc = series_trunc_for(tau, 1, digits=20.0 + 5.0 * k)
    series_val = 2.0 * eval_qseries(_joyce_series(k, trunc), tau)
    limit_val, _ = raw_moment(k - 1, tau)
    return relative_residual(series_val, limit_val)


def sample_gamma1_4(rng, entry_bound: int = 60) -> Mobius:
    """Random word in the two parabolic generators of the level-four
    congruence group (unit upper shift and lower shift by four); both lie
    in the group, so any word does.  Resamples until the entries are
    bounded and the lower-left entry is nonzero."""
    from .core import GEN_T, IDENTITY

    lower = Mobius(1, 0, 4, 1)
    while True:
        g = IDENTITY
        for _ in range(rng.randint(1, 4)):
            h = GEN_T if rng.randrange(2) else lower
            e = rng.randint(-2, 2)
            step = h if e >= 0 else h.inverse()
            for _ in range(abs(e)):
                g = g @ step
        if g.c != 0 and max(abs(x) for x in g.entries()) <= entry_bound:
            return g
