"""Shared domain types and conventions.

Everything downstream agrees on the conventions fixed here:

* a point in the upper half-plane is a complex number u + i*v, v > 0;
  ``Tau(u, v)`` is the validated ``complex``, with ``q = exp(2*pi*i*tau)``,
  and a batch is any sequence or array of points; a kernel reads either
  by ``read_points`` and returns by ``points_out``, an array with an axis
  over the points for a batch (the last of values, the first of Taylor
  columns and jets), and at one point that axis dropped (one Python
  number for one value),
* integer matrices acting by Mobius maps are ``Mobius(a, b, c, d)`` with
  determinant one,
* half-integer powers ``w**(k/2)`` always mean the principal square root
  composed with an integer power (``principal_halfpower``),
* a single verification outcome is a ``Report``; a report passes exactly
  when its residual is at most its tolerance,
* a numeric law compares its two sides by ``relative_residual``.
"""
from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

# Sampling window used by the deterministic samplers: real part bounded by
# 1/2, imaginary part inside [0.8, 2.0], and Mobius images are resampled
# whenever they fall below IM_FLOOR (where the rank series, whose truncation
# grows as v falls, still needs no more than 128 terms).
RE_BOUND = 0.5
IM_LO = 0.8
IM_HI = 2.0
IM_FLOOR = 0.2

TWO_PI = 2.0 * math.pi

# Every truncated sum is cut where the exponent of its term size
# exp(-(c t^2 - d |t|)) passes LATTICE_TAIL (see lattice_window).  A sum
# whose largest term exp(d^2 / (4 c)) would pass exp(LATTICE_PEAK_GUARD)
# cannot be formed without overflow and is refused.
LATTICE_TAIL = 50.0
LATTICE_PEAK_GUARD = 600.0


class DomainError(ValueError):
    """Raised when an argument leaves the documented domain."""


def lattice_window(curvature: float, drift: float = 0.0) -> int:
    """Half-width N of a lattice sum whose terms have size
    exp(-(curvature t^2 - drift |t|)): ``ceil(root) + 2``, where root is
    the positive root of curvature t^2 - drift t = LATTICE_TAIL.

    Raises ``DomainError`` when curvature <= 0, or when the peak
    drift^2 / (4 curvature) of the exponent exceeds LATTICE_PEAK_GUARD.
    """
    if not curvature > 0:
        raise DomainError("lattice parameter must have positive imaginary part")
    half = abs(drift) / (2.0 * curvature)
    if curvature * half * half > LATTICE_PEAK_GUARD:
        raise DomainError("lattice argument too far from the real axis")
    root = half + math.sqrt(half * half + LATTICE_TAIL / curvature)
    return int(math.ceil(root)) + 2


class Tau(complex):
    """A point u + i*v in the upper half-plane: the complex number itself,
    so == and hash are complex's and arithmetic gives a plain ``complex``."""

    __slots__ = ()
    u, v = complex.real, complex.imag  # read-only, as on any complex

    def __new__(cls, u: float, v: float) -> "Tau":
        if not (v > 0.0):
            raise DomainError(f"imaginary part must be positive, got {v}")
        return super().__new__(cls, u, v)

    @property
    def q(self) -> complex:
        """exp(2*pi*i*tau)."""
        return cmath.exp(2j * math.pi * self)


@dataclass(frozen=True)
class Mobius:
    """Integer matrix (a b; c d) with ad - bc = 1 acting on the half-plane."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        validate_mobius(self.a, self.b, self.c, self.d)

    def j_factor(self, tau: Tau) -> complex:
        """The automorphy denominator c*tau + d."""
        return self.c * tau + self.d

    def apply(self, tau: Tau) -> Tau:
        w = (self.a * tau + self.b) / self.j_factor(tau)
        return Tau(w.real, w.imag)

    def __matmul__(self, other: "Mobius") -> "Mobius":
        return Mobius(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Mobius":
        return Mobius(self.d, -self.b, -self.c, self.a)

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


def validate_mobius(a: int, b: int, c: int, d: int) -> None:
    for x in (a, b, c, d):
        if not isinstance(x, int):
            raise DomainError(f"matrix entries must be integers, got {x!r}")
    if a * d - b * c != 1:
        raise DomainError(f"determinant must be 1, got {a * d - b * c}")


IDENTITY = Mobius(1, 0, 0, 1)
GEN_T = Mobius(1, 1, 0, 1)
GEN_S = Mobius(0, -1, 1, 0)
# the entries of the letters T, T^-1 and S of a random word
_WORD_STEPS = tuple(g.entries() for g in (GEN_T, GEN_T.inverse(), GEN_S))


def read_points(tau) -> np.ndarray:
    """One point or a batch as a 1-D complex array; DomainError at Im <= 0."""
    tz = np.atleast_1d(np.asarray(tau, dtype=complex))
    if not (tz.imag > 0).all():
        raise DomainError("points need a positive imaginary part")
    return tz


def points_out(values, *points, axis: int = -1):
    """The result-shape rule: ``values`` as they are when some argument in
    ``points`` is a batch; when every one is one point (or scalar), their
    point axis dropped, and one value as a Python number.  The point axis
    is the last of values and residuals (``axis=-1``) and the first of
    Taylor columns and jets (``axis=0``).  ``points`` lists every argument
    that may carry a batch: a point axis longer than one there means a
    batch came in unlisted, and raises ``DomainError``."""
    if any(np.ndim(p) for p in points):
        return values
    values = np.asarray(values)
    if values.ndim:
        if values.shape[axis] != 1:
            raise DomainError(f"one point gave {values.shape[axis]} entries"
                              f" on the point axis of shape {values.shape}")
        values = np.take(values, 0, axis=axis)
    return values if values.ndim else values.item()


def principal_halfpower(w, twice_weight):
    """w**(twice_weight/2) with the principal branch, entrywise over arrays
    broadcast together (``points_out``: a complex for numbers).

    Even ``twice_weight`` reduces to an exact integer power.  Odd
    ``twice_weight`` is the principal square root (argument in
    (-pi/2, pi/2]) raised to the odd integer.  ``w = 0`` is rejected so a
    silent branch collapse cannot hide a degenerate automorphy factor.
    """
    w, twice = np.asarray(w, dtype=complex), np.asarray(twice_weight)
    if (w == 0).any():
        raise DomainError("halfpower of 0 is not defined here")
    out = np.where(twice % 2, np.sqrt(w) ** twice, w ** (twice // 2))
    return points_out(out, w, twice)


@dataclass
class Report:
    """Outcome of one identity check."""

    check_id: str
    params: dict
    residual: float
    tolerance: float
    verdict: str = field(init=False)
    runtime_ms: int = 0
    traceback: str | None = None  # of a crashed runner

    def __post_init__(self) -> None:
        ok = math.isfinite(self.residual) and self.residual <= self.tolerance
        self.verdict = "pass" if ok else "fail"

    def to_dict(self) -> dict:
        out = {
            "check_id": self.check_id,
            "params": self.params,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
            "runtime_ms": self.runtime_ms,
        }
        if self.traceback is not None:
            out["traceback"] = self.traceback
        return out


def worst_of(residuals: Iterable) -> float:
    """The largest entry of ``residuals`` (numbers or arrays), 0.0 for
    none, and NaN if any entry is NaN: ``max`` keeps its first argument
    when the second is NaN, so it would let a NaN sample pass, while
    ``np.max`` keeps a NaN."""
    worst = 0.0
    for r in residuals:
        r = float(np.max(r, initial=0.0))
        if r > worst or math.isnan(r):
            worst = r
    return worst


def relative_residual(lhs, rhs, scale=0.0):
    """|lhs - rhs| / max(|lhs|, |rhs|, scale), NaN when that is 0 or any
    part is NaN, entrywise over arrays broadcast together (``points_out``:
    a float for numbers, equal bit for bit to its entry of an array).  A
    law passes ``scale``, from terms it computes, only when its sides are
    a sum that cancels or a coefficient read out of a column."""
    den = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), scale)
    with np.errstate(invalid="ignore"):  # 0/0: the NaN of a 0 denominator
        return points_out(np.abs(lhs - rhs) / den, lhs, rhs, scale)


def sample_tau(rng: random.Random) -> Tau:
    """Deterministic sample from the standard window."""
    return Tau(rng.uniform(-RE_BOUND, RE_BOUND), rng.uniform(IM_LO, IM_HI))


def sample_mobius_image(rng: random.Random, tau: Tau) -> tuple:
    """Random word in the two generators, with bounded entries, and the
    image of ``tau`` under it.

    Resamples until all entries are at most 6 in absolute value and the
    image of ``tau`` keeps imaginary part >= IM_FLOOR.  Words multiply as
    integer 4-tuples, and the image is ``Mobius.apply``'s arithmetic on
    them; only an accepted word becomes a ``Mobius`` and a ``Tau``.
    """
    while True:
        a, b, c, d = IDENTITY.entries()
        for _ in range(rng.randint(1, 6)):
            p, q, r, s = _WORD_STEPS[rng.randrange(3)]
            a, b, c, d = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s
        if (a, b, c, d) == IDENTITY.entries() or max(map(abs, (a, b, c, d))) > 6:
            continue
        w = (a * tau + b) / (c * tau + d)
        if w.imag >= IM_FLOOR:
            return Mobius(a, b, c, d), Tau(w.real, w.imag)


def sample_mobius(rng: random.Random, tau: Tau) -> Mobius:
    """The matrix of ``sample_mobius_image``."""
    return sample_mobius_image(rng, tau)[0]


def sample_z(rng: random.Random, radius: float = 0.4) -> complex:
    """Random elliptic argument in a disc (kept small so lattice shifts stay
    inside the convergence comfort zone of the lattice sums)."""
    return complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))


def richardson(values: Sequence) -> tuple:
    """Limit of f(t) as t -> 0 from samples at t, t/2, t/4, ...

    Assumes an asymptotic expansion in integer powers of t and eliminates
    one power per level.  Returns (limit, error estimate), entrywise when
    the samples are arrays.
    """
    n = len(values)
    if n < 2:
        raise DomainError("need at least two samples to extrapolate")
    table = [list(values)]
    for j in range(1, n):
        prev = table[-1]
        fac = 2.0 ** j
        table.append([(fac * prev[i + 1] - prev[i]) / (fac - 1.0)
                      for i in range(n - j)])
    best = table[-1][0]
    return best, abs(best - table[-2][-1])
