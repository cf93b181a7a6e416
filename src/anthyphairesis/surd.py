"""Exact arithmetic for quadratic surds.

A magnitude is either an exact rational (fractions.Fraction) or a
QuadraticSurd: a value (P + sqrt(D))/Q with integer P, Q, D, D positive and
not a perfect square, subject to the divisibility invariant Q | (D - P^2).
That invariant is what keeps the anthyphairesis step closed: the successor
of a valid state is again a valid state with the same D, so an expansion is
a walk on a finite state set.

No floating point anywhere; floor and sign are computed from integer
inequalities against isqrt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, InternalInvariantError, is_int, require_int


def isqrt(n: int) -> int:
    """Exact integer square root: the r with r*r <= n < (r+1)*(r+1)."""
    return math.isqrt(require_int(n, "n", 0))


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def _sign_p_plus_sqrt(p: int, d: int) -> int:
    # sign of p + sqrt(d) for non-square d; never 0 since sqrt(d) is irrational
    if p >= 0:
        return 1
    return 1 if p * p < d else -1


@dataclass(frozen=True)
class QuadraticSurd:
    """The value (P + sqrt(D))/Q, exact, positive, irrational.

    Q may be negative: values of the form (u - sqrt(E))/w have no Q > 0
    representative, and they do arise when a ratio of magnitudes is reduced
    to a single surd.  Q = 0, perfect-square D (demoted to Rational by
    make_sqrt), broken divisibility, and nonpositive values are all rejected
    at construction.
    """

    P: int
    Q: int
    D: int

    def __post_init__(self) -> None:
        require_int(self.P, "P")
        require_int(self.Q, "Q")
        require_int(self.D, "D", 1)
        if self.Q == 0:
            raise DomainError("Q must be nonzero")
        if _is_square(self.D):
            raise DomainError(f"D must not be a perfect square, got {self.D}")
        if (self.D - self.P * self.P) % self.Q != 0:
            raise DomainError(
                f"divisibility invariant broken: {self.Q} does not divide "
                f"{self.D} - {self.P}^2"
            )
        if _sign_p_plus_sqrt(self.P, self.D) != (1 if self.Q > 0 else -1):
            raise DomainError("magnitude must be positive")

    def __float__(self) -> float:
        # display convenience only; never used in the arithmetic
        return (self.P + math.sqrt(self.D)) / self.Q


Magnitude = Fraction | QuadraticSurd


def make_sqrt(C: int) -> Magnitude:
    """sqrt(C) as a magnitude: exact rational for square C, else a surd."""
    r = isqrt(require_int(C, "C", 1))
    if r * r == C:
        return Fraction(r)
    return QuadraticSurd(0, 1, C)


def floor_of(x: Magnitude) -> int:
    """Exact floor of a positive magnitude."""
    if isinstance(x, Fraction):
        if x <= 0:
            raise DomainError(f"magnitude must be positive, got {x}")
        return x.numerator // x.denominator
    s = isqrt(x.D)
    if x.Q > 0:
        # P + sqrt(D) lies strictly between P+s and P+s+1
        return (x.P + s) // x.Q
    # value is (-P - sqrt(D)) / (-Q) with -Q > 0; floor(-P - sqrt(D)) = -P-s-1
    return (-x.P - s - 1) // (-x.Q)


def anth_step(x: QuadraticSurd) -> tuple[int, QuadraticSurd]:
    """One anthyphairesis step: (I, 1/(x - I)) with I = floor(x).

    The successor state is (P', Q', D) with P' = I*Q - P and
    Q' = (D - P'^2)/Q; the division is exact whenever x is valid, so an
    inexact division means memory corruption, not bad input.  The successor
    is always > 1 since x is irrational.
    """
    n = floor_of(x)
    p2 = n * x.Q - x.P
    num = x.D - p2 * p2
    q2, rem = divmod(num, x.Q)
    if rem != 0:
        raise InternalInvariantError(
            f"anth_step divisibility failed at state ({x.P}, {x.Q}, {x.D})"
        )
    return n, QuadraticSurd(p2, q2, x.D)


@dataclass(frozen=True)
class QFieldElement:
    """Exact element (u + v*sqrt(D))/w of a quadratic field, any sign.

    Normalized on construction: w > 0 and gcd(u, v, w) = 1.  Used for exact
    remainder tracking, where differences of magnitudes leave the positive
    cone that QuadraticSurd models.  Rational elements carry v = 0 (and then
    any D, including 0 for a purely rational chain).
    """

    u: int
    v: int
    w: int
    D: int

    def __post_init__(self) -> None:
        for name in ("u", "v", "w"):
            require_int(getattr(self, name), name)
        require_int(self.D, "D", 0)
        if self.w == 0:
            raise DomainError("w must be nonzero")
        if self.v != 0 and (self.D < 2 or _is_square(self.D)):
            raise DomainError(f"D must be a non-square >= 2 when v != 0, got {self.D}")
        u, v, w = self.u, self.v, self.w
        if w < 0:
            u, v, w = -u, -v, -w
        g = math.gcd(math.gcd(abs(u), abs(v)), w)
        if g > 1:
            u, v, w = u // g, v // g, w // g
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)

    def is_zero(self) -> bool:
        return self.u == 0 and self.v == 0

    def _require_same_field(self, other: QFieldElement) -> None:
        if self.D != other.D:
            raise DomainError(f"mixed fields: sqrt({self.D}) vs sqrt({other.D})")

    def __neg__(self) -> QFieldElement:
        return QFieldElement(-self.u, -self.v, self.w, self.D)

    def __sub__(self, other: QFieldElement) -> QFieldElement:
        self._require_same_field(other)
        u = self.u * other.w - other.u * self.w
        v = self.v * other.w - other.v * self.w
        return QFieldElement(u, v, self.w * other.w, self.D)

    def __mul__(self, k: int) -> QFieldElement:
        if not is_int(k):
            return NotImplemented
        if k == 0:
            return QFieldElement(0, 0, 1, self.D)
        return QFieldElement(self.u * k, self.v * k, self.w, self.D)

    __rmul__ = __mul__

    def __float__(self) -> float:
        return (self.u + self.v * math.sqrt(self.D)) / self.w


def sign_of(e: QFieldElement) -> int:
    """Exact sign (-1, 0, +1) of a field element, by integer case analysis."""
    if not isinstance(e, QFieldElement):
        raise DomainError(f"sign_of needs a QFieldElement, got {e!r}")
    # w > 0 after normalization, so only the numerator u + v*sqrt(D) matters
    if e.v == 0:
        return 0 if e.u == 0 else (1 if e.u > 0 else -1)
    if e.u == 0:
        return 1 if e.v > 0 else -1
    if e.u > 0 and e.v > 0:
        return 1
    if e.u < 0 and e.v < 0:
        return -1
    # opposite signs: compare u^2 with v^2 * D (equality impossible: sqrt(D)
    # is irrational, so u + v*sqrt(D) != 0)
    lhs, rhs = e.u * e.u, e.v * e.v * e.D
    if e.u > 0:
        return 1 if lhs > rhs else -1
    return 1 if rhs > lhs else -1
