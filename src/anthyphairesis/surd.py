"""Exact arithmetic for quadratic surds.

A magnitude is either an exact rational (fractions.Fraction) or a
QuadraticSurd: a value (P + sqrt(D))/Q with integer P, Q, D, D positive and
not a perfect square, subject to the divisibility invariant Q | (D - P^2).
That invariant is what keeps the anthyphairesis step closed: the successor
of a valid state is again a valid state with the same D, so an expansion is
a walk on a finite state set.

A QFieldElement (u + v*sqrt(D))/w has any sign: it carries the operands of a
ratio, their quotient and the remainders.  Each rule of this arithmetic (the
square test, the sign, the normal form, one field per pair, and the moves
between magnitudes and elements) is written once, here.

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


def _sign(u: int, v: int, d: int) -> int:
    """Exact sign (-1, 0, +1) of u + v*sqrt(d), for d a non-square or v = 0."""
    if u >= 0 and v >= 0:
        return 1 if u or v else 0
    if u <= 0 and v <= 0:
        return -1
    # opposite signs: compare u^2 with v^2 * d (equality impossible: sqrt(d)
    # is irrational, so u + v*sqrt(d) != 0)
    return 1 if (u * u > v * v * d) == (u > 0) else -1


def _common_radicand(a: QFieldElement, b: QFieldElement) -> int:
    """The radicand of the one field holding both.  A rational element
    (v = 0) lies in every field, whatever D it carries."""
    if a.v and b.v and a.D != b.D:
        raise DomainError(f"incompatible fields: sqrt({a.D}) versus sqrt({b.D})")
    return b.D if b.v or not a.D else a.D


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
        if _sign(self.P, 1, self.D) != (1 if self.Q > 0 else -1):
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
    if isinstance(x, QuadraticSurd):
        s = isqrt(x.D)
        if x.Q > 0:
            # P + sqrt(D) lies strictly between P+s and P+s+1
            return (x.P + s) // x.Q
        # value is (-P - sqrt(D)) / (-Q) with -Q > 0; floor(-P - sqrt(D)) = -P-s-1
        return (-x.P - s - 1) // (-x.Q)
    if isinstance(x, Fraction):
        if x <= 0:
            raise DomainError(f"magnitude must be positive, got {x}")
        return x.numerator // x.denominator
    raise DomainError(f"floor_of needs a Fraction or a QuadraticSurd, got {x!r}")


def anth_step(x: QuadraticSurd) -> tuple[int, QuadraticSurd]:
    """One anthyphairesis step: (I, 1/(x - I)) with I = floor(x).

    The successor state is (P', Q', D) with P' = I*Q - P and
    Q' = (D - P'^2)/Q; the division is exact whenever x is valid, so an
    inexact division means memory corruption, not bad input.  The successor
    is always > 1 since x is irrational.
    """
    if not isinstance(x, QuadraticSurd):
        raise DomainError(f"anth_step needs a QuadraticSurd, got {x!r}")
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

    Normalized on construction: w > 0 and gcd(u, v, w) = 1.  Used for the
    operands of a ratio and for exact remainder tracking, where differences
    of magnitudes leave the positive cone that QuadraticSurd models.
    Rational elements carry v = 0 and any D (0 for a pair of rationals); a
    rational element combines with every field.
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
        g = math.gcd(self.u, self.v, self.w) * (1 if self.w > 0 else -1)
        for name in ("u", "v", "w"):
            object.__setattr__(self, name, getattr(self, name) // g)

    def is_zero(self) -> bool:
        return self.u == 0 and self.v == 0

    def __neg__(self) -> QFieldElement:
        return QFieldElement(-self.u, -self.v, self.w, self.D)

    def __sub__(self, other: QFieldElement) -> QFieldElement:
        if not isinstance(other, QFieldElement):
            return NotImplemented
        d = _common_radicand(self, other)
        u = self.u * other.w - other.u * self.w
        v = self.v * other.w - other.v * self.w
        return QFieldElement(u, v, self.w * other.w, d)

    def __mul__(self, k: int) -> QFieldElement:
        if not is_int(k):
            return NotImplemented
        return QFieldElement(self.u * k, self.v * k, self.w, self.D)

    __rmul__ = __mul__

    def __float__(self) -> float:
        return (self.u + self.v * math.sqrt(self.D)) / self.w


def sign_of(e: QFieldElement) -> int:
    """Exact sign (-1, 0, +1) of a field element, by integer case analysis."""
    if not isinstance(e, QFieldElement):
        raise DomainError(f"sign_of needs a QFieldElement, got {e!r}")
    # w > 0 after normalization, so only the numerator u + v*sqrt(D) matters
    return _sign(e.u, e.v, e.D)


def _element(m: Magnitude, other: Magnitude) -> QFieldElement:
    """m as a field element; a rational m carries the radicand of other."""
    if isinstance(m, Fraction):
        d = other.D if isinstance(other, QuadraticSurd) else 0
        return QFieldElement(m.numerator, 0, m.denominator, d)
    return QFieldElement(m.P, 1, m.Q, m.D)


def _quotient(a: QFieldElement, b: QFieldElement) -> Magnitude:
    """The positive quotient a/b as a Fraction or as a QuadraticSurd state.

    Multiplying through by the conjugate of b gives the element e =
    (u + v*sqrt(D))/w, which is (P + sqrt(E))/Q with E = v^2 D and
    (P, Q) = (u, w) signed like v; e's normal form keeps a common factor out
    of E.  When Q does not divide E - P^2, scaling P and Q by w and E by w^2
    restores the divisibility invariant.
    """
    d = _common_radicand(a, b)
    u = b.w * (a.u * b.u - a.v * b.v * d)
    v = b.w * (a.v * b.u - a.u * b.v)
    e = QFieldElement(u, v, a.w * (b.u * b.u - b.v * b.v * d), d)
    if e.v == 0:
        return Fraction(e.u, e.w)
    E = e.v * e.v * e.D
    P, Q = (e.u, e.w) if e.v > 0 else (-e.u, -e.w)
    if (E - P * P) % Q == 0:
        return QuadraticSurd(P, Q, E)
    return QuadraticSurd(P * e.w, Q * e.w, E * e.w * e.w)
