"""The anthyphairesis engine over exact magnitudes.

Given magnitudes a > b > 0 (each a Fraction or a QuadraticSurd), the engine
reduces the pair to the single exact ratio x = a/b and expands it by
reciprocal subtraction: I = floor(x), x <- 1/(x - I).  Quotient chains are
scale-invariant, so nothing is lost by the reduction.

For a rational ratio the chain terminates (Elements VII.1-2 / X.3 content);
for a quadratic surd the walk lives on a finite set of states (P + sqrt(D))/Q,
so some state must recur, and the first recurrence is reported as an
eventually-periodic termination with the recurring state as witness.  An
infinite (here: provably periodic) chain is exactly the incommensurable case
(Elements X.2 and its converse).

Two surd inputs must carry the same D; cross-field pairs such as sqrt(2)
versus sqrt(3) are rejected.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Union

from .errors import BudgetError, DomainError, is_int, require_int
from .euclid import anth_nat, reconstruct_from_quotients
from .surd import Magnitude, QFieldElement, QuadraticSurd, anth_step, floor_of


@dataclass(frozen=True)
class Finite:
    """The chain closed with an exact division."""


@dataclass(frozen=True)
class EventuallyPeriodic:
    """A state recurred: preperiod, period, and the recurring witness state."""

    preperiod_len: int
    period_len: int
    witness_state: QuadraticSurd


Termination = Union[Finite, EventuallyPeriodic]


@dataclass(frozen=True)
class AnthTrace:
    """Quotients actually emitted, how the run ended, and the step count.

    For a periodic trace the quotients cover exactly one preperiod plus one
    full period (the run stops at the first state recurrence).
    """

    quotients: tuple[int, ...]
    termination: Termination
    steps_executed: int

    @property
    def is_finite(self) -> bool:
        return isinstance(self.termination, Finite)

    @property
    def preperiod_quotients(self) -> tuple[int, ...]:
        if not isinstance(self.termination, EventuallyPeriodic):
            raise DomainError("finite trace has no preperiod/period split")
        return self.quotients[: self.termination.preperiod_len]

    @property
    def period_quotients(self) -> tuple[int, ...]:
        if not isinstance(self.termination, EventuallyPeriodic):
            raise DomainError("finite trace has no preperiod/period split")
        t = self.termination
        return self.quotients[t.preperiod_len : t.preperiod_len + t.period_len]


@dataclass(frozen=True)
class Commensurable:
    """Finite chain: the pair has the exact ratio m : n and a common measure.

    common_measure is expressed as a multiple of the smaller input b: the
    measure is c = common_measure * b (= b/n), and then a = m*c, b = n*c.
    """

    quotients: tuple[int, ...]
    ratio: tuple[int, int]
    common_measure: Fraction


@dataclass(frozen=True)
class Incommensurable:
    """Periodic chain: no common measure exists; certified by replay."""

    certificate_kind: str = "periodic_anth"


Verdict = Union[Commensurable, Incommensurable]


def _coerce(m: Magnitude | int) -> Magnitude:
    if is_int(m):
        m = Fraction(m)
    if isinstance(m, Fraction):
        if m <= 0:
            raise DomainError(f"magnitudes must be positive, got {m}")
        return m
    if isinstance(m, QuadraticSurd):
        return m
    raise DomainError(f"not a magnitude: {m!r}")


def _to_triple(m: Magnitude) -> tuple[int, int, int, Optional[int]]:
    """Magnitude as (u, v, w, D): the value (u + v*sqrt(D))/w with w > 0."""
    if isinstance(m, Fraction):
        return m.numerator, 0, m.denominator, None
    if m.Q > 0:
        return m.P, 1, m.Q, m.D
    return -m.P, -1, -m.Q, m.D


def _merge_fields(da: Optional[int], db: Optional[int]) -> Optional[int]:
    if da is None:
        return db
    if db is None or da == db:
        return da
    raise DomainError(f"incompatible fields: sqrt({da}) versus sqrt({db})")


def _operands(
    a: Magnitude | int, b: Magnitude | int
) -> tuple[tuple[int, int, int], tuple[int, int, int], int]:
    """Both operands as (u, v, w) triples plus their common radicand (0 if none)."""
    u1, v1, w1, da = _to_triple(_coerce(a))
    u2, v2, w2, db = _to_triple(_coerce(b))
    d = _merge_fields(da, db)
    return (u1, v1, w1), (u2, v2, w2), d if d is not None else 0


def _ratio(a: Magnitude | int, b: Magnitude | int) -> Magnitude:
    """The exact quotient a/b as a single magnitude."""
    (u1, v1, w1), (u2, v2, w2), dd = _operands(a, b)
    # divide in the field: multiply by the conjugate of the divisor
    u = w2 * (u1 * u2 - v1 * v2 * dd)
    v = w2 * (v1 * u2 - u1 * v2)
    w = w1 * (u2 * u2 - v2 * v2 * dd)
    if w < 0:
        u, v, w = -u, -v, -w
    # a common factor would be squared into the radicand below
    g = math.gcd(u, v, w)
    u, v, w = u // g, v // g, w // g
    if v == 0:
        return Fraction(u, w)
    # fold the radical's sign into the denominator sign, then restore the
    # divisibility invariant by the standard |Q| blow-up when needed
    e = v * v * dd
    if v > 0:
        p0, q0 = u, w
    else:
        p0, q0 = -u, -w
    if (e - p0 * p0) % q0 == 0:
        return QuadraticSurd(p0, q0, e)
    scale = abs(q0)
    return QuadraticSurd(p0 * scale, q0 * scale, e * scale * scale)


def anthyphairesis(
    a: Magnitude | int, b: Magnitude | int, max_steps: Optional[int] = None
) -> AnthTrace:
    """Expand the ratio a : b for magnitudes a > b > 0.

    max_steps is a safety valve only; the default (10*(D + 2) for a surd
    ratio with radicand D, unbounded for rational ratios) can never be hit
    by valid inputs, so exhausting it raises BudgetError, an internal-defect
    signal rather than a domain error.  For a rational ratio m/n the whole
    division chain anth_nat(m, n) runs first, and BudgetError is raised if
    it has more than max_steps quotients; Lame's theorem bounds its length
    by five times the number of decimal digits of n.
    """
    if max_steps is not None:
        require_int(max_steps, "max_steps", 1)
    x = _ratio(a, b)
    if isinstance(x, Fraction):
        if x <= 1:
            raise DomainError(f"need a > b, got ratio {x}")
        quotients = anth_nat(x.numerator, x.denominator).quotients
        if max_steps is not None and len(quotients) > max_steps:
            raise BudgetError(f"no exact division within {max_steps} steps")
        return AnthTrace(quotients, Finite(), len(quotients))
    if floor_of(x) < 1:
        raise DomainError("need a > b")
    budget = max_steps if max_steps is not None else 10 * (x.D + 2)
    seen: dict[QuadraticSurd, int] = {x: 0}
    quotients = []
    state = x
    for step in range(budget):
        quotient, state = anth_step(state)
        quotients.append(quotient)
        k = step + 1
        if state in seen:
            j = seen[state]
            return AnthTrace(
                tuple(quotients), EventuallyPeriodic(j, k - j, state), k
            )
        seen[state] = k
    raise BudgetError(f"no state recurrence within {budget} steps (D={x.D})")


def _quotient_stream(trace: AnthTrace) -> Iterator[int]:
    if isinstance(trace.termination, Finite):
        return iter(trace.quotients)
    return itertools.chain(
        trace.preperiod_quotients, itertools.cycle(trace.period_quotients)
    )


def quotient_prefix(trace: AnthTrace, k: int) -> tuple[int, ...]:
    """First k quotients of the expansion the trace stands for.

    A periodic trace determines the whole infinite chain, so k may exceed
    the emitted quotients; a finite chain is truncated at its full length.
    """
    require_int(k, "k", 0)
    return tuple(itertools.islice(_quotient_stream(trace), k))


def remainder_sequence(
    a: Magnitude | int, b: Magnitude | int, k: int
) -> list[QFieldElement]:
    """The exact remainders e_1 ... e_k of the chain on (a, b).

    e_{n+1} = e_{n-1} - I_n * e_n with e_{-1} = a, e_0 = b, exactly the
    leftovers of reciprocal subtraction.  Each one satisfies
    0 < e_{n+1} < e_n; a finite chain ends with a single 0 element (the
    exact-division terminator) and the sequence truncates there.
    """
    require_int(k, "k", 0)
    trace = anthyphairesis(a, b)
    (u1, v1, w1), (u2, v2, w2), dd = _operands(a, b)
    prev = QFieldElement(u1, v1, w1, dd)
    cur = QFieldElement(u2, v2, w2, dd)
    out: list[QFieldElement] = []
    for quotient in _quotient_stream(trace):
        if len(out) == k:
            break
        nxt = prev - quotient * cur
        out.append(nxt)
        if nxt.is_zero():
            break
        prev, cur = cur, nxt
    return out


def verdict(trace: AnthTrace) -> Verdict:
    """Commensurable for a finite trace, incommensurable for a periodic one.

    For the finite case the quotients are folded back up into the reduced
    ratio m : n, and the common measure is read off as b/n: it measures a
    exactly m times and b exactly n times.
    """
    if isinstance(trace.termination, EventuallyPeriodic):
        return Incommensurable()
    m, n = reconstruct_from_quotients(trace.quotients)
    return Commensurable(
        quotients=trace.quotients, ratio=(m, n), common_measure=Fraction(1, n)
    )


def number_to_number(a: Magnitude | int, b: Magnitude | int) -> Optional[tuple[int, int]]:
    """The ratio a : b as a coprime pair of naturals, or None if irrational.

    This is the "has the ratio of a number to a number" test; it agrees with
    verdict wherever both apply (a value comes back iff the trace is finite).
    """
    x = _ratio(a, b)
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    return None
