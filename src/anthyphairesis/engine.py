"""The anthyphairesis engine over exact magnitudes.

Given magnitudes a > b > 0 (each a Fraction or a QuadraticSurd), the engine
reduces the pair to the single exact ratio x = a/b and expands it by
reciprocal subtraction: I = floor(x), x <- 1/(x - I).  Quotient chains are
scale-invariant, so nothing is lost by the reduction.

For a rational ratio the chain terminates (Elements VII.1-2 / X.3 content);
for a quadratic surd the walk lives on a finite set of states (P + sqrt(D))/Q,
so some state must recur.  The walk steps raw integers (P, Q) and stores no
states: by Galois (1829) the first state to recur is the first reduced one,
0 < P <= s and s - P < Q <= s + P with s = isqrt(D), so the walk records it
and stops when it comes back, an eventually-periodic termination with that
state as witness.  Two guards run on every step: the step's division must be
exact, and every state of the period must lie in the reduced box; either
failure raises InternalInvariantError.  An infinite (here: provably
periodic) chain is exactly the incommensurable case (Elements X.2 and its
converse).

The field arithmetic (operands, their ratio, remainders) is QFieldElement
arithmetic from surd; this module keeps the walk, the trace, the budget and
the verdict.  Two surd inputs must carry the same D; cross-field pairs such
as sqrt(2) versus sqrt(3) are rejected.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Union

from .errors import BudgetError, DomainError, InternalInvariantError, is_int, require_int
from .euclid import anth_nat, reconstruct_from_quotients
from .surd import Magnitude, QFieldElement, QuadraticSurd, floor_of, isqrt
from .surd import _element, _quotient


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
    full period: the preperiod ends at the first reduced state, the witness,
    and the run stops when the walk returns to it, which is the first state
    recurrence.
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


def _operands(a: Magnitude | int, b: Magnitude | int) -> tuple[QFieldElement, QFieldElement]:
    """Both operands as field elements (radicand 0 if both are rational);
    _quotient refuses a pair from two fields."""
    a, b = _coerce(a), _coerce(b)
    return _element(a, b), _element(b, a)


def _ratio(a: Magnitude | int, b: Magnitude | int) -> Magnitude:
    """The exact quotient a/b as a single magnitude."""
    return _quotient(*_operands(a, b))


def _above_one(x: Magnitude) -> Magnitude:
    """The ratio x of a pair a : b, checked to have a > b."""
    if isinstance(x, Fraction):
        if x <= 1:
            raise DomainError(f"need a > b, got ratio {x}")
    elif floor_of(x) < 1:
        raise DomainError("need a > b")
    return x


def _steps(x: QuadraticSurd, s: int) -> Iterator[tuple[int, int, int]]:
    """The walk from x on raw integers: each quotient I with the state (P, Q) it leads to.

    s is isqrt(D).  This is anth_step without the QuadraticSurd: an inexact
    division raises InternalInvariantError there and here.
    """
    P, Q, D = x.P, x.Q, x.D
    while True:
        # floor((P + sqrt(D))/Q), with P + s < P + sqrt(D) < P + s + 1
        I = (P + s) // Q if Q > 0 else (P + s + 1) // Q
        P2 = I * Q - P
        Q2, rem = divmod(D - P2 * P2, Q)
        if rem:
            raise InternalInvariantError(f"walk divisibility failed at state ({P}, {Q}, {D})")
        P, Q = P2, Q2
        yield I, P, Q


def _read_quotients(x: Magnitude) -> Iterator[int]:
    """The quotients of a ratio x > 1, read lazily: no periodicity search, no budget.

    A surd ratio gives the quotients of _steps; a rational one the anth_nat chain.
    """
    if isinstance(x, Fraction):
        yield from anth_nat(x.numerator, x.denominator).quotients
    else:
        for quotient, _, _ in _steps(x, isqrt(x.D)):
            yield quotient


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
    x = _above_one(_ratio(a, b))
    if isinstance(x, Fraction):
        quotients = anth_nat(x.numerator, x.denominator).quotients
        if max_steps is not None and len(quotients) > max_steps:
            raise BudgetError(f"no exact division within {max_steps} steps")
        return AnthTrace(quotients, Finite(), len(quotients))
    budget = max_steps if max_steps is not None else 10 * (x.D + 2)
    D, s = x.D, isqrt(x.D)
    # islice takes no stop above sys.maxsize, and no walk gets that far
    steps = itertools.islice(_steps(x, s), min(budget, sys.maxsize))
    quotients = []
    # the period starts at the first reduced state (Galois, 1829)
    P0, Q0 = x.P, x.Q
    if not (P0 <= s and s - P0 < Q0 <= s + P0):
        for quotient, P0, Q0 in steps:
            quotients.append(quotient)
            if P0 <= s and s - P0 < Q0 <= s + P0:
                break
    j = len(quotients)
    # the period returns to (P0, Q0) through reduced states only; if the
    # budget ran out above, steps is empty and the loop below does not run
    for quotient, P, Q in steps:
        quotients.append(quotient)
        if not (P <= s and s - P < Q <= s + P):
            raise InternalInvariantError(f"period state ({P}, {Q}, {D}) is not reduced")
        if P == P0 and Q == Q0:
            k = len(quotients)
            witness = QuadraticSurd(P, Q, D)
            return AnthTrace(tuple(quotients), EventuallyPeriodic(j, k - j, witness), k)
    raise BudgetError(f"no state recurrence within {budget} steps (D={D})")


def quotient_prefix(trace: AnthTrace, k: int) -> tuple[int, ...]:
    """First k quotients of the expansion the trace stands for.

    A periodic trace determines the whole infinite chain, so k may exceed
    the emitted quotients; a finite chain is truncated at its full length.
    """
    require_int(k, "k", 0)
    if trace.is_finite:
        return tuple(trace.quotients[:k])
    period = itertools.cycle(trace.period_quotients)
    return tuple(itertools.islice(itertools.chain(trace.preperiod_quotients, period), k))


def remainder_sequence(
    a: Magnitude | int, b: Magnitude | int, k: int
) -> list[QFieldElement]:
    """The exact remainders e_1 ... e_k of the chain on (a, b).

    e_{n+1} = e_{n-1} - I_n * e_n with e_{-1} = a, e_0 = b, exactly the
    leftovers of reciprocal subtraction.  Each one satisfies
    0 < e_{n+1} < e_n; a finite chain ends with a single 0 element (the
    exact-division terminator) and the sequence truncates there.  Only k
    quotients are read, so there is no periodicity search and no budget.
    """
    require_int(k, "k", 0)
    prev, cur = _operands(a, b)
    out: list[QFieldElement] = []
    for quotient in itertools.islice(_read_quotients(_above_one(_quotient(prev, cur))), k):
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
