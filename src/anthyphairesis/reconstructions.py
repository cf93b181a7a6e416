"""Competing irrationality-proof routes, and the table comparing them.

Each prover answers "is sqrt(C) incommensurable with 1?" by a different
historical strategy:

* parity_proof    -- the even/odd contradiction; applies exactly to C = 2*k^2
                     (sqrt(C) = k*sqrt(2), so the Pythagorean sqrt(2) proof
                     carries over by rational scaling);
* residue_prover  -- congruence contradictions from squares mod 8 being only
                     {0, 1, 4}, descending C -> C/4 while 4 | C.  Built-in
                     blind spot: once the descent head is congruent to 1 mod
                     8 (first non-square instance: C = 17), the relation
                     m^2 = C*n^2 is consistent mod 8 and the method returns
                     Inconclusive;
* the engine      -- anthyphairesis periodicity (see engine.verdict), which
                     settles every non-square C uniformly;
* modern_oracle   -- the blunt arithmetic fact: sqrt(C) is irrational iff C
                     is not a perfect square.

theodorus_table runs all of them over an inclusive range of C and reports
the outcomes side by side, without adjudicating between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .certificates import (
    Certificate,
    ParityCertificate,
    ResidueDescentCertificate,
    descent_chain,
    finite_anth_certificate,
    parity_steps,
    periodic_anth_certificate,
    residue_class_label,
    residue_steps,
)
from .engine import AnthTrace, EventuallyPeriodic, anthyphairesis, verdict
from .errors import DomainError, require_int
from .surd import _is_square, isqrt, make_sqrt


@dataclass(frozen=True)
class Proved:
    certificate: Certificate


@dataclass(frozen=True)
class Inconclusive:
    """The method ran and could not decide; reason names the defeating class."""

    reason: str


@dataclass(frozen=True)
class NotApplicable:
    """The method's precondition does not hold for this C."""

    reason: str


ProofOutcome = Union[Proved, Inconclusive, NotApplicable]


def parity_proof(C: int) -> ProofOutcome:
    """Even/odd contradiction for C of the form 2*k^2, else NotApplicable."""
    require_int(C, "C", 2)
    if C % 2 == 0:
        k = isqrt(C // 2)
        if 2 * k * k == C:
            return Proved(ParityCertificate(C, k, parity_steps()))
    return NotApplicable(f"{C} is not of the form 2*k^2")


def residue_prover(C: int) -> ProofOutcome:
    """Squares-mod-8 contradiction with C -> C/4 descent.

    Proved for descent heads in classes 4n+2, 4n+3, 8k+5; Inconclusive for
    heads in class 8k+1, where squares mod 8 cannot separate m^2 from C*n^2.
    Perfect squares are a domain error: there is nothing to prove and the
    caller is expected to have filtered them.
    """
    require_int(C, "C", 2)
    if _is_square(C):
        raise DomainError(f"{C} is a perfect square")
    chain = descent_chain(C)
    if chain[-1] % 8 == 1:
        return Inconclusive("8k+1")
    return Proved(
        ResidueDescentCertificate(
            C=C,
            class_label=residue_class_label(C),
            descent_chain=chain,
            steps=residue_steps(chain),
        )
    )


def modern_oracle(C: int) -> bool:
    """True iff sqrt(C) is irrational, i.e. C is not a perfect square."""
    require_int(C, "C", 1)
    return not _is_square(C)


def theaetetus_squaring(C: int) -> tuple[AnthTrace, AnthTrace]:
    """The side/square contrast for non-square C.

    The side sqrt(C) against the unit gives an infinite (periodic) chain,
    while the squares C against 1 stand in the ratio of a number to a
    number: a finite chain of one exact division.  Returns (side_trace,
    square_trace).
    """
    require_int(C, "C", 2)
    if _is_square(C):
        raise DomainError(f"{C} is a perfect square")
    side = anthyphairesis(make_sqrt(C), Fraction(1))
    square = anthyphairesis(Fraction(C), Fraction(1))
    return side, square


@dataclass(frozen=True)
class AnthSummary:
    """Shape of an expansion: its quotients and, if periodic, the split."""

    quotients: tuple[int, ...]
    preperiod_len: Optional[int]
    period_len: Optional[int]

    @property
    def periodic(self) -> bool:
        return self.period_len is not None


@dataclass(frozen=True)
class TableRow:
    C: int
    is_square: bool
    anth: AnthSummary
    parity: ProofOutcome
    residue: ProofOutcome
    oracle: bool
    certificate: Certificate


def _summarize(trace: AnthTrace) -> AnthSummary:
    t = trace.termination
    if isinstance(t, EventuallyPeriodic):
        return AnthSummary(trace.quotients, t.preperiod_len, t.period_len)
    return AnthSummary(trace.quotients, None, None)


def _anth_certificate(trace: AnthTrace) -> Certificate:
    """The certificate for an engine trace of sqrt(C) versus 1.

    A square C gives a finite chain, certified by the division chain of its
    ratio; any other C gives a periodic trace, whose certificate builder
    replays it before returning.
    """
    if trace.is_finite:
        return finite_anth_certificate(*verdict(trace).ratio)
    return periodic_anth_certificate(trace)


def theodorus_table(
    lo: int = 2, hi: int = 17, max_steps: Optional[int] = None
) -> list[TableRow]:
    """One row per C from lo up to and including hi.

    Every row carries the anthyphairesis summary plus the verdicts of the
    competing provers.  Square C are marked and the incommensurability
    provers are skipped for them (reported as NotApplicable); their
    expansion is still run and is finite, with a finite-chain certificate.
    """
    require_int(lo, "lo", 2)
    require_int(hi, "hi", lo)
    rows = []
    for C in range(lo, hi + 1):
        oracle = modern_oracle(C)
        is_square = not oracle
        trace = anthyphairesis(make_sqrt(C), Fraction(1), max_steps)
        if is_square:
            skip = NotApplicable(f"{C} is a perfect square")
            parity: ProofOutcome = skip
            residue: ProofOutcome = skip
        else:
            parity = parity_proof(C)
            residue = residue_prover(C)
        rows.append(
            TableRow(
                C=C,
                is_square=is_square,
                anth=_summarize(trace),
                parity=parity,
                residue=residue,
                oracle=oracle,
                certificate=_anth_certificate(trace),
            )
        )
    return rows
