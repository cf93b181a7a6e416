"""Checkable commensurability and incommensurability certificates.

Four certificate kinds, one per proof route:

* finite_anth     -- a terminating division chain on a pair of naturals,
                     certifying their ratio and gcd (commensurable case);
* periodic_anth   -- a recurring complete-quotient state of sqrt(C),
                     certifying the chain never terminates (incommensurable);
* parity          -- the even/odd contradiction for C = 2*k^2;
* residue_descent -- the squares-mod-8 contradiction, with C -> C/4 descent
                     for multiples of four.

check() replays rather than trusts: division chains are re-divided, the
witness state is re-walked with anth_step, and every congruence assertion is
re-verified by finite modular enumeration after the step list is compared
with the canonical list for the certificate's C.  Nothing in a certificate
is taken on faith, and any single-field tampering breaks either the replay,
the canonical shape, or an enumeration.

The wire format is JSON: top-level fields "kind" and "version" (the integer
1), then the kind's own fields.  Every other integer is a canonical decimal
string (arbitrary precision survives any JSON reader; no floats can appear).
parse() is strict: unknown fields, duplicate fields, non-canonical numerals,
and wrong shapes are parse errors; violated value invariants (for example a
witness state with Q = 0) are semantic errors.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Any, Union

from .engine import AnthTrace, EventuallyPeriodic
from .errors import DomainError
from .euclid import anth_nat
from .surd import QuadraticSurd, anth_step


class CertificateError(ValueError):
    """Base for everything certificate-shaped going wrong."""


class MalformedCertificateError(CertificateError):
    """An in-memory certificate object has the wrong structure."""


class CertificateParseError(CertificateError):
    """The document is not a well-formed certificate (shape level)."""


class CertificateSemanticError(CertificateError):
    """Well-shaped document whose values violate a certificate invariant."""


# ---------------------------------------------------------------------------
# congruence assertions: the machine-checkable steps of parity/residue proofs


@dataclass(frozen=True)
class SquaresMod:
    """Claim: the squares modulo `modulus` are exactly `allowed`."""

    modulus: int
    allowed: tuple[int, ...]


@dataclass(frozen=True)
class ForcesEven:
    """Claim: a^2 = coeff*b^2 (mod modulus) forces the given side even."""

    modulus: int
    coeff: int
    side: str  # "lhs" (a even) or "rhs" (b even)


@dataclass(frozen=True)
class NoCoprimeSolution:
    """Claim: a^2 = coeff*b^2 (mod modulus) has no solution with
    gcd(a, b, modulus) = 1, so no coprime integer pair can satisfy
    m^2 = coeff * n^2 once both are reduced modulo `modulus`."""

    modulus: int
    coeff: int


@dataclass(frozen=True)
class QuarterDescent:
    """Claim: source = 4 * target (one m -> m/2 elimination of a factor 4)."""

    source: int
    target: int


Step = Union[SquaresMod, ForcesEven, NoCoprimeSolution, QuarterDescent]


def _is_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _verify_squares_mod(s: SquaresMod) -> bool:
    if not _is_int(s.modulus) or s.modulus < 2:
        return False
    if not all(_is_int(r) for r in s.allowed):
        return False
    allowed = set(s.allowed)
    if tuple(sorted(allowed)) != tuple(s.allowed):
        return False
    return {(r * r) % s.modulus for r in range(s.modulus)} == allowed


def _verify_forces_even(s: ForcesEven) -> bool:
    if not _is_int(s.modulus) or not _is_int(s.coeff):
        return False
    if s.modulus < 2 or s.modulus % 2 != 0 or s.side not in ("lhs", "rhs"):
        return False
    for a in range(s.modulus):
        for b in range(s.modulus):
            if (a * a - s.coeff * b * b) % s.modulus == 0:
                witness = a if s.side == "lhs" else b
                if witness % 2 != 0:
                    return False
    return True


def _verify_no_coprime_solution(s: NoCoprimeSolution) -> bool:
    if not _is_int(s.modulus) or not _is_int(s.coeff) or s.modulus < 2:
        return False
    for a in range(s.modulus):
        for b in range(s.modulus):
            if math.gcd(math.gcd(a, b), s.modulus) != 1:
                continue
            if (a * a - s.coeff * b * b) % s.modulus == 0:
                return False
    return True


def _verify_quarter_descent(s: QuarterDescent) -> bool:
    if not _is_int(s.source) or not _is_int(s.target):
        return False
    return s.target >= 1 and s.source == 4 * s.target


def verify_step(step: Step) -> bool:
    """Re-establish one congruence assertion by finite enumeration."""
    if isinstance(step, SquaresMod):
        return _verify_squares_mod(step)
    if isinstance(step, ForcesEven):
        return _verify_forces_even(step)
    if isinstance(step, NoCoprimeSolution):
        return _verify_no_coprime_solution(step)
    if isinstance(step, QuarterDescent):
        return _verify_quarter_descent(step)
    raise MalformedCertificateError(f"unknown step type: {step!r}")


def parity_steps() -> tuple[Step, ...]:
    """Canonical step list for the even/odd contradiction on m^2 = 2*n^2."""
    return (
        SquaresMod(4, (0, 1)),
        ForcesEven(4, 2, "lhs"),
        ForcesEven(4, 2, "rhs"),
        NoCoprimeSolution(4, 2),
    )


def descent_chain(C: int) -> tuple[int, ...]:
    """C, C/4, C/16, ... until the head is no longer divisible by four."""
    if not _is_int(C) or C < 1:
        raise DomainError(f"C must be a positive integer, got {C!r}")
    chain = [C]
    while chain[-1] % 4 == 0:
        chain.append(chain[-1] // 4)
    return tuple(chain)


def residue_class_label(C: int) -> str:
    """The residue-class name (4n, 4n+2, 4n+3, 8k+5, 8k+1) driving the proof."""
    if not _is_int(C) or C < 1:
        raise DomainError(f"C must be a positive integer, got {C!r}")
    if C % 4 == 0:
        return "4n"
    if C % 4 == 3:
        return "4n+3"
    if C % 4 == 2:
        return "4n+2"
    return "8k+5" if C % 8 == 5 else "8k+1"


def residue_steps(chain: tuple[int, ...]) -> tuple[Step, ...]:
    """Canonical step list for a descent chain ending outside class 8k+1.

    class 4n+3 is contradicted modulo 4; classes 4n+2 and 8k+5 modulo 8,
    where the squares are only 0, 1, 4.
    """
    if len(chain) == 0:
        raise DomainError("empty descent chain")
    steps: list[Step] = []
    if len(chain) > 1:
        # 4 | C makes m^2 = C*n^2 divisible by 4, so m is even and a factor
        # 4 cancels: the descent steps record each such cancellation
        steps.append(ForcesEven(4, 0, "lhs"))
        steps.extend(
            QuarterDescent(chain[i], chain[i + 1]) for i in range(len(chain) - 1)
        )
    head = chain[-1]
    if head % 8 == 1:
        raise DomainError(f"class 8k+1 cannot be certified (C descends to {head})")
    if head % 4 == 3:
        steps.append(SquaresMod(4, (0, 1)))
        steps.append(NoCoprimeSolution(4, 3))
    else:
        steps.append(SquaresMod(8, (0, 1, 4)))
        steps.append(NoCoprimeSolution(8, head % 8))
    return tuple(steps)


# ---------------------------------------------------------------------------
# certificate kinds


@dataclass(frozen=True)
class FiniteAnthCertificate:
    """A full division chain on m > n: quotients and the resulting gcd."""

    m: int
    n: int
    quotients: tuple[int, ...]
    gcd: int


@dataclass(frozen=True)
class PeriodicAnthCertificate:
    """A recurring state in the expansion of sqrt(C) versus 1.

    witness_state is the (P, Q, D) triple reached after the preperiod;
    walking one full period from it returns to it, which pins the expansion
    to an infinite chain.  recurrence_offset repeats the preperiod length
    explicitly so the document is self-describing.
    """

    C: int
    preperiod_quotients: tuple[int, ...]
    period_quotients: tuple[int, ...]
    witness_state: tuple[int, int, int]
    recurrence_offset: int


@dataclass(frozen=True)
class ParityCertificate:
    """The even/odd contradiction for C = 2*k^2 (reduction factor k)."""

    C: int
    reduction_factor: int
    steps: tuple[Step, ...]


@dataclass(frozen=True)
class ResidueDescentCertificate:
    """The squares-mod-8 contradiction for C, after full C -> C/4 descent."""

    C: int
    class_label: str
    descent_chain: tuple[int, ...]
    steps: tuple[Step, ...]


Certificate = Union[
    FiniteAnthCertificate,
    PeriodicAnthCertificate,
    ParityCertificate,
    ResidueDescentCertificate,
]

KINDS = {
    FiniteAnthCertificate: "finite_anth",
    PeriodicAnthCertificate: "periodic_anth",
    ParityCertificate: "parity",
    ResidueDescentCertificate: "residue_descent",
}


# ---------------------------------------------------------------------------
# builders


def finite_anth_certificate(m: int, n: int) -> FiniteAnthCertificate:
    """Run the division chain on m > n >= 1 and package it."""
    if not _is_int(m) or not _is_int(n) or not (m > n >= 1):
        raise DomainError(f"need integers m > n >= 1, got m={m!r}, n={n!r}")
    chain = anth_nat(m, n)
    return FiniteAnthCertificate(m, n, chain.quotients, chain.gcd)


def periodic_anth_certificate(trace: AnthTrace) -> PeriodicAnthCertificate:
    """Package a periodic engine trace of sqrt(C) versus 1.

    Raises DomainError for finite traces and for traces whose start is not
    (0 + sqrt(C))/1, since the certificate schema replays from that state.
    """
    t = trace.termination
    if not isinstance(t, EventuallyPeriodic):
        raise DomainError("only a periodic trace can be certified as infinite")
    w = t.witness_state
    cert = PeriodicAnthCertificate(
        C=w.D,
        preperiod_quotients=trace.preperiod_quotients,
        period_quotients=trace.period_quotients,
        witness_state=(w.P, w.Q, w.D),
        recurrence_offset=t.preperiod_len,
    )
    if not check(cert):
        raise DomainError(
            "trace does not describe sqrt(C) versus 1; its recurrence cannot "
            "be replayed from (0 + sqrt(C))/1"
        )
    return cert


# ---------------------------------------------------------------------------
# checking


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise MalformedCertificateError(msg)


def _require_int_seq(xs: Any, what: str) -> None:
    _require(isinstance(xs, tuple), f"{what} must be a tuple")
    _require(all(_is_int(x) for x in xs), f"{what} must contain integers")


def _check_finite(cert: FiniteAnthCertificate) -> bool:
    _require(_is_int(cert.m) and _is_int(cert.n), "m and n must be integers")
    _require_int_seq(cert.quotients, "quotients")
    _require(len(cert.quotients) > 0, "quotients must be non-empty")
    _require(_is_int(cert.gcd), "gcd must be an integer")
    if not (cert.m > cert.n >= 1) or cert.gcd < 1:
        return False
    if any(q < 1 for q in cert.quotients):
        return False
    # its own replay rather than anth_nat, so one chain bug cannot pass both
    a, b = cert.m, cert.n
    for q in cert.quotients:
        if b == 0:
            return False  # chain claims more steps than the pair has
        if a // b != q:
            return False
        a, b = b, a % b
    return b == 0 and a == cert.gcd


def _check_periodic(cert: PeriodicAnthCertificate) -> bool:
    _require(_is_int(cert.C), "C must be an integer")
    _require_int_seq(cert.preperiod_quotients, "preperiod_quotients")
    _require_int_seq(cert.period_quotients, "period_quotients")
    _require(len(cert.period_quotients) > 0, "period_quotients must be non-empty")
    _require(
        isinstance(cert.witness_state, tuple) and len(cert.witness_state) == 3,
        "witness_state must be a (P, Q, D) triple",
    )
    _require_int_seq(cert.witness_state, "witness_state")
    _require(_is_int(cert.recurrence_offset), "recurrence_offset must be an integer")
    if cert.C < 2:
        return False
    if any(q < 1 for q in cert.preperiod_quotients + cert.period_quotients):
        return False
    if cert.recurrence_offset != len(cert.preperiod_quotients):
        return False
    p, q, d = cert.witness_state
    if d != cert.C:
        return False
    try:
        witness = QuadraticSurd(p, q, d)
        state: QuadraticSurd = QuadraticSurd(0, 1, cert.C)
    except DomainError:
        return False  # square C, zero Q, broken divisibility, ...
    for expected in cert.preperiod_quotients:
        emitted, state = anth_step(state)
        if emitted != expected:
            return False
    if state != witness:
        return False
    for expected in cert.period_quotients:
        emitted, state = anth_step(state)
        if emitted != expected:
            return False
    return state == witness


def _check_steps(actual: tuple[Step, ...], canonical: tuple[Step, ...]) -> bool:
    if actual != canonical:
        return False
    return all(verify_step(s) for s in actual)


def _check_parity(cert: ParityCertificate) -> bool:
    _require(_is_int(cert.C) and _is_int(cert.reduction_factor), "C and reduction_factor must be integers")
    _require(isinstance(cert.steps, tuple), "steps must be a tuple")
    k = cert.reduction_factor
    if k < 1 or cert.C != 2 * k * k:
        return False
    return _check_steps(cert.steps, parity_steps())


def _check_residue(cert: ResidueDescentCertificate) -> bool:
    _require(_is_int(cert.C), "C must be an integer")
    _require(isinstance(cert.class_label, str), "class_label must be a string")
    _require_int_seq(cert.descent_chain, "descent_chain")
    _require(isinstance(cert.steps, tuple), "steps must be a tuple")
    if cert.C < 2:
        return False
    chain = descent_chain(cert.C)
    if cert.descent_chain != chain:
        return False
    if chain[-1] % 8 == 1:
        return False  # the method is inconclusive here; nothing to certify
    if cert.class_label != residue_class_label(cert.C):
        return False
    return _check_steps(cert.steps, residue_steps(chain))


def check(cert: Certificate) -> bool:
    """Replay a certificate; True iff every claim re-verifies exactly."""
    if isinstance(cert, FiniteAnthCertificate):
        return _check_finite(cert)
    if isinstance(cert, PeriodicAnthCertificate):
        return _check_periodic(cert)
    if isinstance(cert, ParityCertificate):
        return _check_parity(cert)
    if isinstance(cert, ResidueDescentCertificate):
        return _check_residue(cert)
    raise MalformedCertificateError(f"not a certificate: {cert!r}")


# ---------------------------------------------------------------------------
# serialization


def _step_document(step: Step) -> dict[str, Any]:
    if isinstance(step, SquaresMod):
        return {
            "assert": "squares_mod",
            "modulus": str(step.modulus),
            "allowed": [str(r) for r in step.allowed],
        }
    if isinstance(step, ForcesEven):
        return {
            "assert": "forces_even",
            "modulus": str(step.modulus),
            "coeff": str(step.coeff),
            "side": step.side,
        }
    if isinstance(step, NoCoprimeSolution):
        return {
            "assert": "no_coprime_solution",
            "modulus": str(step.modulus),
            "coeff": str(step.coeff),
        }
    if isinstance(step, QuarterDescent):
        return {
            "assert": "quarter_descent",
            "source": str(step.source),
            "target": str(step.target),
        }
    raise MalformedCertificateError(f"unknown step type: {step!r}")


def to_document(cert: Certificate) -> dict[str, Any]:
    """The certificate as a JSON-ready dict (canonical field order)."""
    if isinstance(cert, FiniteAnthCertificate):
        return {
            "kind": "finite_anth",
            "version": 1,
            "m": str(cert.m),
            "n": str(cert.n),
            "quotients": [str(q) for q in cert.quotients],
            "gcd": str(cert.gcd),
        }
    if isinstance(cert, PeriodicAnthCertificate):
        return {
            "kind": "periodic_anth",
            "version": 1,
            "C": str(cert.C),
            "preperiod_quotients": [str(q) for q in cert.preperiod_quotients],
            "period_quotients": [str(q) for q in cert.period_quotients],
            "witness_state": [str(x) for x in cert.witness_state],
            "recurrence_offset": str(cert.recurrence_offset),
        }
    if isinstance(cert, ParityCertificate):
        return {
            "kind": "parity",
            "version": 1,
            "C": str(cert.C),
            "reduction_factor": str(cert.reduction_factor),
            "steps": [_step_document(s) for s in cert.steps],
        }
    if isinstance(cert, ResidueDescentCertificate):
        return {
            "kind": "residue_descent",
            "version": 1,
            "C": str(cert.C),
            "class_label": cert.class_label,
            "descent_chain": [str(c) for c in cert.descent_chain],
            "steps": [_step_document(s) for s in cert.steps],
        }
    raise MalformedCertificateError(f"not a certificate: {cert!r}")


def serialize(cert: Certificate) -> str:
    """Deterministic JSON text: equal certificates serialize identically."""
    return json.dumps(to_document(cert), indent=2) + "\n"


# ---------------------------------------------------------------------------
# strict parsing

_DECIMAL_RE = re.compile(r"^(0|-?[1-9][0-9]*)$")  # canonical decimal; no -0, no leading zeros


def _p_require(cond: bool, msg: str) -> None:
    if not cond:
        raise CertificateParseError(msg)


def _s_require(cond: bool, msg: str) -> None:
    if not cond:
        raise CertificateSemanticError(msg)


def _p_int(value: Any, field: str) -> int:
    _p_require(
        isinstance(value, str),
        f"{field}: integers must be decimal strings, got {value!r}",
    )
    _p_require(
        _DECIMAL_RE.match(value) is not None,
        f"{field}: not a canonical decimal numeral: {value!r}",
    )
    return int(value)


def _p_int_list(value: Any, field: str) -> tuple[int, ...]:
    _p_require(isinstance(value, list), f"{field} must be an array")
    return tuple(_p_int(x, f"{field}[{i}]") for i, x in enumerate(value))


def _p_str(value: Any, field: str) -> str:
    _p_require(isinstance(value, str), f"{field} must be a string")
    return value


def _p_object(value: Any, field: str) -> dict[str, Any]:
    _p_require(isinstance(value, dict), f"{field} must be an object")
    return value


def _p_keys(doc: dict[str, Any], required: tuple[str, ...], where: str) -> None:
    missing = [k for k in required if k not in doc]
    _p_require(not missing, f"{where}: missing field(s) {missing}")
    unknown = [k for k in doc if k not in required]
    _p_require(not unknown, f"{where}: unknown field(s) {unknown}")


_STEP_FIELDS = {
    "squares_mod": ("assert", "modulus", "allowed"),
    "forces_even": ("assert", "modulus", "coeff", "side"),
    "no_coprime_solution": ("assert", "modulus", "coeff"),
    "quarter_descent": ("assert", "source", "target"),
}


def _parse_step(value: Any, field: str) -> Step:
    doc = _p_object(value, field)
    _p_require("assert" in doc, f"{field}: missing 'assert'")
    kind = _p_str(doc["assert"], f"{field}.assert")
    _p_require(kind in _STEP_FIELDS, f"{field}: unknown assertion {kind!r}")
    _p_keys(doc, _STEP_FIELDS[kind], field)
    if kind == "squares_mod":
        step: Step = SquaresMod(
            _p_int(doc["modulus"], f"{field}.modulus"),
            _p_int_list(doc["allowed"], f"{field}.allowed"),
        )
    elif kind == "forces_even":
        side = _p_str(doc["side"], f"{field}.side")
        _s_require(side in ("lhs", "rhs"), f"{field}.side must be lhs or rhs")
        step = ForcesEven(
            _p_int(doc["modulus"], f"{field}.modulus"),
            _p_int(doc["coeff"], f"{field}.coeff"),
            side,
        )
    elif kind == "no_coprime_solution":
        step = NoCoprimeSolution(
            _p_int(doc["modulus"], f"{field}.modulus"),
            _p_int(doc["coeff"], f"{field}.coeff"),
        )
    else:
        step = QuarterDescent(
            _p_int(doc["source"], f"{field}.source"),
            _p_int(doc["target"], f"{field}.target"),
        )
    if isinstance(step, (SquaresMod, ForcesEven, NoCoprimeSolution)):
        _s_require(step.modulus >= 2, f"{field}.modulus must be >= 2")
    return step


def _parse_steps(value: Any, field: str) -> tuple[Step, ...]:
    _p_require(isinstance(value, list), f"{field} must be an array")
    _s_require(len(value) > 0, f"{field} must be non-empty")
    return tuple(_parse_step(x, f"{field}[{i}]") for i, x in enumerate(value))


def from_document(doc: Any) -> Certificate:
    """Validate a decoded JSON document and build the certificate."""
    doc = _p_object(doc, "certificate")
    _p_require("kind" in doc, "missing 'kind'")
    kind = _p_str(doc["kind"], "kind")
    _p_require(kind in KINDS.values(), f"unknown certificate kind {kind!r}")
    _p_require("version" in doc, "missing 'version'")
    version = doc["version"]
    _p_require(
        type(version) is int and version == 1,
        f"unsupported version {version!r} (expected the integer 1)",
    )
    if kind == "finite_anth":
        _p_keys(doc, ("kind", "version", "m", "n", "quotients", "gcd"), kind)
        cert: Certificate = FiniteAnthCertificate(
            m=_p_int(doc["m"], "m"),
            n=_p_int(doc["n"], "n"),
            quotients=_p_int_list(doc["quotients"], "quotients"),
            gcd=_p_int(doc["gcd"], "gcd"),
        )
        _s_require(cert.n >= 1, "n must be >= 1")
        _s_require(cert.m > cert.n, "m must exceed n")
        _s_require(len(cert.quotients) > 0, "quotients must be non-empty")
        _s_require(all(q >= 1 for q in cert.quotients), "quotients must be >= 1")
        _s_require(cert.gcd >= 1, "gcd must be >= 1")
        return cert
    if kind == "periodic_anth":
        _p_keys(
            doc,
            (
                "kind",
                "version",
                "C",
                "preperiod_quotients",
                "period_quotients",
                "witness_state",
                "recurrence_offset",
            ),
            kind,
        )
        witness = _p_int_list(doc["witness_state"], "witness_state")
        _p_require(len(witness) == 3, "witness_state must be a (P, Q, D) triple")
        cert = PeriodicAnthCertificate(
            C=_p_int(doc["C"], "C"),
            preperiod_quotients=_p_int_list(
                doc["preperiod_quotients"], "preperiod_quotients"
            ),
            period_quotients=_p_int_list(doc["period_quotients"], "period_quotients"),
            witness_state=(witness[0], witness[1], witness[2]),
            recurrence_offset=_p_int(doc["recurrence_offset"], "recurrence_offset"),
        )
        _s_require(cert.C >= 2, "C must be >= 2")
        _s_require(len(cert.period_quotients) > 0, "period_quotients must be non-empty")
        _s_require(
            all(q >= 1 for q in cert.preperiod_quotients + cert.period_quotients),
            "quotients must be >= 1",
        )
        _s_require(cert.recurrence_offset >= 0, "recurrence_offset must be >= 0")
        try:
            QuadraticSurd(witness[0], witness[1], witness[2])
        except DomainError as exc:
            raise CertificateSemanticError(f"witness_state invalid: {exc}") from None
        return cert
    if kind == "parity":
        _p_keys(doc, ("kind", "version", "C", "reduction_factor", "steps"), kind)
        cert = ParityCertificate(
            C=_p_int(doc["C"], "C"),
            reduction_factor=_p_int(doc["reduction_factor"], "reduction_factor"),
            steps=_parse_steps(doc["steps"], "steps"),
        )
        _s_require(cert.C >= 2, "C must be >= 2")
        _s_require(cert.reduction_factor >= 1, "reduction_factor must be >= 1")
        return cert
    _p_keys(
        doc, ("kind", "version", "C", "class_label", "descent_chain", "steps"), kind
    )
    cert = ResidueDescentCertificate(
        C=_p_int(doc["C"], "C"),
        class_label=_p_str(doc["class_label"], "class_label"),
        descent_chain=_p_int_list(doc["descent_chain"], "descent_chain"),
        steps=_parse_steps(doc["steps"], "steps"),
    )
    _s_require(cert.C >= 2, "C must be >= 2")
    _s_require(
        cert.class_label in ("4n", "4n+2", "4n+3", "8k+5", "8k+1"),
        f"unknown class label {cert.class_label!r}",
    )
    _s_require(len(cert.descent_chain) > 0, "descent_chain must be non-empty")
    _s_require(all(c >= 1 for c in cert.descent_chain), "descent_chain must be >= 1")
    return cert


def _reject_duplicate_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for k, v in pairs:
        if k in out:
            raise CertificateParseError(f"duplicate field {k!r}")
        out[k] = v
    return out


def parse(text: str) -> Certificate:
    """Strictly parse certificate JSON text."""
    if not isinstance(text, str):
        raise CertificateParseError(f"expected text, got {type(text).__name__}")
    try:
        doc = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise CertificateParseError(
            f"not valid JSON: {exc.msg} at position {exc.pos}"
        ) from None
    return from_document(doc)
