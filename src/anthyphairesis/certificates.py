"""Checkable commensurability and incommensurability certificates.

Four certificate kinds, one per proof route:

* finite_anth     -- a terminating division chain on a pair of naturals,
                     certifying their ratio and gcd (commensurable case);
* periodic_anth   -- a recurring complete-quotient state of sqrt(C),
                     certifying the chain never terminates (incommensurable);
* parity          -- the even/odd contradiction for C = 2*k^2;
* residue_descent -- the squares-mod-8 contradiction, with C -> C/4 descent
                     for multiples of four.

check() and verify_step() take three steps, driven by the tables parse()
uses.  Shape: a field whose value is not of its annotated type (a bool for an
int, a list for a tuple, a non-step in steps) raises MalformedCertificateError.
Invariants: a broken value rule of parse() returns False.  Replay: the rest
is re-derived, not trusted: division chains are re-divided, the witness state
is re-walked with anth_step, and every congruence assertion is re-verified by
finite modular enumeration after the step list is compared with the canonical
list for the certificate's C.  Any single-field tampering breaks either the
replay, the canonical shape, or an enumeration.

The wire format is JSON, indented by two spaces as json.dumps(doc, indent=2)
writes it.  A certificate document holds "kind" and "version" (the integer
1), then its dataclass's fields in declaration order; each step holds
"assert", then its fields in the same way.  Every other integer is a
canonical decimal string x, one with str(int(x)) == x (no sign but "-", no
leading zero, no "-0", no whitespace), never a float, of at most
sys.get_int_max_str_digits() digits (4300 by default): a longer numeral is a
parse error, and a longer integer cannot be written (DomainError).  parse()
is strict: unknown, missing or duplicate fields, non-canonical numerals and
wrong shapes are parse errors; violated value invariants (for example a
witness state with Q = 0) are semantic errors.

The codec's cost follows the size of the document, not the number of Python
objects per quotient: serialize() writes the text itself, joining an integer
array _SLICE items at a time, and parse() reads an integer array in one pass,
going item by item only to name a bad item.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass, fields
from functools import cache, partial
from json.encoder import encode_basestring_ascii
from typing import Any, Union

from .engine import AnthTrace, EventuallyPeriodic
from .errors import DomainError, is_int, require_int
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


def _verify_squares_mod(s: SquaresMod) -> bool:
    # the squares in increasing order, each once
    return s.allowed == tuple(sorted({(r * r) % s.modulus for r in range(s.modulus)}))


def _verify_forces_even(s: ForcesEven) -> bool:
    if s.modulus % 2 != 0:
        return False
    for a in range(s.modulus):
        for b in range(s.modulus):
            if (a * a - s.coeff * b * b) % s.modulus == 0:
                witness = a if s.side == "lhs" else b
                if witness % 2 != 0:
                    return False
    return True


def _verify_no_coprime_solution(s: NoCoprimeSolution) -> bool:
    for a in range(s.modulus):
        for b in range(s.modulus):
            if math.gcd(math.gcd(a, b), s.modulus) != 1:
                continue
            if (a * a - s.coeff * b * b) % s.modulus == 0:
                return False
    return True


def _verify_quarter_descent(s: QuarterDescent) -> bool:
    return s.target >= 1 and s.source == 4 * s.target


def verify_step(step: Step) -> bool:
    """Re-establish one congruence assertion by finite enumeration.

    A field of the wrong type raises MalformedCertificateError, a broken
    value rule of parse() returns False, and anything else is enumerated.
    """
    return _validate(step, _ASSERTIONS, "step")


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
    chain = [require_int(C, "C", 1)]
    while chain[-1] % 4 == 0:
        chain.append(chain[-1] // 4)
    return tuple(chain)


def residue_class_label(C: int) -> str:
    """The residue-class name (4n, 4n+2, 4n+3, 8k+5, 8k+1) driving the proof."""
    require_int(C, "C", 1)
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
    for link in chain:
        require_int(link, "descent chain item", 1)
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

_ASSERTIONS = {
    SquaresMod: "squares_mod",
    ForcesEven: "forces_even",
    NoCoprimeSolution: "no_coprime_solution",
    QuarterDescent: "quarter_descent",
}


# ---------------------------------------------------------------------------
# builders


def finite_anth_certificate(m: int, n: int) -> FiniteAnthCertificate:
    """Run the division chain on m > n >= 1 (anth_nat checks both) and package it."""
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


def _misfit(record: Any) -> str | None:
    """The first field of `record` whose value lacks its annotated type."""
    for field, _, _, fits in _SCHEMAS[type(record)]:
        if not fits(getattr(record, field)):
            return field
    return None


def _broken_invariant(record: Any) -> str | None:
    """The message of the first _INVARIANTS row that `record` breaks, if any;
    a condition that raises DomainError breaks with the reason appended."""
    for holds, message in _INVARIANTS.get(type(record), ()):
        try:
            if holds(record):
                continue
        except DomainError as exc:
            message = f"{message}: {exc}"
        return message
    return None


def _shape(record: Any, names: dict, what: str) -> None:
    """MalformedCertificateError unless `record` is in `names` with well-typed fields."""
    if type(record) not in names:
        raise MalformedCertificateError(f"not a {what}: {record!r}")
    field = _misfit(record)
    if field is not None:
        raise MalformedCertificateError(f"{field} must be {type(record).__annotations__[field]}")


def _validate(record: Any, names: dict, what: str) -> bool:
    """Shape, then invariants, then replay, for a record of a class in `names`."""
    _shape(record, names, what)
    return _broken_invariant(record) is None and _REPLAYS[type(record)](record)


def _check_finite(cert: FiniteAnthCertificate) -> bool:
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
    # rules that parse() leaves to the replay
    if cert.recurrence_offset != len(cert.preperiod_quotients):
        return False
    if cert.witness_state[2] != cert.C:
        return False
    witness = QuadraticSurd(*cert.witness_state)
    state = QuadraticSurd(0, 1, cert.C)
    # the preperiod must reach the witness, and one period must return to it
    for quotients in (cert.preperiod_quotients, cert.period_quotients):
        for expected in quotients:
            emitted, state = anth_step(state)
            if emitted != expected:
                return False
        if state != witness:
            return False
    return True


def _check_steps(actual: tuple[Step, ...], canonical: tuple[Step, ...]) -> bool:
    return actual == canonical and all(map(verify_step, actual))


def _check_parity(cert: ParityCertificate) -> bool:
    k = cert.reduction_factor
    return cert.C == 2 * k * k and _check_steps(cert.steps, parity_steps())


def _check_residue(cert: ResidueDescentCertificate) -> bool:
    chain = descent_chain(cert.C)
    if cert.descent_chain != chain:
        return False
    if chain[-1] % 8 == 1:
        return False  # the method is inconclusive here; nothing to certify
    if cert.class_label != residue_class_label(cert.C):
        return False
    return _check_steps(cert.steps, residue_steps(chain))


_REPLAYS = {
    FiniteAnthCertificate: _check_finite,
    PeriodicAnthCertificate: _check_periodic,
    ParityCertificate: _check_parity,
    ResidueDescentCertificate: _check_residue,
    SquaresMod: _verify_squares_mod,
    ForcesEven: _verify_forces_even,
    NoCoprimeSolution: _verify_no_coprime_solution,
    QuarterDescent: _verify_quarter_descent,
}


def check(cert: Certificate) -> bool:
    """Replay a certificate; True iff every claim re-verifies exactly.

    A field of the wrong type raises MalformedCertificateError, a broken
    value rule of parse() returns False, and anything else is replayed.
    """
    return _validate(cert, KINDS, "certificate")


# ---------------------------------------------------------------------------
# wire format: one codec for every record, certificate or step

_TAGS = {"kind": KINDS, "assert": _ASSERTIONS}
_CLASSES = {tag: {name: cls for cls, name in names.items()} for tag, names in _TAGS.items()}
_CLASS_LABELS = ("4n", "4n+2", "4n+3", "8k+5", "8k+1")
_DECIMAL_RE = re.compile(r"0|-?[1-9][0-9]*")  # canonical decimal, as fullmatch; no -0, no leading zeros
_SLICE = 4096  # array items _text joins at a time


def _p_require(cond: bool, msg: str) -> None:
    if not cond:
        raise CertificateParseError(msg)


def _at(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


def _too_long(path: str, what: str) -> str:
    limit = sys.get_int_max_str_digits()
    return f"{path}: {what} exceeds the {limit}-digit limit for integer string conversion"


@cache
def _numerals() -> tuple[str, ...]:
    """One shared string per small quotient, made when a process first writes."""
    return tuple(map(str, range(1024)))


def _write_int(x: int, path: str) -> str:
    if 0 <= x < 1024:
        return _numerals()[x]
    try:
        return str(x)
    except ValueError:  # past sys.get_int_max_str_digits()
        raise DomainError(_too_long(path, f"a {x.bit_length()}-bit integer")) from None


def _int_of(numeral: str, path: str) -> int:
    try:
        return int(numeral)
    except ValueError:  # past sys.get_int_max_str_digits()
        raise CertificateParseError(_too_long(path, f"a {len(numeral)}-digit numeral")) from None


def _read_int(value: Any, path: str) -> int:
    if not isinstance(value, str):
        raise CertificateParseError(f"{path}: integers must be decimal strings, got {value!r}")
    if _DECIMAL_RE.fullmatch(value) is None:
        raise CertificateParseError(f"{path}: not a canonical decimal numeral: {value!r}")
    return _int_of(value, path)


def _read_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise CertificateParseError(f"{path} must be a string")
    return value


def _array(write_item, read_item, fits_item, length: int | None = None):
    """The codec of a tuple of items, of any length or of exactly `length`."""

    def write(items: tuple, path: str) -> list:
        # errors name the field: an index per item would double the cost
        return [write_item(x, path) for x in items]

    def read(value: Any, path: str) -> tuple:
        _p_require(isinstance(value, list), f"{path} must be an array")
        items = _read_ints(value) if read_item is _read_int else None
        if items is None:
            # item by item, so that an error names the item
            items = tuple(read_item(x, f"{path}[{i}]") for i, x in enumerate(value))
        _p_require(length in (None, len(items)), f"{path} must hold {length} items")
        return items

    def fits(value: Any) -> bool:
        return type(value) is tuple and length in (None, len(value)) and all(map(fits_item, value))

    return write, read, fits


def _read_ints(value: list) -> tuple[int, ...] | None:
    """The integers of `value` in one pass, or None unless every item is a
    canonical numeral: a str that is what str() writes for its integer."""
    if not all(map(str.__instancecheck__, value)):
        return None
    try:
        ints = tuple(map(int, value))
    except ValueError:  # not a numeral, or past the digit limit
        return None
    return ints if all(map(str.__eq__, map(str, ints), value)) else None


# value invariants of a record, in the order _broken_invariant checks them
_INVARIANTS = {
    FiniteAnthCertificate: (
        (lambda c: c.n >= 1, "n must be >= 1"),
        (lambda c: c.m > c.n, "m must exceed n"),
        (lambda c: len(c.quotients) > 0, "quotients must be non-empty"),
        (lambda c: all(q >= 1 for q in c.quotients), "quotients must be >= 1"),
        (lambda c: c.gcd >= 1, "gcd must be >= 1"),
    ),
    PeriodicAnthCertificate: (
        (lambda c: c.C >= 2, "C must be >= 2"),
        (lambda c: len(c.period_quotients) > 0, "period_quotients must be non-empty"),
        (lambda c: all(q >= 1 for q in c.preperiod_quotients), "quotients must be >= 1"),
        (lambda c: all(q >= 1 for q in c.period_quotients), "quotients must be >= 1"),
        (lambda c: c.recurrence_offset >= 0, "recurrence_offset must be >= 0"),
        (lambda c: QuadraticSurd(*c.witness_state), "witness_state invalid"),
    ),
    ParityCertificate: (
        (lambda c: len(c.steps) > 0, "steps must be non-empty"),
        (lambda c: c.C >= 2, "C must be >= 2"),
        (lambda c: c.reduction_factor >= 1, "reduction_factor must be >= 1"),
    ),
    ResidueDescentCertificate: (
        (lambda c: len(c.steps) > 0, "steps must be non-empty"),
        (lambda c: c.C >= 2, "C must be >= 2"),
        (lambda c: c.class_label in _CLASS_LABELS, "unknown class label"),
        (lambda c: len(c.descent_chain) > 0, "descent_chain must be non-empty"),
        (lambda c: all(x >= 1 for x in c.descent_chain), "descent_chain must be >= 1"),
    ),
    SquaresMod: ((lambda s: s.modulus >= 2, "modulus must be >= 2"),),
    ForcesEven: (
        (lambda s: s.side in ("lhs", "rhs"), "side must be lhs or rhs"),
        (lambda s: s.modulus >= 2, "modulus must be >= 2"),
    ),
    NoCoprimeSolution: ((lambda s: s.modulus >= 2, "modulus must be >= 2"),),
}


def _document(record: Any, path: str, tag: str = "assert") -> dict[str, Any]:
    """One record of the right shape as a JSON-ready dict: its tag, then its
    fields in order."""
    doc: dict[str, Any] = {tag: _TAGS[tag][type(record)]}
    if tag == "kind":
        doc["version"] = 1
    for field, write, _, _ in _SCHEMAS[type(record)]:
        doc[field] = write(getattr(record, field), _at(path, field))
    return doc


def _record(value: Any, path: str, tag: str = "assert") -> Any:
    """Validate one decoded JSON record at `path` and build its dataclass."""
    where = path or "certificate"
    _p_require(isinstance(value, dict) and tag in value, f"{where} must be an object with {tag!r}")
    name = _read_str(value[tag], _at(path, tag))
    cls = _CLASSES[tag].get(name)
    _p_require(cls is not None, f"{where}: unknown {tag} {name!r}")
    version = value.get("version")
    if tag == "kind" and (not is_int(version) or version != 1):
        raise CertificateParseError(f"unsupported version {version!r} (expected the integer 1)")
    schema = _SCHEMAS[cls]
    keys = ([tag, "version"] if tag == "kind" else [tag]) + [field for field, *_ in schema]
    if value.keys() != set(keys):
        missing = [k for k in keys if k not in value]
        _p_require(not missing, f"{path or name}: missing field(s) {missing}")
        unknown = [k for k in value if k not in keys]
        raise CertificateParseError(f"{path or name}: unknown field(s) {unknown}")
    record = cls(*(read(value[field], _at(path, field)) for field, _, read, _ in schema))
    broken = _broken_invariant(record)
    if broken is not None:
        raise CertificateSemanticError(_at(path, broken))
    return record


# field annotation, as written (annotations are postponed) -> (write, read,
# fits); write and read take the value and its field path, fits takes an
# in-memory value and says whether it has the annotated type
_CODECS = {
    "int": (_write_int, _read_int, is_int),
    "str": (lambda s, path: s, _read_str, lambda s: type(s) is str),
    "tuple[int, ...]": _array(_write_int, _read_int, is_int),
    "tuple[int, int, int]": _array(_write_int, _read_int, is_int, 3),
    "tuple[Step, ...]": _array(
        _document, _record, lambda s: type(s) in _ASSERTIONS and _misfit(s) is None
    ),
}
# record class -> (field, write, read, fits) for each of its dataclass fields
_SCHEMAS = {
    cls: tuple((f.name, *_CODECS[f.type]) for f in fields(cls))
    for names in _TAGS.values() for cls in names
}


def to_document(cert: Certificate) -> dict[str, Any]:
    """The certificate as a JSON-ready dict (canonical field order), after check()'s shape step."""
    _shape(cert, KINDS, "certificate")
    return _document(cert, "", "kind")


def _text(value: Any, level: int) -> str:
    """json.dumps(value, indent=2) for a value nested `level` deep in a
    document: a dict, a list, a str or the version int."""
    if type(value) is str:
        return encode_basestring_ascii(value)
    if type(value) is int:
        return str(value)
    indent = "\n" + "  " * (level + 1)
    sep = "," + indent
    if type(value) is dict:
        body = sep.join(
            f"{encode_basestring_ascii(k)}: {_text(v, level + 1)}" for k, v in value.items()
        )
        return "{" + indent + body + "\n" + "  " * level + "}"
    if not value:
        return "[]"
    if all(map(str.__instancecheck__, value)):
        write = encode_basestring_ascii
    else:
        write = partial(_text, level=level + 1)
    # a slice at a time: joining a whole integer array would first hold one
    # quoted string per item
    slices = (sep.join(map(write, value[i:i + _SLICE])) for i in range(0, len(value), _SLICE))
    return "[" + indent + sep.join(slices) + "\n" + "  " * level + "]"


def serialize(cert: Certificate) -> str:
    """Deterministic JSON text: equal certificates serialize identically."""
    return _text(to_document(cert), 0) + "\n"


def from_document(doc: Any) -> Certificate:
    """Validate a decoded JSON document and build the certificate."""
    return _record(doc, "", "kind")


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
        doc = json.loads(
            text,
            object_pairs_hook=_reject_duplicate_keys,
            parse_int=lambda numeral: _int_of(numeral, "JSON number"),
        )
    except json.JSONDecodeError as exc:
        raise CertificateParseError(
            f"not valid JSON: {exc.msg} at position {exc.pos}"
        ) from None
    except RecursionError:
        raise CertificateParseError("not valid JSON: nested too deeply") from None
    return from_document(doc)
