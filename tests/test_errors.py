"""The integer rule at every public entry point.

An integer argument must be an int proper.  Each cell below passes one public
function or validating constructor a valid call with one integer replaced by
the same number in another type (or by True), and expects DomainError.
Certificate records and result records are plain data: `check` validates the
former (see test_certificates.py), and the library builds the latter itself.
"""

from enum import IntEnum
from fractions import Fraction

import pytest

from anthyphairesis import (
    DomainError,
    QFieldElement,
    QuadraticSurd,
    anth_nat,
    anthyphairesis,
    convergents,
    descent_chain,
    finite_anth_certificate,
    gcd_of,
    isqrt,
    make_sqrt,
    modern_oracle,
    number_to_number,
    parity_proof,
    pell_residual,
    quotient_prefix,
    reconstruct_from_quotients,
    remainder_sequence,
    residue_class_label,
    residue_prover,
    residue_steps,
    scale_invariance_check,
    side_diameter,
    theaetetus_squaring,
    theodorus_table,
)
from anthyphairesis.errors import is_int, require_int

SQRT2_TRACE = anthyphairesis(make_sqrt(2), Fraction(1))


# name -> (callable, a valid argument tuple, the index of the integer to replace,
# or the name of a tuple-valued first argument whose first item is replaced)
ENTRY_POINTS = {
    "isqrt.n": (isqrt, (17,), 0),
    "make_sqrt.C": (make_sqrt, (17,), 0),
    "QuadraticSurd.P": (QuadraticSurd, (1, 1, 2), 0),
    "QuadraticSurd.Q": (QuadraticSurd, (1, 1, 2), 1),
    "QuadraticSurd.D": (QuadraticSurd, (1, 1, 2), 2),
    "QFieldElement.u": (QFieldElement, (1, 2, 3, 5), 0),
    "QFieldElement.v": (QFieldElement, (1, 2, 3, 5), 1),
    "QFieldElement.w": (QFieldElement, (1, 2, 3, 5), 2),
    "QFieldElement.D": (QFieldElement, (1, 2, 3, 5), 3),
    "convergents.quotients": (convergents, ((3, 2, 2), 3), "quotients"),
    "convergents.k": (convergents, ((3, 2, 2), 2), 1),
    "side_diameter.n": (side_diameter, (3,), 0),
    "pell_residual.p": (pell_residual, (3, 2, 2), 0),
    "pell_residual.q": (pell_residual, (3, 2, 2), 1),
    "pell_residual.C": (pell_residual, (3, 2, 2), 2),
    "anth_nat.m": (anth_nat, (17, 5), 0),
    "anth_nat.n": (anth_nat, (17, 5), 1),
    "gcd_of.m": (gcd_of, (170, 50), 0),
    "gcd_of.n": (gcd_of, (170, 50), 1),
    "reconstruct_from_quotients.quotients": (
        reconstruct_from_quotients, ((3, 2, 2),), "quotients"
    ),
    "scale_invariance_check.m": (scale_invariance_check, (17, 5, 3), 0),
    "scale_invariance_check.n": (scale_invariance_check, (17, 5, 3), 1),
    "anthyphairesis.a": (anthyphairesis, (17, 5), 0),
    "anthyphairesis.b": (anthyphairesis, (17, 5), 1),
    "anthyphairesis.max_steps": (anthyphairesis, (make_sqrt(2), 1, 10), 2),
    "number_to_number.a": (number_to_number, (17, 5), 0),
    "number_to_number.b": (number_to_number, (17, 5), 1),
    "remainder_sequence.a": (remainder_sequence, (17, 5, 2), 0),
    "remainder_sequence.b": (remainder_sequence, (17, 5, 2), 1),
    "remainder_sequence.k": (remainder_sequence, (17, 5, 2), 2),
    "quotient_prefix.k": (quotient_prefix, (SQRT2_TRACE, 3), 1),
    "descent_chain.C": (descent_chain, (12,), 0),
    "residue_class_label.C": (residue_class_label, (6,), 0),
    "residue_steps.chain": (residue_steps, ((12, 3),), "chain"),
    "finite_anth_certificate.m": (finite_anth_certificate, (17, 5), 0),
    "finite_anth_certificate.n": (finite_anth_certificate, (17, 5), 1),
    "parity_proof.C": (parity_proof, (8,), 0),
    "residue_prover.C": (residue_prover, (6,), 0),
    "modern_oracle.C": (modern_oracle, (2,), 0),
    "theaetetus_squaring.C": (theaetetus_squaring, (2,), 0),
    "theodorus_table.lo": (theodorus_table, (2, 3), 0),
    "theodorus_table.hi": (theodorus_table, (2, 3), 1),
    "theodorus_table.max_steps": (theodorus_table, (2, 3, 100), 2),
}


def _replace(args, slot, bad):
    """args with the integer at `slot` replaced by `bad`; a named slot is the
    first item of the tuple-valued first argument."""
    if isinstance(slot, str):
        return ((bad, *args[0][1:]), *args[1:])
    return (*args[:slot], bad, *args[slot + 1 :])


def _original(args, slot):
    return args[0][0] if isinstance(slot, str) else args[slot]


# each takes the valid integer and returns the same number in a wrong type
NON_INTS = {
    "bool": lambda v: True,
    "float": float,
    "str": str,
    "IntEnum": lambda v: IntEnum("Wrapped", {"V": v}).V,
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_valid_calls_succeed(entry):
    fn, args, _ = ENTRY_POINTS[entry]
    fn(*args)


@pytest.mark.parametrize("kind", sorted(NON_INTS))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_non_int_is_a_domain_error(entry, kind):
    fn, args, slot = ENTRY_POINTS[entry]
    bad = NON_INTS[kind](_original(args, slot))
    with pytest.raises(DomainError):
        fn(*_replace(args, slot, bad))


@pytest.mark.parametrize("kind", sorted(NON_INTS))
def test_field_element_times_non_int_is_not_implemented(kind):
    e = QFieldElement(1, 2, 3, 5)
    assert e.__mul__(NON_INTS[kind](3)) is NotImplemented
    assert e * 3 == QFieldElement(1, 2, 1, 5)


def test_residue_prover_names_the_type_not_the_sign():
    # the guard that refuses the IntEnum is the prover's own, so the reason is true
    with pytest.raises(DomainError, match=r"^C must be an integer, got "):
        residue_prover(NON_INTS["IntEnum"](6))


def test_require_int_returns_the_value_or_names_what_is_wrong():
    assert require_int(5, "x") == 5
    assert require_int(-5, "x") == -5
    assert require_int(5, "x", 5) == 5
    with pytest.raises(DomainError, match=r"^x must be >= 6, got 5$"):
        require_int(5, "x", 6)
    with pytest.raises(DomainError, match=r"^x must be an integer, got True$"):
        require_int(True, "x", 0)
    assert is_int(0) and is_int(-(10**50))
    assert not any(is_int(f(7)) for f in NON_INTS.values())
