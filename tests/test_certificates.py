"""Certificate construction, replay-checking, wire format, tamper detection."""

import dataclasses
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from anthyphairesis import engine
from anthyphairesis import (
    CertificateError,
    CertificateParseError,
    CertificateSemanticError,
    DomainError,
    FiniteAnthCertificate,
    ForcesEven,
    MalformedCertificateError,
    NoCoprimeSolution,
    ParityCertificate,
    PeriodicAnthCertificate,
    QuarterDescent,
    ResidueDescentCertificate,
    SquaresMod,
    anthyphairesis,
    check,
    finite_anth_certificate,
    make_sqrt,
    parity_steps,
    parse,
    periodic_anth_certificate,
    residue_steps,
    serialize,
    to_document,
    verify_step,
)
from conftest import DIGIT_LIMIT, iter_mutations


def sqrt_cert(C):
    return periodic_anth_certificate(anthyphairesis(make_sqrt(C), Fraction(1)))


# --- construction and checking ------------------------------------------------


def test_finite_builder_example():
    cert = finite_anth_certificate(17, 5)
    assert cert == FiniteAnthCertificate(17, 5, (3, 2, 2), 1)
    assert check(cert)
    cert = finite_anth_certificate(170, 50)
    assert cert.gcd == 10
    assert check(cert)
    with pytest.raises(DomainError):
        finite_anth_certificate(5, 5)
    with pytest.raises(DomainError):
        finite_anth_certificate(5, 0)


def test_periodic_builder_example():
    cert = sqrt_cert(17)
    assert cert.C == 17
    assert cert.preperiod_quotients == (4,)
    assert cert.period_quotients == (8,)
    assert cert.witness_state == (4, 1, 17)
    assert cert.recurrence_offset == 1
    assert check(cert)


def test_periodic_builder_rejects_unsuitable_traces():
    with pytest.raises(DomainError):
        periodic_anth_certificate(anthyphairesis(Fraction(17), Fraction(5)))
    # periodic, but the reduced ratio (1 + sqrt(3)) : sqrt(3) does not start
    # at (0 + sqrt(C))/1, so the schema cannot replay it
    from anthyphairesis import QuadraticSurd

    offset = anthyphairesis(QuadraticSurd(1, 1, 3), make_sqrt(3))
    with pytest.raises(DomainError):
        periodic_anth_certificate(offset)


def test_periodic_builder_accepts_disguised_sqrt():
    # sqrt(3) against 1/2 reduces to sqrt(12) against 1 exactly
    cert = periodic_anth_certificate(anthyphairesis(make_sqrt(3), Fraction(1, 2)))
    assert cert.C == 12
    assert check(cert)


def test_check_catches_wrong_period():
    cert = sqrt_cert(17)
    assert not check(dataclasses.replace(cert, period_quotients=(7,)))
    assert not check(dataclasses.replace(cert, preperiod_quotients=(5,)))
    assert not check(dataclasses.replace(cert, recurrence_offset=2))
    assert not check(dataclasses.replace(cert, witness_state=(3, 1, 17)))
    assert not check(dataclasses.replace(cert, C=18))


def test_check_catches_wrong_finite_chain():
    cert = finite_anth_certificate(17, 5)
    assert not check(dataclasses.replace(cert, gcd=2))
    assert not check(dataclasses.replace(cert, quotients=(3, 2, 1, 1)))
    assert not check(dataclasses.replace(cert, m=18))


def test_check_catches_tampered_steps():
    parity = ParityCertificate(2, 1, parity_steps())
    assert check(parity)
    assert not check(dataclasses.replace(parity, steps=parity_steps()[:-1]))
    assert not check(dataclasses.replace(parity, C=3))
    assert not check(dataclasses.replace(parity, reduction_factor=2))

    residue = ResidueDescentCertificate(12, "4n", (12, 3), residue_steps((12, 3)))
    assert check(residue)
    assert not check(dataclasses.replace(residue, descent_chain=(12,)))
    assert not check(dataclasses.replace(residue, class_label="4n+3"))
    # an 8k+1 head is exactly what this certificate kind cannot establish
    bogus = ResidueDescentCertificate(17, "8k+1", (17,), residue_steps((3,)))
    assert not check(bogus)


def test_check_rejects_malformed_objects():
    with pytest.raises(MalformedCertificateError):
        check("not a certificate")
    with pytest.raises(MalformedCertificateError):
        check(FiniteAnthCertificate(17, 5, (3, "2", 2), 1))


def test_serialize_checks_shape_first():
    # a bool is written as "True", which parse would refuse; the shape step stops it
    cert = FiniteAnthCertificate(True, 5, (3, 2, 2), 1)
    with pytest.raises(MalformedCertificateError, match=r"^m must be int$"):
        serialize(cert)
    with pytest.raises(MalformedCertificateError, match=r"^m must be int$"):
        to_document(cert)
    with pytest.raises(MalformedCertificateError, match=r"^not a certificate: "):
        serialize(SquaresMod(4, (0, 1)))
    bad_step = ParityCertificate(2, 1, (SquaresMod(4, [0, 1]),) + parity_steps()[1:])
    with pytest.raises(MalformedCertificateError, match=r"^steps must be "):
        serialize(bad_step)


FINITE = FiniteAnthCertificate(17, 5, (3, 2, 2), 1)
PERIODIC = PeriodicAnthCertificate(17, (4,), (8,), (4, 1, 17), 1)
PARITY = ParityCertificate(2, 1, parity_steps())
RESIDUE = ResidueDescentCertificate(12, "4n", (12, 3), residue_steps((12, 3)))
_swap = dataclasses.replace
_MALFORMED = MalformedCertificateError

# (call, object, outcome): a wrong type raises, a broken _INVARIANTS row
# returns False
OUTCOME_MATRIX = {
    # shape: bool is not an int
    "finite.m bool": (check, _swap(FINITE, m=True), _MALFORMED),
    "finite.quotients bool item": (check, _swap(FINITE, quotients=(3, 2, True)), _MALFORMED),
    "periodic.recurrence_offset bool": (check, _swap(PERIODIC, recurrence_offset=True), _MALFORMED),
    "parity.reduction_factor bool": (check, _swap(PARITY, reduction_factor=True), _MALFORMED),
    "residue.C bool": (check, _swap(RESIDUE, C=True), _MALFORMED),
    # shape: a list instead of a tuple
    "finite.quotients list": (check, _swap(FINITE, quotients=[3, 2, 2]), _MALFORMED),
    "periodic.period_quotients list": (check, _swap(PERIODIC, period_quotients=[8]), _MALFORMED),
    "parity.steps list": (check, _swap(PARITY, steps=list(parity_steps())), _MALFORMED),
    "residue.descent_chain list": (check, _swap(RESIDUE, descent_chain=[12, 3]), _MALFORMED),
    "residue.steps list": (check, _swap(RESIDUE, steps=list(RESIDUE.steps)), _MALFORMED),
    # shape: a non-int item
    "finite.quotients str item": (check, _swap(FINITE, quotients=(3, "2", 2)), _MALFORMED),
    "periodic.preperiod_quotients float item": (
        check, _swap(PERIODIC, preperiod_quotients=(4.0,)), _MALFORMED),
    "residue.descent_chain float item": (check, _swap(RESIDUE, descent_chain=(12, 3.0)), _MALFORMED),
    # shape: the witness must be a 3-tuple of ints
    "periodic.witness_state 2-tuple": (check, _swap(PERIODIC, witness_state=(4, 1)), _MALFORMED),
    "periodic.witness_state list": (check, _swap(PERIODIC, witness_state=[4, 1, 17]), _MALFORMED),
    "periodic.witness_state str item": (
        check, _swap(PERIODIC, witness_state=(4, "1", 17)), _MALFORMED),
    "residue.class_label int": (check, _swap(RESIDUE, class_label=4), _MALFORMED),
    # shape: the steps inside a certificate
    "parity.steps non-step item": (
        check, _swap(PARITY, steps=parity_steps()[:-1] + ("no_coprime_solution",)), _MALFORMED),
    "parity.steps[0].modulus str": (
        check, _swap(PARITY, steps=(SquaresMod("4", (0, 1)),) + parity_steps()[1:]), _MALFORMED),
    "residue.steps[1].target bool": (
        check, _swap(RESIDUE, steps=RESIDUE.steps[:1] + (QuarterDescent(12, True),)
                     + RESIDUE.steps[2:]), _MALFORMED),
    # shape: a step on its own
    "verify squares_mod.modulus str": (verify_step, SquaresMod("4", (0, 1)), _MALFORMED),
    "verify squares_mod.allowed list": (verify_step, SquaresMod(4, [0, 1]), _MALFORMED),
    "verify forces_even.side int": (verify_step, ForcesEven(4, 2, 0), _MALFORMED),
    "verify forces_even.coeff bool": (verify_step, ForcesEven(4, True, "lhs"), _MALFORMED),
    "verify no_coprime_solution.coeff str": (verify_step, NoCoprimeSolution(4, "2"), _MALFORMED),
    "verify quarter_descent.source str": (verify_step, QuarterDescent("12", 3), _MALFORMED),
    "check on a step": (check, SquaresMod(4, (0, 1)), _MALFORMED),
    "verify_step on a certificate": (verify_step, FINITE, _MALFORMED),
    # invariants: one cell per _INVARIANTS row
    "finite n >= 1": (check, FiniteAnthCertificate(17, 0, (3, 2, 2), 1), False),
    "finite m > n": (check, FiniteAnthCertificate(5, 17, (3, 2, 2), 1), False),
    "finite quotients non-empty": (check, FiniteAnthCertificate(17, 5, (), 1), False),
    "finite quotients >= 1": (check, _swap(FINITE, quotients=(3, 0, 2)), False),
    "finite gcd >= 1": (check, _swap(FINITE, gcd=0), False),
    "periodic C >= 2": (check, _swap(PERIODIC, C=1), False),
    "periodic period_quotients non-empty": (check, _swap(PERIODIC, period_quotients=()), False),
    "periodic preperiod_quotients >= 1": (check, _swap(PERIODIC, preperiod_quotients=(0,)), False),
    "periodic period_quotients >= 1": (check, _swap(PERIODIC, period_quotients=(0,)), False),
    "periodic recurrence_offset >= 0": (check, _swap(PERIODIC, recurrence_offset=-1), False),
    "periodic witness_state valid": (check, _swap(PERIODIC, witness_state=(4, 0, 17)), False),
    "parity steps non-empty": (check, _swap(PARITY, steps=()), False),
    "parity C >= 2": (check, _swap(PARITY, C=1), False),
    "parity reduction_factor >= 1": (check, _swap(PARITY, reduction_factor=0), False),
    "residue steps non-empty": (check, _swap(RESIDUE, steps=()), False),
    "residue C >= 2": (check, _swap(RESIDUE, C=1), False),
    "residue class_label known": (check, _swap(RESIDUE, class_label="5n"), False),
    "residue descent_chain non-empty": (check, _swap(RESIDUE, descent_chain=()), False),
    "residue descent_chain >= 1": (check, _swap(RESIDUE, descent_chain=(12, 0)), False),
    "squares_mod modulus >= 2": (verify_step, SquaresMod(0, ()), False),
    "forces_even side": (verify_step, ForcesEven(4, 2, "mid"), False),
    "forces_even modulus >= 2": (verify_step, ForcesEven(0, 2, "lhs"), False),
    "no_coprime_solution modulus >= 2": (verify_step, NoCoprimeSolution(0, 2), False),
}


@pytest.mark.parametrize(
    "call, record, outcome", OUTCOME_MATRIX.values(), ids=OUTCOME_MATRIX.keys()
)
def test_check_outcome_matrix(call, record, outcome):
    if outcome is _MALFORMED:
        with pytest.raises(MalformedCertificateError):
            call(record)
    else:
        assert call(record) is outcome


def test_step_verifiers():
    assert verify_step(SquaresMod(4, (0, 1)))
    assert verify_step(SquaresMod(8, (0, 1, 4)))
    assert not verify_step(SquaresMod(4, (0, 2)))
    assert not verify_step(SquaresMod(8, (0, 1)))
    assert not verify_step(SquaresMod(4, (1, 0)))  # canonical order required
    assert verify_step(ForcesEven(4, 2, "lhs"))
    assert verify_step(ForcesEven(8, 6, "lhs"))
    assert not verify_step(ForcesEven(4, 1, "lhs"))  # m^2 = n^2 mod 4 has odd solutions
    assert not verify_step(ForcesEven(3, 2, "lhs"))  # odd modulus proves nothing here
    assert verify_step(NoCoprimeSolution(4, 2))
    assert verify_step(NoCoprimeSolution(8, 5))
    assert not verify_step(NoCoprimeSolution(4, 1))
    assert verify_step(QuarterDescent(12, 3))
    assert not verify_step(QuarterDescent(12, 4))
    assert not verify_step(QuarterDescent(2, 0))


# --- wire format ----------------------------------------------------------------


def test_document_layout():
    doc = to_document(sqrt_cert(3))
    assert doc["kind"] == "periodic_anth"
    assert doc["version"] == 1
    assert doc["C"] == "3"
    assert doc["preperiod_quotients"] == ["1"]
    assert doc["period_quotients"] == ["1", "2"]
    assert doc["witness_state"] == ["1", "2", "3"]
    assert doc["recurrence_offset"] == "1"


def test_all_integers_ride_as_strings():
    def walk(node):
        if isinstance(node, dict):
            for k, v in node.items():
                assert isinstance(k, str)
                if k == "version":
                    assert type(v) is int
                else:
                    walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)
        else:
            assert isinstance(node, str), f"unexpected leaf {node!r}"

    for cert in (
        sqrt_cert(13),
        finite_anth_certificate(170, 50),
        ParityCertificate(8, 2, parity_steps()),
        ResidueDescentCertificate(48, "4n", (48, 12, 3), residue_steps((48, 12, 3))),
    ):
        walk(to_document(cert))


def test_serialization_is_deterministic_text():
    cert = sqrt_cert(7)
    text = serialize(cert)
    assert text.endswith("\n")
    assert serialize(parse(text)) == text
    assert json.loads(text)["kind"] == "periodic_anth"
    # a string that needs escaping is quoted as the standard library quotes it
    odd_label = dataclasses.replace(RESIDUE, class_label='4n"\\\n\u00e9\u0663')
    assert serialize(odd_label) == dumps(odd_label)


def dumps(cert):
    """The reference writer: the standard library's JSON encoder."""
    return json.dumps(to_document(cert), indent=2) + "\n"


def test_corpus_round_trip(certificate_corpus):
    assert len(certificate_corpus) == 200
    kinds = {type(c).__name__ for c in certificate_corpus}
    assert kinds == {
        "FiniteAnthCertificate",
        "PeriodicAnthCertificate",
        "ParityCertificate",
        "ResidueDescentCertificate",
    }
    for cert in certificate_corpus:
        assert check(cert)
        assert serialize(cert) == dumps(cert)
        again = parse(serialize(cert))
        assert again == cert
        assert check(again)


@given(st.integers(1, 10**12), st.integers(1, 10**12))
def test_finite_round_trip_property(a, b):
    if a == b:
        b = a + 1
    m, n = max(a, b), min(a, b)
    cert = finite_anth_certificate(m, n)
    assert serialize(cert) == dumps(cert)
    assert parse(serialize(cert)) == cert
    assert check(cert)


@pytest.mark.parametrize("length", [1, 4095, 4096, 4097, 8193])
def test_serialize_matches_json_dumps_on_long_arrays(length):
    # shape-valid, not a real expansion: serialize runs only the shape step;
    # the quotients run from 1 to 3000, past the shared small numerals
    period = tuple((2000 + 997 * i) % 3000 + 1 for i in range(length))
    for preperiod in ((), (5, 1024, 70000)):
        cert = PeriodicAnthCertificate(10**12 + 3, preperiod, period, (999, 2, 10**12 + 3), 3)
        text = serialize(cert)
        assert text == dumps(cert)
        assert ('"preperiod_quotients": [],' in text) == (preperiod == ())


# --- strict parsing --------------------------------------------------------------


def good_doc():
    return to_document(sqrt_cert(17))


def residue_doc():
    # steps: forces_even, quarter_descent, squares_mod, no_coprime_solution
    return to_document(
        ResidueDescentCertificate(12, "4n", (12, 3), residue_steps((12, 3)))
    )


def test_parse_rejects_structural_garbage():
    with pytest.raises(CertificateParseError):
        parse("{")
    with pytest.raises(CertificateParseError):
        parse("[]")
    with pytest.raises(CertificateParseError):
        parse('"periodic_anth"')
    with pytest.raises(CertificateParseError):
        parse(b"{}")  # type: ignore[arg-type]
    truncated = serialize(sqrt_cert(17))[:-40]
    with pytest.raises(CertificateParseError):
        parse(truncated)
    doc = residue_doc()
    doc["steps"][1] = "quarter_descent"  # a step that is not an object
    with pytest.raises(CertificateParseError):
        parse(json.dumps(doc))


def test_parse_rejects_deep_nesting():
    # deeper than the JSON decoder can recurse
    with pytest.raises(CertificateParseError, match="nested too deeply"):
        parse("[" * 100000)


def test_parse_rejects_kind_and_version_problems():
    doc = good_doc()
    del doc["kind"]
    with pytest.raises(CertificateParseError):
        parse(json.dumps(doc))
    doc = good_doc()
    doc["kind"] = "telepathy"
    with pytest.raises(CertificateParseError):
        parse(json.dumps(doc))
    for bad_version in (2, "1", 1.0, True, None):
        doc = good_doc()
        doc["version"] = bad_version
        with pytest.raises(CertificateParseError):
            parse(json.dumps(doc))
    doc = residue_doc()
    doc["steps"][2]["assert"] = "squares_mod_9"  # unknown step tag
    with pytest.raises(CertificateParseError):
        parse(json.dumps(doc))


def test_parse_rejects_field_set_changes():
    doc = good_doc()
    doc["extra"] = "1"
    with pytest.raises(CertificateParseError):
        parse(json.dumps(doc))
    doc = good_doc()
    del doc["recurrence_offset"]
    with pytest.raises(CertificateParseError):
        parse(json.dumps(doc))
    text = serialize(sqrt_cert(3)).rstrip()
    # graft a duplicate field onto otherwise-valid JSON
    dup = text[:-1].rstrip().rstrip("}") + ', "C": "3"}'
    with pytest.raises(CertificateParseError):
        parse(dup)
    doc = residue_doc()
    doc["steps"][0]["extra"] = "1"  # extra field in a step
    with pytest.raises(CertificateParseError):
        parse(json.dumps(doc))


def test_parse_rejects_noncanonical_numerals():
    for bad in ("03", "+3", "3.0", " 3", "3 ", "3\n", "", "-0", "0x3"):
        doc = good_doc()
        doc["C"] = bad
        with pytest.raises(CertificateParseError):
            parse(json.dumps(doc))
    doc = good_doc()
    doc["C"] = 17  # JSON number instead of decimal string
    with pytest.raises(CertificateParseError):
        parse(json.dumps(doc))
    doc = good_doc()
    doc["preperiod_quotients"] = [4]
    with pytest.raises(CertificateParseError):
        parse(json.dumps(doc))
    # errors name the field path, down to list items and step fields
    doc = good_doc()
    doc["period_quotients"] = [8]
    with pytest.raises(CertificateParseError, match=r"^period_quotients\[0\]: "):
        parse(json.dumps(doc))
    doc = good_doc()
    doc["period_quotients"] = ["8\n"]
    with pytest.raises(CertificateParseError, match=r"^period_quotients\[0\]: not a canonical"):
        parse(json.dumps(doc))
    doc = to_document(ParityCertificate(2, 1, parity_steps()))
    doc["steps"][1]["modulus"] = "04"
    with pytest.raises(CertificateParseError, match=r"^steps\[1\]\.modulus: "):
        parse(json.dumps(doc))


# array items that parse must refuse, each with the message that names it
_BAD_ITEMS = (
    "03", "+3", " 3", "3\n", "1,2", "\u0663", "3_0", "-0", "", 3, 3.0, -1, True, None,
) + (("1" + "0" * DIGIT_LIMIT, "0" + "1" * DIGIT_LIMIT) if DIGIT_LIMIT else ())


def reference_item_error(x, path):
    """The error of reading one array item at `path`, item by item; None if it reads."""
    if not isinstance(x, str):
        return f"{path}: integers must be decimal strings, got {x!r}"
    if re.fullmatch(r"0|-?[1-9][0-9]*", x) is None:
        return f"{path}: not a canonical decimal numeral: {x!r}"
    try:
        int(x)
    except ValueError:
        return (f"{path}: a {len(x)}-digit numeral exceeds the {DIGIT_LIMIT}-digit "
                "limit for integer string conversion")
    return None


def reference_array_error(doc, path=""):
    """The first array item error in document order, which is parse's order."""
    for key, value in doc.items():
        where = f"{path}.{key}" if path else key
        for i, x in enumerate(value if isinstance(value, list) else ()):
            at = f"{where}[{i}]"
            error = reference_array_error(x, at) if isinstance(x, dict) else reference_item_error(x, at)
            if error is not None:
                return error
    return None


def integer_arrays(doc):
    """The lists of numerals in a document, steps included."""
    for value in doc.values():
        if isinstance(value, list):
            if value and isinstance(value[0], dict):
                for step in value:
                    yield from integer_arrays(step)
            else:
                yield value


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_parse_reads_arrays_like_an_item_by_item_reader(certificate_corpus, data):
    cert = certificate_corpus[data.draw(st.integers(0, len(certificate_corpus) - 1))]
    doc = to_document(cert)
    slots = [(array, i) for array in integer_arrays(doc) for i in range(len(array))]
    mutations = data.draw(st.lists(
        st.tuples(st.integers(0, len(slots) - 1), st.sampled_from(_BAD_ITEMS)), max_size=3
    ))
    for slot, bad in mutations:
        array, i = slots[slot]
        array[i] = bad
    expected = reference_array_error(doc)
    text = json.dumps(doc)
    if expected is None:
        assert not mutations and parse(text) == cert
    else:
        with pytest.raises(CertificateParseError) as raised:
            parse(text)
        assert type(raised.value) is CertificateParseError
        assert str(raised.value) == expected


@pytest.mark.skipif(not DIGIT_LIMIT, reason="no int/str digit limit here")
def test_numerals_past_the_digit_limit():
    doc = to_document(finite_anth_certificate(17, 5))
    doc["m"] = "1" + "0" * DIGIT_LIMIT
    with pytest.raises(CertificateParseError, match=r"^m: "):
        parse(json.dumps(doc))
    # a JSON number literal that long is refused the same way
    text = serialize(finite_anth_certificate(17, 5))
    with pytest.raises(CertificateParseError):
        parse(text.replace('"version": 1', '"version": 1' + "0" * DIGIT_LIMIT))
    with pytest.raises(DomainError, match=r"^m: "):
        serialize(finite_anth_certificate(10 ** (DIGIT_LIMIT + 700) + 7, 3))


def test_parse_semantic_layer():
    doc = good_doc()
    doc["witness_state"] = ["4", "0", "17"]  # zero denominator
    with pytest.raises(CertificateSemanticError):
        parse(json.dumps(doc))
    doc = good_doc()
    doc["witness_state"] = ["4", "1", "16"]  # square radicand
    with pytest.raises(CertificateSemanticError):
        parse(json.dumps(doc))
    doc = good_doc()
    doc["period_quotients"] = []
    with pytest.raises(CertificateSemanticError):
        parse(json.dumps(doc))
    doc = good_doc()
    doc["period_quotients"] = ["0"]
    with pytest.raises(CertificateSemanticError):
        parse(json.dumps(doc))
    doc = to_document(finite_anth_certificate(17, 5))
    doc["n"] = "17"
    with pytest.raises(CertificateSemanticError):
        parse(json.dumps(doc))
    doc = to_document(finite_anth_certificate(17, 5))
    doc["gcd"] = "0"
    with pytest.raises(CertificateSemanticError):
        parse(json.dumps(doc))
    doc = to_document(
        ResidueDescentCertificate(12, "4n", (12, 3), residue_steps((12, 3)))
    )
    doc["class_label"] = "5n"
    with pytest.raises(CertificateSemanticError):
        parse(json.dumps(doc))
    for field, bad in (("side", "mid"), ("modulus", "1")):
        doc = residue_doc()
        doc["steps"][0][field] = bad  # steps[0] is forces_even
        with pytest.raises(CertificateSemanticError):
            parse(json.dumps(doc))
    doc = residue_doc()
    doc["steps"] = []
    with pytest.raises(CertificateSemanticError):
        parse(json.dumps(doc))


def test_parse_accepts_8k1_label_but_check_rejects():
    doc = to_document(
        ResidueDescentCertificate(12, "4n", (12, 3), residue_steps((12, 3)))
    )
    doc["class_label"] = "8k+1"
    cert = parse(json.dumps(doc))
    assert not check(cert)


# --- tamper detection -------------------------------------------------------------


def test_every_single_field_nudge_is_caught():
    # exhaustive +-1 tampering on a small mixed set; the full 200-certificate
    # corpus sweep lives in the acceptance suite
    targets = [
        sqrt_cert(3),
        sqrt_cert(17),
        finite_anth_certificate(17, 5),
        ParityCertificate(2, 1, parity_steps()),
        ResidueDescentCertificate(12, "4n", (12, 3), residue_steps((12, 3))),
    ]
    mutants = 0
    for cert in targets:
        for text in iter_mutations(to_document(cert)):
            mutants += 1
            try:
                mutant = parse(text)
            except CertificateError:
                continue
            assert not check(mutant), f"undetected tamper: {text}"
    assert mutants > 90  # ~2 mutants per integer field across the five targets


def test_certificate_replay_does_not_share_the_engine_walk(monkeypatch):
    # a walk kernel that gets one period quotient wrong must not be certified
    real_steps = engine._steps

    def one_quotient_off(x, s):
        for n, (quotient, P, Q) in enumerate(real_steps(x, s)):
            yield (quotient + 1 if n == 2 else quotient), P, Q

    assert anthyphairesis(make_sqrt(13), 1).quotients == (3, 1, 1, 1, 1, 6)
    monkeypatch.setattr(engine, "_steps", one_quotient_off)
    trace = anthyphairesis(make_sqrt(13), 1)
    assert trace.quotients == (3, 1, 2, 1, 1, 6)
    with pytest.raises(DomainError):
        periodic_anth_certificate(trace)
