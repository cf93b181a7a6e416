"""Two-magnitude anthyphairesis driver: traces, verdicts, remainders."""

import random
import time
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from anthyphairesis import (
    BudgetError,
    Commensurable,
    DomainError,
    EventuallyPeriodic,
    Finite,
    Incommensurable,
    InternalInvariantError,
    QFieldElement,
    QuadraticSurd,
    anth_step,
    anthyphairesis,
    floor_of,
    isqrt,
    make_sqrt,
    number_to_number,
    quotient_prefix,
    remainder_sequence,
    sign_of,
    verdict,
)
from anthyphairesis import engine


def nonsquares(hi):
    return [c for c in range(2, hi + 1) if isqrt(c) ** 2 != c]


def test_rational_trace_example():
    trace = anthyphairesis(Fraction(17), Fraction(5))
    assert trace.quotients == (3, 2, 2)
    assert isinstance(trace.termination, Finite)
    assert trace.is_finite
    assert trace.steps_executed == 3


def test_sqrt3_trace():
    trace = anthyphairesis(make_sqrt(3), Fraction(1))
    assert not trace.is_finite
    assert trace.preperiod_quotients == (1,)
    assert trace.period_quotients == (1, 2)
    t = trace.termination
    assert isinstance(t, EventuallyPeriodic)
    assert (t.preperiod_len, t.period_len) == (1, 2)
    assert (t.witness_state.P, t.witness_state.Q, t.witness_state.D) == (1, 2, 3)


def test_sqrt17_trace():
    trace = anthyphairesis(make_sqrt(17), Fraction(1))
    assert trace.preperiod_quotients == (4,)
    assert trace.period_quotients == (8,)
    t = trace.termination
    assert (t.witness_state.P, t.witness_state.Q) == (4, 1)


def test_integer_inputs_coerced():
    trace = anthyphairesis(17, 5)
    assert trace.quotients == (3, 2, 2)


def test_input_validation():
    with pytest.raises(DomainError):
        anthyphairesis(Fraction(1, 2), Fraction(1, 2))  # ratio not > 1
    with pytest.raises(DomainError):
        anthyphairesis(Fraction(3), Fraction(5))
    with pytest.raises(DomainError):
        anthyphairesis(Fraction(0), Fraction(5))
    with pytest.raises(DomainError):
        anthyphairesis(Fraction(5), Fraction(0))
    with pytest.raises(DomainError):
        anthyphairesis(Fraction(1), make_sqrt(3))  # 1/sqrt(3) < 1


def test_cross_field_pairs_rejected():
    with pytest.raises(DomainError):
        anthyphairesis(make_sqrt(3), make_sqrt(2))
    # sqrt(8)/sqrt(2) = 2 is rational, but the representations live in
    # different fields; the engine demands a shared radicand
    with pytest.raises(DomainError):
        anthyphairesis(make_sqrt(8), make_sqrt(2))


def test_mixed_pair_reduces_to_single_surd():
    # sqrt(3) against 1/2 is the sqrt(12) expansion
    trace = anthyphairesis(make_sqrt(3), Fraction(1, 2))
    assert trace.preperiod_quotients == (3,)
    assert trace.period_quotients == (2, 6)


@pytest.mark.parametrize("k", [3, 10**6])
def test_ratio_keeps_the_radicand_of_its_operands(k):
    # (k + sqrt(5k^2))/2 : k is the golden ratio; a common factor k of the
    # ratio's parts must not be squared into the radicand
    trace = anthyphairesis(QuadraticSurd(k, 2, 5 * k * k), k)
    assert trace.period_quotients == (1,)
    assert trace.termination.witness_state == QuadraticSurd(k, 2 * k, 5 * k * k)


def test_same_field_surd_pair():
    a = QuadraticSurd(1, 1, 3)  # 1 + sqrt(3)
    trace = anthyphairesis(a, make_sqrt(3))
    assert trace.preperiod_quotients == (1, 1)
    assert trace.period_quotients == (1, 2)


def floor_reciprocal_quotients(x: Fraction) -> tuple[int, ...]:
    # independent oracle: I = floor(x), x <- 1/(x - I) in Fraction arithmetic
    quotients = []
    while True:
        k = x.numerator // x.denominator
        quotients.append(k)
        if x == k:
            return tuple(quotients)
        x = 1 / (x - k)


def test_rational_route_matches_integer_chain():
    rng = random.Random(42)
    for _ in range(1000):
        a = Fraction(rng.randint(1, 10**9), rng.randint(1, 10**9))
        b = Fraction(rng.randint(1, 10**9), rng.randint(1, 10**9))
        if a == b:
            continue
        if a < b:
            a, b = b, a
        trace = anthyphairesis(a, b)
        assert trace.is_finite
        assert trace.quotients == floor_reciprocal_quotients(a / b)


def test_verdict_commensurable():
    v = verdict(anthyphairesis(Fraction(17), Fraction(5)))
    assert isinstance(v, Commensurable)
    assert v.ratio == (17, 5)
    assert v.common_measure == Fraction(1, 5)
    v = verdict(anthyphairesis(Fraction(12), Fraction(4)))
    assert v.ratio == (3, 1)
    assert v.common_measure == Fraction(1, 1)


def test_verdict_incommensurable():
    v = verdict(anthyphairesis(make_sqrt(2), Fraction(1)))
    assert isinstance(v, Incommensurable)
    assert v.certificate_kind == "periodic_anth"


def test_common_measure_divides_both():
    rng = random.Random(77)
    for _ in range(100):
        n1 = rng.randint(1, 10**6)
        d1 = rng.randint(1, 10**6)
        n2 = rng.randint(1, 10**6)
        d2 = rng.randint(1, 10**6)
        a, b = Fraction(n1, d1), Fraction(n2, d2)
        if a == b:
            continue
        if a < b:
            a, b = b, a
        v = verdict(anthyphairesis(a, b))
        assert isinstance(v, Commensurable)
        unit = b * v.common_measure
        assert (a / unit).denominator == 1
        assert (b / unit).denominator == 1


def test_number_to_number():
    assert number_to_number(Fraction(17), Fraction(5)) == (17, 5)
    half_sqrt8 = QuadraticSurd(0, 2, 8)
    assert number_to_number(make_sqrt(8), half_sqrt8) == (2, 1)
    assert number_to_number(make_sqrt(2), Fraction(1)) is None
    assert number_to_number(Fraction(3, 4), Fraction(1, 4)) == (3, 1)


def test_quotient_prefix():
    finite = anthyphairesis(Fraction(17), Fraction(5))
    assert quotient_prefix(finite, 2) == (3, 2)
    assert quotient_prefix(finite, 99) == (3, 2, 2)
    periodic = anthyphairesis(make_sqrt(3), Fraction(1))
    assert quotient_prefix(periodic, 7) == (1, 1, 2, 1, 2, 1, 2)
    with pytest.raises(DomainError):
        quotient_prefix(periodic, -1)


def test_remainder_sequence_rational():
    rem = remainder_sequence(Fraction(17), Fraction(5), 3)
    assert [(e.u, e.v, e.w) for e in rem] == [(2, 0, 1), (1, 0, 1), (0, 0, 1)]
    assert remainder_sequence(Fraction(17), Fraction(5), 2) == rem[:2]
    # a finite chain stops emitting after its zero terminator
    assert remainder_sequence(Fraction(17), Fraction(5), 99) == rem


def test_remainder_sequence_surd():
    rem = remainder_sequence(make_sqrt(3), Fraction(1), 3)
    assert [(e.u, e.v, e.w) for e in rem] == [(-1, 1, 1), (2, -1, 1), (-5, 3, 1)]
    rem17 = remainder_sequence(make_sqrt(17), Fraction(1), 2)
    assert [(e.u, e.v, e.w) for e in rem17] == [(-4, 1, 1), (33, -8, 1)]


def test_remainder_law():
    # each remainder is positive, strictly below its predecessor, and below b
    for C in nonsquares(50):
        a = make_sqrt(C)
        b = Fraction(1)
        rem = remainder_sequence(a, b, 12)
        b_elem = QFieldElement(1, 0, 1, C)
        assert sign_of(b_elem - rem[0]) == 1
        for e, e_next in zip(rem, rem[1:]):
            assert sign_of(e) == 1
            assert sign_of(e - e_next) == 1


def test_remainder_sequence_reads_only_k_quotients():
    # the period of sqrt(10^21 + 1) is far too long to walk; three steps are not
    C = 10**21 + 1
    started = time.perf_counter()
    rem = remainder_sequence(make_sqrt(C), 1, 3)
    assert time.perf_counter() - started < 2.0
    assert len(rem) == 3
    previous = QFieldElement(1, 0, 1, C)
    for e in rem:
        assert sign_of(e) == 1
        assert sign_of(previous - e) == 1
        previous = e


def test_budget_exhaustion():
    with pytest.raises(BudgetError):
        anthyphairesis(make_sqrt(13), Fraction(1), max_steps=3)
    with pytest.raises(BudgetError):
        anthyphairesis(Fraction(17), Fraction(5), max_steps=2)
    # exactly enough budget is fine
    assert anthyphairesis(Fraction(17), Fraction(5), max_steps=3).quotients == (3, 2, 2)


def test_default_budget_generous():
    # every C <= 1000 recurs well inside the default allowance
    for C in nonsquares(1000):
        trace = anthyphairesis(make_sqrt(C), Fraction(1))
        assert trace.steps_executed <= 2 * C + 2


@settings(max_examples=200)
@given(
    st.integers(1, 10**6),
    st.integers(1, 10**6),
    st.integers(1, 10**6),
    st.integers(1, 10**6),
)
def test_rational_pairs_always_terminate(n1, d1, n2, d2):
    a, b = Fraction(n1, d1), Fraction(n2, d2)
    if a == b:
        return
    if a < b:
        a, b = b, a
    trace = anthyphairesis(a, b)
    assert trace.is_finite
    assert all(q >= 1 for q in trace.quotients)


def field_element(m, D):
    # the magnitude m as an element of Q(sqrt(D)), built without the engine
    if isinstance(m, Fraction):
        return QFieldElement(m.numerator, 0, m.denominator, D)
    return QFieldElement(m.P, 1, m.Q, D)


def oracle_quotients(a, b, count):
    # floor-and-reciprocal loop on a / b at 512 bits
    with mpmath.workprec(512):
        def value(m):
            if isinstance(m, Fraction):
                return mpmath.mpf(m.numerator) / m.denominator
            return (m.P + mpmath.sqrt(m.D)) / m.Q

        x = value(a) / value(b)
        out = []
        for _ in range(count):
            q = int(mpmath.floor(x))
            out.append(q)
            x = 1 / (x - q)
        return tuple(out)


@st.composite
def surd_rational_pairs(draw):
    # (P + sqrt(D))/Q with Q of either sign against r/s, larger one first
    D = draw(st.integers(2, 5000).filter(lambda n: isqrt(n) ** 2 != n))
    P = draw(st.integers(-150, 150))
    N = abs(D - P * P)
    small = [q for q in range(1, isqrt(N) + 1) if N % q == 0]
    q = draw(st.sampled_from(small + [N // q for q in small]))
    surd = QuadraticSurd(P, q if P >= 0 or P * P < D else -q, D)
    rational = Fraction(draw(st.integers(1, 40)), draw(st.integers(1, 40)))
    if sign_of(field_element(surd, D) - field_element(rational, D)) > 0:
        return surd, rational
    return rational, surd


@settings(max_examples=150, deadline=None)
@given(surd_rational_pairs())
@example((make_sqrt(5), Fraction(2)))  # ratio state (0, 4, 20): the |Q| blow-up
@example((QuadraticSurd(-4, -1, 5), Fraction(1)))  # 4 - sqrt(5): Q < 0
def test_surd_rational_pairs_match_oracle(pair):
    a, b = pair
    assert quotient_prefix(anthyphairesis(a, b), 20) == oracle_quotients(a, b, 20)
    D = (a if isinstance(a, QuadraticSurd) else b).D
    previous = field_element(b, D)
    for e in remainder_sequence(a, b, 6):
        assert sign_of(e) == 1
        assert sign_of(previous - e) == 1
        previous = e


def seen_dict_walk(x):
    # the anth_step walk that stores every state and stops at the first recurrence
    seen, quotients, state = {x: 0}, [], x
    while True:
        quotient, state = anth_step(state)
        quotients.append(quotient)
        if state in seen:
            j = seen[state]
            return tuple(quotients), j, len(quotients) - j, state
        seen[state] = len(quotients)


@st.composite
def surds_above_one(draw):
    # a valid (P + sqrt(D))/Q > 1 with Q of either sign
    D = draw(st.integers(2, 10**5).filter(lambda n: isqrt(n) ** 2 != n))
    P = draw(st.integers(-400, 400))
    N = abs(D - P * P)
    small = [q for q in range(1, isqrt(N) + 1) if N % q == 0]
    q = draw(st.sampled_from(small + [N // q for q in small]))
    x = QuadraticSurd(P, q if P >= 0 or P * P < D else -q, D)
    if floor_of(x) < 1:
        x = QuadraticSurd(-P, (D - P * P) // x.Q, D)  # 1/x
    return x


@settings(max_examples=300, deadline=None)
@given(surds_above_one())
@example(QuadraticSurd(1, 2, 5))  # the golden ratio: already reduced, preperiod 0
@example(QuadraticSurd(-4, -1, 5))  # 4 - sqrt(5): Q < 0
@example(make_sqrt(10**4 + 3))
@example(make_sqrt(10**36 + 1))  # a default budget above sys.maxsize
def test_walk_matches_seen_dict_walk(x):
    quotients, j, period, witness = seen_dict_walk(x)
    trace = anthyphairesis(x, 1)
    assert trace.quotients == quotients
    t = trace.termination
    assert isinstance(t, EventuallyPeriodic)
    assert (t.preperiod_len, t.period_len, t.witness_state) == (j, period, witness)
    assert trace.steps_executed == len(quotients)
    # the budget edge: exactly the steps executed pass, one fewer does not
    assert anthyphairesis(x, 1, max_steps=len(quotients)) == trace
    if len(quotients) > 1:
        with pytest.raises(BudgetError, match=f"within {len(quotients) - 1} steps"):
            anthyphairesis(x, 1, max_steps=len(quotients) - 1)


def test_walk_stores_no_states():
    x = make_sqrt(10**8 + 3)
    tracemalloc.start()
    try:
        trace = anthyphairesis(x, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.termination.period_len == 5314
    assert peak < 0.5 * 2**20


def test_walk_guards_fire(monkeypatch):
    # a state that breaks Q | (D - P^2) stops the kernel at its first step
    with pytest.raises(InternalInvariantError, match="divisibility"):
        next(engine._steps(SimpleNamespace(P=0, Q=3, D=13), 3))
    # a period state outside the reduced box stops the walk
    real_steps = engine._steps

    def one_state_off(x, s):
        for n, (quotient, P, Q) in enumerate(real_steps(x, s)):
            yield quotient, P, (Q + 100 if n == 2 else Q)

    monkeypatch.setattr(engine, "_steps", one_state_off)
    with pytest.raises(InternalInvariantError, match="not reduced"):
        anthyphairesis(make_sqrt(13), 1)


def test_budget_above_machine_word():
    trace = anthyphairesis(make_sqrt(13), 1, max_steps=2**70)
    assert trace.quotients == (3, 1, 1, 1, 1, 6)
