"""Quadratic-surd state machine and exact field arithmetic."""

import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st

from anthyphairesis import (
    DomainError,
    QFieldElement,
    QuadraticSurd,
    anth_step,
    floor_of,
    isqrt,
    make_sqrt,
    sign_of,
)


def nonsquare(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        d = rng.randint(lo, hi)
        if isqrt(d) ** 2 != d:
            return d


def test_isqrt_examples():
    assert isqrt(0) == 0
    assert isqrt(1) == 1
    assert isqrt(2) == 1
    assert isqrt(3) == 1
    assert isqrt(4) == 2
    assert isqrt(17) == 4
    assert isqrt(10**30) == 10**15


def test_isqrt_exact_at_scale():
    # floats lose exactness near 2**53; these must not
    for k in (10**15, 10**15 - 1, 2**53, 2**53 + 1):
        assert isqrt(k * k) == k
        assert isqrt(k * k - 1) == k - 1
        assert isqrt(k * k + 1) == k
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(10**29, 10**31)
        r = isqrt(n)
        assert r * r <= n < (r + 1) * (r + 1)


def test_isqrt_domain():
    with pytest.raises(DomainError):
        isqrt(-1)
    with pytest.raises(DomainError):
        isqrt(2.0)


@given(st.integers(0, 10**36))
def test_isqrt_squaring_inequality(n):
    r = isqrt(n)
    assert r * r <= n < (r + 1) * (r + 1)


def test_make_sqrt():
    assert make_sqrt(16) == Fraction(4)
    assert make_sqrt(1) == Fraction(1)
    s = make_sqrt(3)
    assert isinstance(s, QuadraticSurd)
    assert (s.P, s.Q, s.D) == (0, 1, 3)
    with pytest.raises(DomainError):
        make_sqrt(0)
    with pytest.raises(DomainError):
        make_sqrt(-2)


def test_surd_construction_guards():
    with pytest.raises(DomainError):
        QuadraticSurd(0, 0, 3)  # zero denominator
    with pytest.raises(DomainError):
        QuadraticSurd(0, 1, 16)  # square radicand
    with pytest.raises(DomainError):
        QuadraticSurd(0, 1, -3)
    with pytest.raises(DomainError):
        QuadraticSurd(1, 4, 7)  # 4 does not divide 7 - 1
    with pytest.raises(DomainError):
        QuadraticSurd(-5, 1, 3)  # negative value
    # (-5 + sqrt(3)) / -2 is positive and 3 - 25 is divisible by -2
    s = QuadraticSurd(-5, -2, 3)
    assert float(s) == pytest.approx((5 - 3**0.5) / 2)


def test_floor_examples():
    assert floor_of(Fraction(7, 2)) == 3
    assert floor_of(Fraction(4)) == 4
    assert floor_of(QuadraticSurd(0, 1, 3)) == 1
    assert floor_of(QuadraticSurd(1, 2, 3)) == 1
    assert floor_of(QuadraticSurd(0, 1, 17)) == 4
    assert floor_of(QuadraticSurd(4, 1, 17)) == 8
    assert floor_of(QuadraticSurd(-5, -2, 3)) == 1
    with pytest.raises(DomainError):
        floor_of(Fraction(-1, 2))
    with pytest.raises(DomainError):
        floor_of(Fraction(0))


def test_floor_matches_high_precision_oracle():
    # 128-bit numeric floor on random valid states, both denominator signs
    rng = random.Random(909)
    with mpmath.workprec(128):
        for _ in range(1000):
            D = nonsquare(rng, 2, 10**6)
            s = isqrt(D)
            q = rng.randint(1, 1000) * rng.choice([1, -1])
            if q > 0:
                p = rng.randint(0, 3 * s)
            else:
                p = -(s + 1 + rng.randint(0, 1000))
            # blow up by |q| so the divisibility invariant holds by construction
            state = QuadraticSurd(p * abs(q), q * abs(q), D * q * q)
            numeric = int(mpmath.floor((p + mpmath.sqrt(D)) / q))
            assert floor_of(state) == numeric


def test_step_examples():
    x0 = make_sqrt(3)
    i0, x1 = anth_step(x0)
    assert i0 == 1 and (x1.P, x1.Q, x1.D) == (1, 2, 3)
    i1, x2 = anth_step(x1)
    assert i1 == 1 and (x2.P, x2.Q, x2.D) == (1, 1, 3)
    i2, x3 = anth_step(x2)
    assert i2 == 2 and (x3.P, x3.Q, x3.D) == (1, 2, 3)

    y0 = make_sqrt(17)
    j0, y1 = anth_step(y0)
    assert j0 == 4 and (y1.P, y1.Q, y1.D) == (4, 1, 17)
    j1, y2 = anth_step(y1)
    assert j1 == 8 and (y2.P, y2.Q, y2.D) == (4, 1, 17)


def test_walk_preserves_invariants():
    # 200 steps from sqrt(C) for every non-square C <= 1000:
    # divisibility holds, quotients stay >= 1 after the first step,
    # and reduced states stay inside the classical box
    for C in range(2, 1001):
        s = isqrt(C)
        if s * s == C:
            continue
        state = make_sqrt(C)
        for step in range(200):
            quotient, state = anth_step(state)
            assert quotient >= 1
            assert (state.D - state.P * state.P) % state.Q == 0
            assert 0 < state.P <= s
            assert 0 < state.Q <= 2 * s + 1


def test_sign_examples():
    assert sign_of(QFieldElement(-5, 3, 1, 3)) == 1
    assert sign_of(QFieldElement(1, -1, 1, 2)) == -1
    assert sign_of(QFieldElement(0, 0, 1, 2)) == 0
    assert sign_of(QFieldElement(7, 0, 2, 2)) == 1
    assert sign_of(QFieldElement(-7, 4, 1, 3)) == -1  # 4*sqrt(3) = 6.92... < 7


def test_field_element_normalization():
    e = QFieldElement(2, 4, -6, 3)
    assert (e.u, e.v, e.w) == (-1, -2, 3)
    z = QFieldElement(0, 0, 5, 3)
    assert (z.u, z.v, z.w) == (0, 0, 1)
    assert z.is_zero()
    with pytest.raises(DomainError):
        QFieldElement(1, 1, 0, 3)
    with pytest.raises(DomainError):
        QFieldElement(1, 1, 1, 4)  # square radicand with v != 0


def test_field_arithmetic():
    e1 = QFieldElement(-1, 1, 1, 3)  # sqrt(3) - 1
    b = QFieldElement(1, 0, 1, 3)
    diff = b - e1  # 2 - sqrt(3)
    assert (diff.u, diff.v, diff.w) == (2, -1, 1)
    assert sign_of(diff) == 1
    twice = 2 * e1
    assert (twice.u, twice.v, twice.w) == (-2, 2, 1)
    assert sign_of(e1 - e1) == 0
    with pytest.raises(DomainError):
        QFieldElement(1, 1, 1, 2) - QFieldElement(1, 1, 1, 3)


@st.composite
def field_elements(draw):
    d = draw(st.integers(2, 10**4).filter(lambda n: isqrt(n) ** 2 != n))
    u = draw(st.integers(-(10**9), 10**9))
    v = draw(st.integers(-(10**9), 10**9))
    w = draw(st.integers(1, 10**6))
    return QFieldElement(u, v, w, d)


@given(field_elements())
def test_sign_antisymmetry(e):
    assert sign_of(-e) == -sign_of(e)
    assert sign_of(e - e) == 0


@given(field_elements())
def test_sign_matches_float_when_clear(e):
    # cross-check against floating point where it is trustworthy
    approx = float(e)
    if abs(approx) > 1e-6:
        assert sign_of(e) == (1 if approx > 0 else -1)


@pytest.mark.parametrize(
    "call, arg",
    [(floor_of, 5), (floor_of, True), (anth_step, 5), (anth_step, Fraction(5, 2))],
    ids=["floor_of-int", "floor_of-bool", "anth_step-int", "anth_step-fraction"],
)
def test_step_and_floor_refuse_non_magnitudes(call, arg):
    with pytest.raises(DomainError):
        call(arg)


def test_rational_element_without_radicand_joins_any_field():
    diff = QFieldElement(1, 0, 1, 0) - QFieldElement(0, 1, 1, 5)  # 1 - sqrt(5)
    assert (diff.u, diff.v, diff.w, diff.D) == (1, -1, 1, 5)
    with pytest.raises(DomainError, match="incompatible fields"):
        QFieldElement(1, 1, 1, 2) - QFieldElement(0, 1, 1, 5)


def test_rational_element_with_a_radicand_joins_any_field():
    # 1 lies in every field, whatever radicand its element carries
    assert QFieldElement(1, 0, 1, 3) - QFieldElement(0, 1, 1, 5) == QFieldElement(1, -1, 1, 5)
    assert QFieldElement(0, 1, 1, 5) - QFieldElement(1, 0, 1, 3) == QFieldElement(-1, 1, 1, 5)
    diff = QFieldElement(3, 0, 1, 3) - QFieldElement(1, 0, 1, 5)
    assert (diff.u, diff.v, diff.w) == (2, 0, 1)


def test_subtracting_a_non_element_is_a_type_error():
    with pytest.raises(TypeError):
        QFieldElement(1, 1, 1, 5) - 1
    with pytest.raises(TypeError):
        1 - QFieldElement(1, 1, 1, 5)
