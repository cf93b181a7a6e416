"""Integer division-chain behavior."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from anthyphairesis import (
    DomainError,
    anth_nat,
    gcd_of,
    reconstruct_from_quotients,
    scale_invariance_check,
)


def gcd_by_subtraction(a: int, b: int) -> int:
    # independent oracle: nothing but repeated subtraction
    while a != b:
        if a > b:
            a -= b
        else:
            b -= a
    return a


def test_division_chain_examples():
    r = anth_nat(17, 5)
    assert r.quotients == (3, 2, 2)
    assert r.gcd == 1
    r = anth_nat(12, 4)
    assert r.quotients == (3,)
    assert r.gcd == 4
    r = anth_nat(170, 50)
    assert r.quotients == (3, 2, 2)
    assert r.gcd == 10


def test_scaled_pair_has_same_quotients():
    assert anth_nat(170, 50).quotients == anth_nat(17, 5).quotients
    assert anth_nat(17 * 99, 5 * 99).quotients == (3, 2, 2)


def test_domain_errors():
    with pytest.raises(DomainError):
        anth_nat(5, 5)
    with pytest.raises(DomainError):
        anth_nat(3, 5)
    with pytest.raises(DomainError):
        anth_nat(5, 0)
    with pytest.raises(DomainError):
        anth_nat(-5, 3)
    with pytest.raises(DomainError):
        gcd_of(0, 0)
    with pytest.raises(DomainError):
        reconstruct_from_quotients([])
    with pytest.raises(DomainError):
        reconstruct_from_quotients([3, 0, 2])


def test_gcd_edge_cases():
    assert gcd_of(0, 7) == 7
    assert gcd_of(7, 0) == 7
    assert gcd_of(9, 9) == 9
    assert gcd_of(5, 170) == 5
    assert gcd_of(170, 5) == 5


def test_gcd_matches_subtraction_oracle():
    rng = random.Random(20260825)
    for _ in range(1000):
        a = rng.randint(1, 3000)
        b = rng.randint(1, 3000)
        assert gcd_of(a, b) == gcd_by_subtraction(a, b)


def test_remainder_replay_strictly_decreases():
    rng = random.Random(101)
    for _ in range(300):
        n = rng.randint(1, 10**6)
        m = rng.randint(n + 1, 10**7)
        res = anth_nat(m, n)
        a, b = m, n
        remainders = []
        for q in res.quotients:
            assert a // b == q
            a, b = b, a % b
            remainders.append(b)
        assert b == 0
        assert a == res.gcd
        assert all(x > y for x, y in zip([n] + remainders, remainders))


def test_last_quotient_at_least_two():
    # canonical form: a trailing 1 would have been folded into the previous step
    rng = random.Random(7)
    for _ in range(500):
        n = rng.randint(1, 99999)
        m = rng.randint(n + 1, 10**6)
        assert anth_nat(m, n).quotients[-1] >= 2


@given(
    st.lists(st.integers(1, 20), min_size=0, max_size=8),
    st.integers(2, 20),
)
def test_reconstruct_round_trip(mid, last):
    quots = tuple(mid) + (last,)
    p, q = reconstruct_from_quotients(quots)
    assert p > q >= 1
    assert math.gcd(p, q) == 1
    res = anth_nat(p, q)
    assert res.quotients == quots
    assert res.gcd == 1


def test_reconstruct_examples():
    assert reconstruct_from_quotients([1, 1, 2]) == (5, 3)
    assert reconstruct_from_quotients([3, 2, 2]) == (17, 5)
    assert reconstruct_from_quotients([4]) == (4, 1)


def test_scale_invariance_examples():
    assert scale_invariance_check(17, 5, 3)
    assert scale_invariance_check(17, 5, Fraction(3, 7))
    with pytest.raises(DomainError):
        scale_invariance_check(17, 5, 0)
    with pytest.raises(DomainError):
        scale_invariance_check(17, 5, Fraction(-1, 2))


def test_scale_invariance_sweep():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 10**4)
        m = rng.randint(n + 1, 10**5)
        c = Fraction(rng.randint(1, 1000), rng.randint(1, 1000))
        assert scale_invariance_check(m, n, c)


@pytest.mark.parametrize("c", ["3", True, 2.5], ids=["str", "bool", "float"])
def test_scale_must_be_an_integer_or_a_fraction(c):
    with pytest.raises(DomainError):
        scale_invariance_check(5, 3, c)


def test_scale_may_be_a_fraction():
    assert scale_invariance_check(5, 3, Fraction(2, 3))
