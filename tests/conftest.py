"""Shared test helpers: an emitted-certificate corpus and a tamper walker."""

from __future__ import annotations

import copy
import json
import random
import re
import sys
from fractions import Fraction
from typing import Any, Iterator

import pytest

from anthyphairesis import (
    Proved,
    anthyphairesis,
    finite_anth_certificate,
    isqrt,
    make_sqrt,
    parity_proof,
    periodic_anth_certificate,
    residue_prover,
)

CORPUS_SIZE = 200

# the interpreter's limit on int <-> decimal text conversion; 0 where it has none
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def is_square(n: int) -> bool:
    return isqrt(n) ** 2 == n


@pytest.fixture(scope="session")
def certificate_corpus():
    """Exactly 200 certificates of all four kinds, emitted by the library."""
    certs = []
    for C in range(2, 121):
        if is_square(C):
            continue
        certs.append(periodic_anth_certificate(anthyphairesis(make_sqrt(C), Fraction(1))))
    for k in range(1, 11):
        outcome = parity_proof(2 * k * k)
        assert isinstance(outcome, Proved)
        certs.append(outcome.certificate)
    for C in range(2, 61):
        if is_square(C):
            continue
        outcome = residue_prover(C)
        if isinstance(outcome, Proved):
            certs.append(outcome.certificate)
    rng = random.Random(20260825)
    while len(certs) < CORPUS_SIZE:
        n = rng.randint(1, 10**6)
        m = rng.randint(n + 1, 2 * 10**6)
        certs.append(finite_anth_certificate(m, n))
    return certs[:CORPUS_SIZE]


_DECIMAL = re.compile(r"^-?[0-9]+$")


def _int_leaves(node: Any, path: tuple = ()) -> Iterator[tuple[tuple, int, bool]]:
    """Yield (path, value, was_string) for every integer-valued leaf."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _int_leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _int_leaves(value, path + (i,))
    elif isinstance(node, str):
        if _DECIMAL.match(node):
            yield path, int(node), True
    elif isinstance(node, int) and not isinstance(node, bool):
        yield path, node, False


def iter_mutations(doc: dict) -> Iterator[str]:
    """All single-integer-field +-1 mutations of a certificate document,
    re-serialized as JSON text."""
    for path, value, was_string in _int_leaves(doc):
        for delta in (1, -1):
            mutated = copy.deepcopy(doc)
            target = mutated
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = str(value + delta) if was_string else value + delta
            yield json.dumps(mutated)
