"""Reference computations for checking the benchmark's outputs.

Nothing here imports the anthyphairesis package: each oracle redoes the
arithmetic with plain integers, so a defect in the engine cannot also hide
in the check.  All of this runs outside the timed phase.
"""

from __future__ import annotations

import json
import math
import random
import re


def is_square(n: int) -> bool:
    r = math.isqrt(n)
    return r * r == n


def sqrt_expansion(D: int, cap: int) -> tuple[int, list[int]] | None:
    """sqrt(D) as (a0, one period of quotients), or None if the period
    is longer than cap.

    The classical walk on (m, d): the period closes at the first d == 1
    and its last quotient is 2*a0.
    """
    a0 = math.isqrt(D)
    m, d, a = 0, 1, a0
    period: list[int] = []
    while len(period) < cap:
        m = d * a - m
        d = (D - m * m) // d
        a = (a0 + m) // d
        period.append(a)
        if d == 1:
            return a0, period
    return None


def surd_over_rational(P: int, Q: int, D: int, r: int, s: int) -> tuple[int, int, int]:
    """((P + sqrt(D))/Q) / (r/s) as a state (P', Q', D') with Q' | D' - P'^2."""
    p, q, d = s * P, Q * r, s * s * D
    if (d - p * p) % q:
        p, q, d = p * abs(q), q * abs(q), d * q * q
    return p, q, d


def surd_expansion(P: int, Q: int, D: int, cap: int) -> tuple[list[int], int, int] | None:
    """Quotients of (P + sqrt(D))/Q up to the first repeated (P, Q) state,
    as (quotients, preperiod, period), or None past cap quotients."""
    s = math.isqrt(D)
    seen: dict[tuple[int, int], int] = {}
    quotients: list[int] = []
    while (P, Q) not in seen:
        if len(quotients) >= cap:
            return None
        seen[(P, Q)] = len(quotients)
        a = (P + s) // Q if Q > 0 else (-P - s - 1) // -Q
        quotients.append(a)
        P = a * Q - P
        Q = (D - P * P) // Q
    start = seen[(P, Q)]
    return quotients, start, len(quotients) - start


def division_chain(m: int, n: int) -> tuple[list[int], int]:
    """Quotients of the divmod chain on m > n > 0, and the last divisor."""
    quotients = []
    while n:
        k, r = divmod(m, n)
        quotients.append(k)
        m, n = n, r
    return quotients, m


def table_row(C: int) -> dict:
    """What a survey row for C must say: squareness, the full expansion of
    sqrt(C), and which classical provers apply."""
    if is_square(C):
        return {"is_square": True, "quotients": [math.isqrt(C)],
                "parity": "not_applicable", "residue": "not_applicable"}
    a0, period = sqrt_expansion(C, C + 2)
    return {
        "is_square": False,
        "quotients": [a0, *period],
        "parity": "proved" if C % 2 == 0 and is_square(C // 2) else "not_applicable",
        "residue": residue_status(C),
    }


def residue_status(C: int) -> str:
    """Squares mod 8 settle non-square C unless C, stripped of factors 4, is 1 mod 8."""
    while C % 4 == 0:
        C //= 4
    return "inconclusive" if C % 8 == 1 else "proved"


# ---------------------------------------------------------------------------
# certificate documents, written from the oracles' own results


def _text(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def periodic_document(D: int, a0: int, period: list[int]) -> str:
    """The periodic_anth wire document for sqrt(D) against 1."""
    return _text({
        "kind": "periodic_anth",
        "version": 1,
        "C": str(D),
        "preperiod_quotients": [str(a0)],
        "period_quotients": [str(q) for q in period],
        "witness_state": [str(a0), str(D - a0 * a0), str(D)],
        "recurrence_offset": "1",
    })


def finite_document(m: int, n: int) -> str:
    """The finite_anth wire document for the pair m > n."""
    quotients, g = division_chain(m, n)
    return _text({
        "kind": "finite_anth",
        "version": 1,
        "m": str(m),
        "n": str(n),
        "quotients": [str(q) for q in quotients],
        "gcd": str(g),
    })


_INTEGER = re.compile(r"-?[0-9]+")


def tamper(text: str, rng: random.Random) -> str:
    """Add or subtract one at a single integer field of a certificate document."""
    doc = json.loads(text)
    slots = []

    def collect(node) -> None:
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            if isinstance(value, (dict, list)):
                collect(value)
            elif isinstance(value, str) and _INTEGER.fullmatch(value):
                slots.append((node, key))

    collect(doc)
    node, key = rng.choice(slots)
    node[key] = str(int(node[key]) + rng.choice((-1, 1)))
    return _text(doc)
