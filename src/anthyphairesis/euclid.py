"""Anthyphairesis (reciprocal subtraction) of natural numbers.

The mutual-division chain of Elements VII.1-2: for m > n > 0,

    m = k1*n + r1          (0 <= r1 < n)
    n = k2*r1 + r2
    ...
    r_{j-1} = k_{j+1}*r_j  (exact)

collecting quotients [k1, k2, ...].  Only the katalaipomenon counts as a
remainder: the single r with m = k*n + r and r < n, never the intermediate
differences m - i*n for i < k.  The chain always terminates and the last
divisor (= last nonzero remainder) is the greatest common divisor; 1 means
the pair is relatively prime.

Quotient lists produced here are canonical: the final quotient is >= 2
unless the list has length 1 (a strict remainder is smaller than its
divisor, so the closing exact division has quotient >= 2).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .convergents import _continuants
from .errors import DomainError, is_int, require_int


@dataclass(frozen=True)
class NatAnthResult:
    """Quotient chain of a pair of naturals plus their gcd."""

    quotients: tuple[int, ...]
    gcd: int


def anth_nat(m: int, n: int) -> NatAnthResult:
    """Run the division chain on m > n > 0.

    Equal inputs are a domain error: callers swap or pre-reduce.
    """
    require_int(m, "m")
    require_int(n, "n", 1)
    if m <= n:
        raise DomainError(f"need m > n, got m={m}, n={n}")
    quotients = []
    a, b = m, n
    while True:
        k, r = divmod(a, b)
        quotients.append(k)
        if r == 0:
            return NatAnthResult(tuple(quotients), b)
        a, b = b, r


def gcd_of(m: int, n: int) -> int:
    """Greatest common divisor via the division chain.

    Symmetric, and tolerant of zero on one side; (0, 0) has no gcd.
    """
    require_int(m, "m", 0)
    require_int(n, "n", 0)
    if m == 0 and n == 0:
        raise DomainError("gcd(0, 0) is undefined")
    if m == 0:
        return n
    if n == 0:
        return m
    if m == n:
        return m
    if m < n:
        m, n = n, m
    return anth_nat(m, n).gcd


def reconstruct_from_quotients(quotients: list[int] | tuple[int, ...]) -> tuple[int, int]:
    """Rebuild the coprime pair whose quotient chain is the given list.

    Uses the continuant recurrence p_k = I_k*p_{k-1} + p_{k-2} (and the same
    for q).  For canonical quotient lists this inverts anth_nat:
    anth_nat(p, q).quotients == quotients with gcd 1.
    """
    if len(quotients) == 0:
        raise DomainError("quotient list must be non-empty")
    return deque(_continuants(quotients), maxlen=1)[0]


def scale_invariance_check(m: int, n: int, c: Fraction | int) -> bool:
    """True iff the engine on (m*c, n*c) reproduces anth_nat(m, n).

    The scaled pair is handed to the engine as exact fractions, which reduces
    it to the single ratio m : n before running the division chain.  So this
    checks the engine's exact ratio reduction and, through it, the
    scale-invariance law Anth(mc, nc) = Anth(m, n).
    """
    from .engine import Finite, anthyphairesis  # lazy: engine imports euclid

    expected = anth_nat(m, n).quotients
    if not (is_int(c) or isinstance(c, Fraction)):
        raise DomainError(f"scale must be an integer or a Fraction, got {c!r}")
    scale = Fraction(c)
    if scale <= 0:
        raise DomainError(f"scale must be positive, got {c}")
    trace = anthyphairesis(Fraction(m) * scale, Fraction(n) * scale)
    return isinstance(trace.termination, Finite) and trace.quotients == expected
