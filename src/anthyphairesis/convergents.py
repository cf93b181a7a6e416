"""Convergents of a quotient chain, and the side-and-diameter numbers.

The convergents p_k/q_k of [I_0; I_1, I_2, ...] follow the continuant
recurrence p_k = I_k*p_{k-1} + p_{k-2}, q_k = I_k*q_{k-1} + q_{k-2} with
seeds p_{-1} = 1, p_{-2} = 0, q_{-1} = 0, q_{-2} = 1.  Adjacent convergents
satisfy p_{k+1}*q_k - p_k*q_{k+1} = +-1 (alternating), which forces each
p_k/q_k to be in lowest terms.

The side-and-diameter numbers are the classical recursively built pairs
s_1 = d_1 = 1, s_{k+1} = s_k + d_k, d_{k+1} = 2*s_k + d_k, whose ratios
d_k/s_k are exactly the convergents of sqrt(2) and whose defect
d_k^2 - 2*s_k^2 oscillates between -1 and +1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Sequence

from .errors import DomainError, require_int


@dataclass(frozen=True)
class Convergent:
    p: int
    q: int
    index: int


def _continuants(quotients: Iterable[int]) -> Iterator[tuple[int, int]]:
    """Yield (p_k, q_k) for each quotient in turn; quotients must be integers >= 1."""
    p, p_prev = 1, 0
    q, q_prev = 0, 1
    for a in quotients:
        require_int(a, "quotient", 1)
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        yield p, q


def convergents(quotients: Sequence[int], k: int) -> list[Convergent]:
    """First k convergents of a quotient chain (k <= len(quotients))."""
    require_int(k, "k", 0)
    if len(quotients) == 0:
        raise DomainError("quotient list must be non-empty")
    if k > len(quotients):
        raise DomainError(f"k={k} exceeds the {len(quotients)} available quotients")
    pairs = islice(_continuants(quotients), k)
    return [Convergent(p, q, i) for i, (p, q) in enumerate(pairs)]


def side_diameter(n: int) -> tuple[int, int]:
    """The n-th side-and-diameter pair (s_n, d_n), 1-based."""
    require_int(n, "n", 1)
    s, d = 1, 1
    for _ in range(n - 1):
        s, d = s + d, 2 * s + d
    return s, d


def pell_residual(p: int, q: int, C: int) -> int:
    """The defect p^2 - C*q^2; for convergents of sqrt(C) it stays small."""
    require_int(p, "p")
    require_int(q, "q", 1)
    require_int(C, "C", 1)
    return p * p - C * q * q
