"""The machine's speed during a run, read from a fixed reference loop.

Other tenants of the machine this benchmark was built on slow it by up to
2x, in phases of seconds to minutes, so whole runs land in slow or fast
phases.  The benchmark runs this loop right before every timing it takes
and scales that timing by

    factor = NOMINAL_S / (the loop's time then)

so that it reads as on a machine where the loop takes NOMINAL_S.  Measured
side by side through such phases, the emit pipeline's time over the loop's
stayed within a few percent while both doubled.  The loop does the same
kinds of work as the package (integer arithmetic, small objects, a dict,
decimal strings) but calls none of it, so a change to the package cannot
move the factor.  Results files keep the unscaled figures.
"""

from __future__ import annotations

import gc
import math
import statistics
import time

# The loop's median time on the machine the bounds in BENCHMARK.json were
# set on (a 2-vCPU Intel Xeon VM, CPython 3.11) in a quiet phase.
NOMINAL_S = 0.0036


class _State:
    __slots__ = ("p", "q", "d")

    def __init__(self, p: int, q: int, d: int) -> None:
        self.p, self.q, self.d = p, q, d


def reference_s() -> float:
    """Time one pass of the reference loop, with the collector paused."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        D = 10**12 + 3
        a0 = math.isqrt(D)
        m, d, a = 0, 1, a0
        seen, out = {}, []
        for _ in range(6000):
            m = d * a - m
            d = (D - m * m) // d
            a = (a0 + m) // d
            seen[(m, d)] = _State(m, d, D)
            out.append(str(a))
        return time.perf_counter() - t0
    finally:
        gc.enable()


def factors(references: list[float], window: int = 5) -> list[float]:
    """Speed factor for each reading, taken in time order.  Each reading is
    replaced by the median of the `window` readings centred on it, so one
    disturbed pass of the loop does not skew the timing it scales."""
    half = window // 2
    return [NOMINAL_S / statistics.median(references[max(0, i - half):i + half + 1])
            for i in range(len(references))]
