"""In-memory spans around the benchmark's calls into the package.

A span records its name, start, end, parent and the item it belongs to,
plus `n`, the work it did (quotients, bytes, rows) where that is known.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import collections
import time


class Span:
    __slots__ = ("name", "item", "parent", "start", "end", "n", "_index", "_open")

    def __init__(self, name: str, item: str, index: int, open_stack: list[int]) -> None:
        self.name, self.item = name, item
        self.parent = open_stack[-1] if open_stack else None
        self.start = self.end = 0.0
        self.n = 0
        self._index, self._open = index, open_stack

    def __enter__(self) -> "Span":
        self._open.append(self._index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        self._open.pop()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: collections.Counter[str] = collections.Counter()
        self._open: list[int] = []

    def span(self, name: str, item: str) -> Span:
        """A span to enter with `with`; its parent is the span open now."""
        s = Span(name, item, len(self.spans), self._open)
        self.spans.append(s)
        return s

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] += k

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def stats(self) -> dict[str, dict]:
        """Per span name: calls, busy_s, self_s, summed work n, and the busy
        time of the spans that did counted work."""
        out: dict[str, dict] = {}
        for s, own in zip(self.spans, self.self_times()):
            st = out.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                         "n": 0, "busy_with_n_s": 0.0})
            st["calls"] += 1
            st["busy_s"] += s.end - s.start
            st["self_s"] += own
            st["n"] += s.n
            if s.n:
                st["busy_with_n_s"] += s.end - s.start
        return out

    def records(self, phase: str) -> list[dict]:
        return [{"phase": phase, "name": s.name, "item": s.item, "parent": s.parent,
                 "start": s.start, "end": s.end, "n": s.n} for s in self.spans]


class _NoSpan:
    n = 0

    def __enter__(self) -> "_NoSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


class NullTracer:
    """Stands in for a Tracer in untraced runs and records nothing."""

    _none = _NoSpan()

    def span(self, name: str, item: str) -> _NoSpan:
        return self._none

    def count(self, name: str, k: int = 1) -> None:
        pass
