"""In-memory spans for the traced benchmark run.

A span records a name, its start and end (``time.perf_counter`` seconds), the
span that was open when it began (its parent), the pass it belongs to, and
work counts taken from the return values of the call it wraps. Spans stay in
memory and are written out once, when the run ends. Spans are recorded only
by the benchmark's own files, around its calls into the package's public
functions.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int | str
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def count(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


class _NullSpan:
    def count(self, key: str, value) -> None:
        pass


class NullTracer:
    """Tracing off: a span costs one context-manager entry and records nothing."""

    @contextmanager
    def span(self, name: str):
        yield _NullSpan()


class Tracer:
    """Tracing on: every span is appended to ``spans``; ``pass_id`` tags new spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id: int | str = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        sp = Span(name, time.perf_counter(), float("nan"), parent, self.pass_id)
        self.spans.append(sp)
        self._open.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    lo = hi = None
    for start, end in sorted(intervals):
        if hi is None or start > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = start, end
        else:
            hi = max(hi, end)
    if hi is not None:
        total += hi - lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: list[list[Span]] = [[] for _ in spans]
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append(sp)
    out = []
    for sp, kids in zip(spans, children):
        clipped = [(max(k.start, sp.start), min(k.end, sp.end)) for k in kids]
        out.append(sp.duration - covered([(a, b) for a, b in clipped if b > a]))
    return out


def nesting_errors(spans: list[Span], selfs: list[float]) -> list[str]:
    """Spans that end before they start, leave their parent's interval, or
    have a self time outside [0, duration]."""
    errors = []
    for sp, own in zip(spans, selfs):
        if not sp.end >= sp.start:
            errors.append(f"{sp.name}: ends before it starts")
        if not -1e-9 <= own <= sp.duration + 1e-9:
            errors.append(f"{sp.name}: self time {own!r} outside [0, {sp.duration!r}]")
        if sp.parent is not None:
            parent = spans[sp.parent]
            if sp.start < parent.start or sp.end > parent.end:
                errors.append(f"{sp.name}: not inside its parent {parent.name}")
    return errors


def by_pass(spans: list[Span], selfs: list[float]) -> dict[int | str, dict[str, dict]]:
    """Per pass and span name: summed self time, span count and summed work counts."""
    out: dict[int | str, dict[str, dict]] = {}
    for sp, own in zip(spans, selfs):
        entry = out.setdefault(sp.pass_id, {}).setdefault(
            sp.name, {"self_s": 0.0, "spans": 0, "counts": {}}
        )
        entry["self_s"] += own
        entry["spans"] += 1
        for key, value in sp.counts.items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
    return out
