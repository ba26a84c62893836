"""In-memory span aggregation for the traced benchmark run.

A span is one call through a wrapped boundary.  For each span name the
tracer keeps the call count, the total time, the self time and every
call's duration, so percentiles come from all samples.  Self time is a
span's duration minus the time covered by its direct child spans.  Nothing
is written while spans are recorded; the caller writes the summary out at
exit.
"""

from __future__ import annotations

import functools
import math
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

_MISSING = object()


class SpanStats:
    __slots__ = ("count", "total_ns", "self_ns", "samples")

    def __init__(self):
        self.count = 0
        self.total_ns = 0
        self.self_ns = 0
        self.samples = array("q")

    def percentile_ns(self, q: float) -> float:
        """Nearest-rank percentile of the recorded durations, 0 with no samples."""
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        rank = max(1, math.ceil(len(ordered) * q / 100))
        return float(ordered[rank - 1])


class Tracer:
    """Aggregates spans per name; ``clock`` returns integer nanoseconds."""

    def __init__(self, clock=perf_counter_ns):
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # [name, ns covered by direct children]
        self._patches: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as one span called ``name``."""
        frame = [name, 0]
        stack = self._stack
        stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = self.clock() - start
            stack.pop()
            if stack:
                stack[-1][1] += duration
            stats = self.stats.get(name)
            if stats is None:
                stats = self.stats[name] = SpanStats()
            stats.count += 1
            stats.total_ns += duration
            stats.self_ns += duration - frame[1]
            stats.samples.append(duration)

    def wrap(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(result, args)`` runs outside the span."""
        call = self.call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = call(name, fn, *args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def active(self, name: str) -> bool:
        """True while a span called ``name`` is open."""
        return any(frame[0] == name for frame in self._stack)

    def patch(self, owner, attr: str, replacement) -> None:
        """Replace ``owner.attr`` until ``unpatch_all``; class attributes may be inherited."""
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def patch_span(self, owner, attr: str, name: str, after=None) -> None:
        self.patch(owner, attr, self.wrap(name, getattr(owner, attr), after))

    def unpatch_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    @contextmanager
    def installed(self, install):
        """Apply ``install(self)`` for the duration of the block, then undo every patch."""
        try:
            install(self)
            yield self
        finally:
            self.unpatch_all()

    def summary(self) -> dict:
        return {
            "spans": {
                name: {
                    "count": s.count,
                    "total_s": s.total_ns / 1e9,
                    "self_s": s.self_ns / 1e9,
                    "p50_us": s.percentile_ns(50) / 1e3,
                    "p99_us": s.percentile_ns(99) / 1e3,
                }
                for name, s in sorted(self.stats.items())
            },
            "counters": dict(sorted(self.counters.items())),
        }
