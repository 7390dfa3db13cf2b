"""Span recorder for the benchmark's traced passes.

Spans are recorded from outside the program: `Tracer.wrap` replaces a
function under the names its callers look it up by, and `Tracer.installed`
puts every original back when the traced pass ends.  The program runs one
thread of Python, so a single stack gives each span its parent.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    """One call into a layer: name, start and end, and the enclosing span."""

    name: str
    start: float
    end: float
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for span, kids in zip(spans, children):
        clipped = [(max(s, span.start), min(e, span.end)) for s, e in kids]
        out.append(span.duration - union_length([c for c in clipped if c[1] > c[0]]))
    return out


def _is_wrapper(obj) -> bool:
    if isinstance(obj, (classmethod, staticmethod)):
        obj = obj.__func__
    return getattr(obj, "__bench_span__", None) is not None


class Tracer:
    """Records spans in memory while its wrappers are installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _traced(self, func, name, observe):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, self.clock(), 0.0, parent)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if observe is not None:
                observe(span, args, kwargs, result)
            return result

        traced.__bench_span__ = name
        return traced

    def wrap(self, owners, attr: str, name: str, observe=None) -> int:
        """Replace `attr` on every owner (module or class) that holds the same
        object as the first owner, so each caller's lookup finds the wrapper.
        `observe(span, args, kwargs, result)` runs after the span closes.
        Returns the number of places patched."""
        original = inspect.getattr_static(owners[0], attr)
        if isinstance(original, (classmethod, staticmethod)):
            wrapped = type(original)(self._traced(original.__func__, name, observe))
        else:
            wrapped = self._traced(original, name, observe)
        patched = 0
        for owner in owners:
            if owner.__dict__.get(attr) is original:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                patched += 1
        return patched

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, install):
        """Run `install(self)`, yield, and restore every original on exit."""
        try:
            install(self)
            yield self
        finally:
            self.unwrap_all()

    # -- aggregation -----------------------------------------------------

    def named(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.name == name]

    def ancestor(self, index: int, name: str) -> Span | None:
        parent = self.spans[index].parent
        while parent is not None:
            if self.spans[parent].name == name:
                return self.spans[parent]
            parent = self.spans[parent].parent
        return None

    def inclusive(self, name: str) -> float:
        """Summed duration of the outermost spans of `name` (a span nested in
        one of the same name is not counted twice)."""
        return float(
            sum(self.spans[i].duration for i in self.named(name) if self.ancestor(i, name) is None)
        )

    def self_time(self, name: str) -> float:
        times = self_times(self.spans)
        return float(sum(times[i] for i in self.named(name)))


def leftover_wrappers(owners) -> list[str]:
    """Names of attributes on `owners` that are still benchmark wrappers."""
    found = []
    for owner in owners:
        for attr, value in vars(owner).items():
            if _is_wrapper(value):
                found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return found
