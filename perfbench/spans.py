"""In-memory span tracing of a program from outside it.

A ``Tracer`` records one span per call of a wrapped function: its name,
start and end (``time.perf_counter_ns``), the enclosing span and the op
(forward pass or train step) it belongs to. ``Patch`` installs the
wrappers in every namespace where callers look the functions up and puts
the originals back afterwards. Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path
from typing import Callable, Iterable, Sequence

# work(args, result) -> {counter: number}, evaluated after the span ends.
WorkFn = Callable[[tuple, object], dict]


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "shape", "work")

    def __init__(self, name: str, op: int, parent: int, start: int = 0, end: int = 0,
                 shape: tuple | None = None):
        self.name = name
        self.op = op
        self.parent = parent      # index of the enclosing span, -1 at the root
        self.start = start
        self.end = end
        self.shape = shape        # shape of the first argument, when it has one
        self.work: dict | None = None


class Tracer:
    """Collects spans; ``op`` tags every span started while it is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, work: WorkFn | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            first = args[0] if args else None
            span = Span(name, tracer.op, stack[-1] if stack else -1,
                        shape=getattr(first, "shape", None))
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if work is not None:
                span.work = work(args, result)
            return result

        return traced

    def dump(self, path: Path) -> None:
        """Write every span as one JSON list, in start order."""
        rows = [{"name": s.name, "op": s.op, "parent": s.parent,
                 "start_ns": s.start, "end_ns": s.end, "work": s.work}
                for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows))


class Patch:
    """Replaces functions by traced wrappers wherever a namespace holds them.

    ``targets`` is a list of (span name, function, work). A function is
    replaced in every namespace (module or class) whose own attribute
    *is* that function, so a caller's lookup reaches the wrapper whether
    it imported the name or reads it from the defining module. ``restore``
    puts each original object back.
    """

    def __init__(self, tracer: Tracer, namespaces: Iterable[object],
                 targets: Sequence[tuple[str, Callable, WorkFn | None]]):
        self.tracer = tracer
        namespaces = list(namespaces)
        self._points: list[tuple[object, str, Callable, Callable]] = []
        for name, fn, work in targets:
            wrapper = tracer.wrap(name, fn, work)
            found = [(ns, attr) for ns in namespaces
                     for attr, value in list(vars(ns).items()) if value is fn]
            if not found:
                raise LookupError(f"{name}: no namespace holds {fn.__qualname__}")
            self._points += [(ns, attr, fn, wrapper) for ns, attr in found]

    def apply(self) -> None:
        for ns, attr, _, wrapper in self._points:
            setattr(ns, attr, wrapper)

    def restore(self) -> None:
        for ns, attr, original, _ in self._points:
            setattr(ns, attr, original)

    def __enter__(self) -> "Patch":
        self.apply()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.restore()


def self_times(spans: Sequence[Span]) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out = []
    for span, kids in zip(spans, children):
        covered, reach = 0, span.start
        for kid in sorted((spans[k] for k in kids), key=lambda s: s.start):
            lo, hi = max(kid.start, reach), min(kid.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out
