"""Spans and call counters recorded from outside the program.

The tracer replaces module attributes -- the names a caller looks up at call
time -- with timing wrappers, and puts them back on ``uninstall``.  A span
records (id, name, start, end, parent, fit id); spans stay in memory until
the run writes them out.  A counter records calls and the seconds spent in
them.  An attribute that no longer exists is reported as absent rather than
raising, so the benchmark keeps working when a later change removes it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    fit: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counters: dict = {}  # name -> [calls, seconds]
        self.absent: set = set()
        self.fit: int | None = None
        self._stack: list = []
        self._saved: list = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.fit)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def _replace(self, target: str, make_wrapper) -> bool:
        module_name, _, attr = target.rpartition(".")
        try:
            original = getattr(importlib.import_module(module_name), attr)
        except (ImportError, AttributeError):
            self.absent.add(target)
            return False
        module = sys.modules[module_name]
        setattr(module, attr, functools.wraps(original)(make_wrapper(original)))
        self._saved.append((module, attr, original))
        return True

    def wrap_span(self, target: str, name: str) -> bool:
        """Record a span named ``name`` around every call of ``module.attr``."""

        def make(original):
            def wrapper(*args, **kwargs):
                return self.call(name, original, *args, **kwargs)

            return wrapper

        return self._replace(target, make)

    def wrap_counter(self, target: str, name: str) -> bool:
        """Count calls of ``module.attr`` and the seconds they take."""
        tally = self.counters.setdefault(name, [0, 0.0])

        def make(original):
            def wrapper(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    tally[0] += 1
                    tally[1] += time.perf_counter() - start

            return wrapper

        if not self._replace(target, make):
            del self.counters[name]
            return False
        return True

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def self_times(spans) -> dict:
    """Span id -> its duration minus the part of it that child spans cover."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.id, [])):
            start = max(start, cursor)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out[span.id] = span.duration - covered
    return out
