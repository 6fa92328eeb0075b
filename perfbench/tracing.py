"""Spans recorded from outside the library, for the traced run.

:class:`Tracer` replaces public functions and methods at the attribute where
the library looks them up (``repro.engine.backend.ttmc_matricized``, ...)
with timing wrappers, and restores the originals on :meth:`Tracer.uninstall`.
Nothing under ``src/`` changes.  Each span records its name, start, end,
parent span (per thread), the run id the benchmark set, and a few counts
taken at the same boundary.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from arith import self_time


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: str
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.run_id = "-"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[tuple] = []

    # -- recording ------------------------------------------------------ #
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args, kwargs, count=None):
        """Run ``fn(*args, **kwargs)`` inside a span; ``count`` adds attrs."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        span = Span(span_id, name, start, end, parent, self.run_id)
        if count is not None:
            span.attrs = count(args, kwargs, result)
        self.spans.append(span)
        return result

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """A span of the benchmark's own around one call into the library."""
        return self.call(name, fn, args, kwargs)

    async def aspan(self, name: str, awaitable):
        """Time an awaited call (e.g. ``service.submit``) as a span."""
        start = time.perf_counter()
        result = await awaitable
        stack = self._stack()
        self.spans.append(
            Span(next(self._ids), name, start, time.perf_counter(),
                 stack[-1] if stack else None, self.run_id)
        )
        return result

    # -- patching ------------------------------------------------------- #
    def install(self, module: str, attr: str, name: str, count=None) -> None:
        """Wrap ``module.attr`` (``attr`` may be ``Class.method``)."""
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = inspect.getattr_static(owner, leaf)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, count)

        setattr(owner, leaf, kind(traced) if kind is not None else traced)
        self._patched.append((owner, leaf, raw))

    def uninstall(self) -> None:
        for owner, leaf, raw in reversed(self._patched):
            setattr(owner, leaf, raw)
        self._patched.clear()

    # -- aggregation ---------------------------------------------------- #
    @staticmethod
    def layer_totals(spans: List[Span]) -> Dict[str, float]:
        """Busy seconds per span name, counting a nested same-name span once."""
        by_id = {s.id: s for s in spans}
        totals: Dict[str, float] = defaultdict(float)
        for s in spans:
            parent = by_id.get(s.parent)
            if parent is None or parent.name != s.name:
                totals[s.name] += s.duration
        return totals

    @staticmethod
    def self_seconds(spans: List[Span], name: str) -> float:
        """Summed self time of every ``name`` span (duration minus children)."""
        children = defaultdict(list)
        for s in spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        return sum(
            self_time(s.start, s.end, children[s.id])
            for s in spans if s.name == name
        )

    @staticmethod
    def attr_sum(spans: List[Span], name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0.0) for s in spans if s.name == name)

    def dump(self, path) -> None:
        records = [
            {"id": s.id, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "run": s.run, **({"attrs": s.attrs} if s.attrs else {})}
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"spans": records}, fh, separators=(",", ":"))
