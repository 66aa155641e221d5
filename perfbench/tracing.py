"""Spans recorded from outside the program.

The benchmark never edits ``src/``.  A :class:`Tracer` replaces public
functions and methods with thin wrappers that record a span per call —
name, start, end, parent span and self time — and restores the
originals on :meth:`Tracer.restore`.  Spans stay in memory until
:meth:`Tracer.dump` writes them out at the end of a run.

Calls nest through a per-thread stack, so a span's self time is its
duration minus the time of the spans it directly caused on the same
thread.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns


_INHERITED = object()


class Span:
    __slots__ = ("name", "start", "end", "self_ns", "parent", "result", "phase")

    def __init__(self, name, start, end, self_ns, parent, result=None):
        self.name = name
        self.start = start
        self.end = end
        self.self_ns = self_ns
        self.parent = parent
        self.result = result
        self.phase = None

    @property
    def ns(self) -> int:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []
        #: Label stamped on every span recorded from now on; the
        #: benchmark sets it around each phase of a workload.
        self.phase: str | None = None

    # -- recording ------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, span: Span) -> None:
        span.phase = self.phase
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        """Record a span around the block; it yields a list where the
        block may put a result to keep on the span."""
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        frame = [name, 0]  # [name, ns spent in child spans]
        stack.append(frame)
        kept: list = []
        start = perf_counter_ns()
        try:
            yield kept
        finally:
            end = perf_counter_ns()
            stack.pop()
            elapsed = end - start
            if stack:
                stack[-1][1] += elapsed
            self._record(
                Span(name, start, end, elapsed - frame[1], parent, kept[0] if kept else None)
            )

    def wrap(self, name: str, fn, keep_result: bool = False):
        """``fn`` with every call recorded as a span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as kept:
                result = fn(*args, **kwargs)
                if keep_result:
                    kept.append(result)
                return result

        return traced

    # -- installation ---------------------------------------------------

    def patch(self, owner, attr: str, name: str, keep_result: bool = False):
        """Wrap ``owner.attr`` (a module function or a class method,
        possibly inherited)."""
        if isinstance(owner, type):
            raw = next(k.__dict__[attr] for k in owner.__mro__ if attr in k.__dict__)
            previous = owner.__dict__.get(attr, _INHERITED)
        else:
            raw = previous = getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(name, raw.__func__, keep_result))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self.wrap(name, raw.__func__, keep_result))
        else:
            wrapped = self.wrap(name, raw, keep_result)
        self._restore.append((owner, attr, previous))
        setattr(owner, attr, wrapped)

    def patch_function(self, fn, name: str, keep_result: bool = False) -> None:
        """Wrap a module-level function in every ``repro`` module that
        bound it by name, so callers that imported it see the wrapper."""
        wrapped = self.wrap(name, fn, keep_result)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapped)

    def restore(self) -> None:
        while self._restore:
            owner, attr, previous = self._restore.pop()
            if previous is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    # -- reading --------------------------------------------------------

    def by_name(self) -> dict[str, list[Span]]:
        grouped: dict[str, list[Span]] = defaultdict(list)
        for span in self.spans:
            grouped[span.name].append(span)
        return grouped

    def dump(self, path) -> None:
        """Write every span as one JSON line (times in ns)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        [span.name, span.phase, span.parent, span.start,
                         span.end, span.self_ns],
                        allow_nan=False,
                    )
                    + "\n"
                )


def total_s(spans) -> float:
    return sum(span.ns for span in spans) / 1e9


def self_s(spans) -> float:
    return sum(span.self_ns for span in spans) / 1e9
