"""Span tracer that wraps library names from outside the library.

The tracer replaces a module attribute (``cluster.build_knn_graph``, say)
with a wrapper that records a span around each call.  Callers inside the
library look these names up at call time, so the wrapper sees every call
without any change to the library.  Spans are kept in memory as tuples and
written out by the caller at the end of the run.

A hook on a name that does not exist (a private helper a later version
deleted) is skipped and reported to the caller; the run goes on.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    """Records (name, start, end, parent, op) spans and per-span counters."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counters: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        sid = len(self.spans) - 1
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def within(self, name: str) -> bool:
        """True when a span of this name is open on the current stack."""
        return any(self.spans[s][0] == name for s in self._stack)

    def hook(self, module, attr: str, span: str, after=None) -> bool:
        """Wrap ``module.attr`` so each call records ``span``.

        ``after(tracer, args, kwargs, result)`` runs once the span has
        closed, so work it does to derive counters is not charged to the
        layer.  Returns False, wrapping nothing, when the name is absent.
        """
        orig = getattr(module, attr, None)
        if orig is None:
            return False

        def wrapper(*args, **kwargs):
            sid = self.begin(span)
            try:
                result = orig(*args, **kwargs)
            finally:
                self.end(sid)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        self._patched.append((module, attr, orig))
        setattr(module, attr, wrapper)
        return True

    def unhook_all(self) -> None:
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Total duration, self time and call count per span name.

        Self time is a span's duration minus the time its direct children
        cover; spans of one thread nest, so children never overlap.
        """
        total: dict[str, float] = defaultdict(float)
        child: list[float] = [0.0] * len(self.spans)
        calls: dict[str, int] = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            dur = end - start
            total[name] += dur
            calls[name] += 1
            if parent >= 0:
                child[parent] += dur
        own: dict[str, float] = defaultdict(float)
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += (end - start) - child[sid]
        return dict(total), dict(own), dict(calls)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")
