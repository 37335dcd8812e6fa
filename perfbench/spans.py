"""Spans and counters recorded around calls into folomin's modules.

The tracer replaces a module attribute (the name a calling module
imported, e.g. ``folomin.erm.risk``) with a wrapper that records a span
``[name, start, end, parent, op]`` in memory, and optionally runs a hook
on the call's arguments and result to add to named counters. Nothing is
written until the run ends. A wrap target that no longer exists is
listed in ``missing`` instead of failing the run, so a refactor of the
program shows up as unattributed time, not as a crash.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.captured: dict[str, list] = defaultdict(list)
        self.missing: list[str] = []
        self.op = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, owner, attr: str, name: str, hook=None, before=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``before()`` runs before the span opens; its value is passed to
        ``hook(tracer, args, kwargs, result, token)``, which runs after the
        span closes.
        """
        fn = owner.__dict__.get(attr)
        if not callable(fn):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before() if before else None
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook:
                hook(self, args, kwargs, result, token)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def unwrap_all(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children.

        Calls run on one thread, so children never overlap and the sum of
        their durations is the part of the parent they cover.
        """
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                record = {"name": s[NAME], "start": s[START], "end": s[END],
                          "parent": s[PARENT], "op": s[OP]}
                fh.write(json.dumps(record) + "\n")
