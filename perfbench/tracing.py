"""Spans recorded in memory around the benchmark's calls into the library.

A span is (name, start, end, parent, op, phase): `name` is
"<layer>.<function>", `parent` the index of the enclosing span (-1 at top
level), `op` the operation the call served and `phase` the part of the run
("setup", "warmup", "work", "decompose" or "probe"). Spans are written out
when the run ends. A disabled tracer records nothing and adds one function
call per library call, so untraced runs time the library alone.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

NAME, START, END, PARENT, OP, PHASE = range(6)


class _Null:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL = _Null()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, record):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        t = self.tracer
        t._stack.append(len(t.spans))
        t.spans.append(self.record)
        self.record[START] = perf_counter()
        return self.record

    def __exit__(self, *exc):
        self.record[END] = perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.counts: dict = defaultdict(list)
        self._stack: list[int] = []
        self.op = 0
        self.phase = "setup"
        self.probing = False

    def _phase(self) -> str:
        return "probe" if self.probing else self.phase

    def span(self, name: str):
        if not self.enabled:
            return _NULL
        parent = self._stack[-1] if self._stack else -1
        return _Span(self, [name, 0.0, 0.0, parent, self.op, self._phase()])

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span called `name`."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def rename_last(self, name: str) -> None:
        """Rename the most recently started span, e.g. to split a call by
        its answer."""
        if self.enabled:
            self.spans[-1][NAME] = name

    def count(self, name: str, value) -> None:
        """Record a size or outcome at the current boundary."""
        if self.enabled:
            self.counts[name].append((self._phase(), value))

    def next_op(self) -> int:
        self.op += 1
        return self.op

    def write(self, path, header: dict) -> None:
        with open(path, "w") as handle:
            handle.write(json.dumps(header) + "\n")
            for rec in self.spans:
                handle.write(json.dumps(rec) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            own[rec[PARENT]] -= rec[END] - rec[START]
    return own


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
