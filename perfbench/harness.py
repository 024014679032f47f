"""Bookkeeping shared by the workloads: failure counting, statistics and
output digests."""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import traceback
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

# Time of reference_loop() on the 2-vCPU host these figures come from, when
# no other tenant slows it (Python 3.11).
REFERENCE_S = 0.0025
SAMPLE_EVERY_S = 0.25


class Tally:
    """Counts attempted and failed operations. An operation fails when a
    check on its output does not hold or when it raises."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self._bad = False

    @contextmanager
    def attempt(self, what: str):
        self.attempted += 1
        self._bad = False
        try:
            yield
        except Exception:  # a raising operation is a failed one; the run goes on
            self._bad = True
            self._note(what, traceback.format_exc(limit=4))
        if self._bad:
            self.failed += 1

    def expect(self, cond: bool, what: str, detail: str = "") -> bool:
        if not cond:
            self._bad = True
            self._note(what, detail)
        return cond

    def _note(self, what: str, detail: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(f"{what}: {detail}".rstrip())

    def report(self) -> None:
        for note in self.notes:
            print(f"failure: {note}", file=sys.stderr)


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python rational computation that does
    not touch the library: a probe of the machine's current speed."""
    start = perf_counter()
    acc = Fraction(0)
    for i in range(1, 1000):
        acc += Fraction(i % 7 + 1, i % 11 + 2)
    return perf_counter() - start


class Measured:
    __slots__ = ("seconds",)


class Gauge:
    """Times operations at reference machine speed.

    The host's speed drifts by up to 1.8x over seconds to minutes as other
    tenants come and go, which swamps changes in the code being measured.
    The reference loop runs between operations, at most every
    SAMPLE_EVERY_S, and an operation's wall time is scaled by REFERENCE_S
    over the mean of the reference times taken nearest before and after it.
    """

    def __init__(self):
        reference_loop()  # the first call also pays for warming up
        self.samples = [reference_loop()]
        self._due = perf_counter() + SAMPLE_EVERY_S

    def _latest(self) -> float:
        if perf_counter() >= self._due:
            self.samples.append(reference_loop())
            self._due = perf_counter() + SAMPLE_EVERY_S
        return self.samples[-1]

    def scale(self, seconds: float, before: float, after: float) -> float:
        return seconds * REFERENCE_S * 2 / (before + after)

    @contextmanager
    def measure(self):
        """Times the body; the scaled time is in `.seconds` afterwards."""
        result = Measured()
        before = self._latest()
        start = perf_counter()
        yield result
        elapsed = perf_counter() - start
        result.seconds = self.scale(elapsed, before, self._latest())

    def speed(self) -> float:
        """The machine's median speed over the run, relative to reference."""
        return REFERENCE_S / statistics.median(self.samples)


def median(values) -> float:
    return statistics.median(values)


def p90(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def digest(obj) -> str:
    """Short sha256 of a JSON-able value in canonical form."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def pencil_key(pencil) -> list:
    """Shape and entries of a Metzler pencil, independent of how the pencil
    was stored or serialized."""
    entries = sorted(
        (i, j, k, c.sign, c.modulus.to_str())
        for (i, j), entry in pencil.entries.items()
        for k, c in entry.items()
    )
    return [pencil.m, pencil.n, entries]
