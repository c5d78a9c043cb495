"""A fixed yardstick workload that measures how fast the host runs right now.

The VM this benchmark was written on shares its host, and a fixed loop of
Python runs up to 1.8 times slower or faster from one minute to the next.
The declared timings therefore put each measured interval next to a timing of
this yardstick, taken in the same process just before and just after it, and
rescale the interval to a host on which the yardstick takes ``NOMINAL_S``.
A slower library still reads slower; a slower host no longer does.

The yardstick uses only the standard library and numpy, never ``schedlab``, so
no change to the library can move it.  Its parts mirror the kinds of work the
library does: interpreter arithmetic, object allocation with a heap, dict
building and a keyed sort, many small records, ``Fraction`` sums and small
numpy array passes.
"""

from __future__ import annotations

import gc
import heapq
import random
import time
from fractions import Fraction

import numpy as np

#: Yardstick wall time on the 2-core host the baseline was recorded on; the
#: rescaled timings read in seconds of a host that runs it in this time.
NOMINAL_S = 0.3


def _arithmetic() -> int:
    total = 0
    for i in range(500_000):
        total += i * i % 7
    return total


def _heap() -> int:
    rng = random.Random(1)
    heap: list[tuple[float, int]] = []
    for i in range(60_000):
        heapq.heappush(heap, (rng.random(), i))
    last = 0
    while heap:
        last = heapq.heappop(heap)[1]
    return last


def _dict_sort() -> int:
    table = {}
    for i in range(100_000):
        table[(i % 977, i)] = i
    return sorted(table.items(), key=lambda kv: kv[0][1] % 1013)[0][1]


def _records() -> int:
    rows = [{"r": i, "d": i % 150, "p": 1} for i in range(150_000)]
    return sum(row["d"] for row in rows[::7])


def _fractions() -> Fraction:
    total = Fraction(0)
    for i in range(1, 6_000):
        total += Fraction(1, i % 97 + 1)
    return total


def _arrays() -> float:
    a = np.random.default_rng(1).random((300, 300))
    for _ in range(10):
        a = np.sort(a, axis=0) + a.T * 0.5
    return float(a[0, 0])


PARTS = (_arithmetic, _heap, _dict_sort, _records, _fractions, _arrays)


def run() -> None:
    for part in PARTS:
        part()


def timed(clock=time.perf_counter) -> float:
    """Wall time of one yardstick, from a collected heap with gc paused."""
    gc.collect()
    gc.disable()
    try:
        start = clock()
        run()
        return clock() - start
    finally:
        gc.enable()


def rescale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two yardsticks, at the nominal host speed."""
    return seconds * NOMINAL_S / ((before + after) / 2)
