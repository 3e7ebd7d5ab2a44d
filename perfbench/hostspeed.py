"""Host speed: a fixed reference computation timed alongside the program.

On a shared virtual machine the same code runs up to 1.5 times slower
while neighbours are busy, for minutes at a time, and every timing of a
run moves with it.  The benchmark therefore also times :func:`reference`
— interpreter work (dictionary updates, integer arithmetic) and small-array
NumPy work, the mix the program's jobs run — in the same run, and reports
timings at the speed the reference shows on a quiet host:

    normalized = measured * REFERENCE_S / reference seconds in this run

The reference is the benchmark's own code.  A change to the program moves
its timings and leaves the reference alone, so it moves the normalized
timings by the same share; a slower or faster host moves both.
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds :func:`reference` takes at its fastest on a quiet 2-vCPU shared
#: virtual machine (Python 3.11, NumPy 2.4).  Only sets the scale: a
#: normalized timing reads as seconds on that machine when it is quiet.
REFERENCE_S = 0.0017

_ARRAY = np.arange(4096, dtype=np.int64)


def reference() -> int:
    """A fixed piece of interpreter and NumPy work (a few milliseconds)."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(10_000):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + i
        acc ^= key
    values = _ARRAY
    for _ in range(8):
        values = (values * 1103515245 + 12345) & 0xFFFF
    return acc + int(values.sum()) + len(table)


def sample() -> float:
    """Seconds one run of :func:`reference` takes now."""
    started = time.perf_counter()
    reference()
    return time.perf_counter() - started
