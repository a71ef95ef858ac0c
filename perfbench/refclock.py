"""The fixed reference computation every benchmark timing is divided by.

The sandbox this benchmark was built on runs a fixed Python loop at two
speeds about 1.6x apart, each lasting seconds, so a raw time says as much
about the machine's phase as about the program.  Each sample is therefore
divided by this reference, timed right next to it, and multiplied by the
reference's nominal duration: the result reads in seconds at one fixed
machine speed.

The reference is interpreter-bound integer arithmetic.  It allocates no
GC-tracked object (ints and range iterators are not tracked), so the
program's garbage cannot slow it, and it calls no program code, so a change
to the program cannot change it.  Keep it, ``REF_ITERATIONS``,
``REF_REPEATS`` and ``REF_NOMINAL_S`` fixed: changing any of them rescales
every metric.
"""

from __future__ import annotations

import os
import time

REF_ITERATIONS = 5000
REF_REPEATS = 3
# Median of reference() on the machine the benchmark was built on
# (2 vCPU, CPython 3.11); its phases read 0.55-0.93 ms.
REF_NOMINAL_S = 0.0006


class ConcurrencyError(RuntimeError):
    """The process had a second thread or a child process while the
    reference was being timed; such a worker would slow the reference and
    make the program look faster than it is."""


def _loop(n: int) -> int:
    x = 0
    for i in range(n):
        x = (x * 1103515245 + i) & 0x7FFFFFFF
    return x


def _check_alone() -> None:
    tasks = os.listdir("/proc/self/task")
    if len(tasks) != 1:
        raise ConcurrencyError(f"{len(tasks)} threads alive while timing the reference")
    for tid in tasks:
        with open(f"/proc/self/task/{tid}/children", encoding="ascii") as fh:
            kids = fh.read().split()
        if kids:
            raise ConcurrencyError(f"child processes {kids} alive while timing the reference")


def reference() -> float:
    """Raw seconds of one reference point: the fastest of ``REF_REPEATS``
    loops, so that one interrupt cannot inflate it."""
    _check_alone()
    best = float("inf")
    for _ in range(REF_REPEATS):
        t = time.perf_counter()
        _loop(REF_ITERATIONS)
        best = min(best, time.perf_counter() - t)
    _check_alone()
    return best


def normalise(raw_s: float, ref_before: float, ref_after: float) -> float:
    """Seconds at the nominal machine speed for a sample timed between two
    reference points."""
    return raw_s * REF_NOMINAL_S / ((ref_before + ref_after) / 2.0)
