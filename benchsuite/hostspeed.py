"""Host speed: a fixed pure-Python loop, timed next to every measurement.

On a shared host each vCPU flips, within a fraction of a second, between
a fast mode and a slow one in which the same Python code takes about
1.45 times as long, and the share of slow time drifts over seconds to
minutes.  Every timing the benchmark reports is therefore bracketed by
runs of :func:`calibration_ms` in the processes that did the work (the
study process; the client and the server), and scaled by
:func:`scaled_s` to the speed at which the loop takes
:data:`REFERENCE_MS`.  The loop is the benchmark's own code, so no
change to the program moves it, and a change to the program's cost
moves a scaled timing in full.
"""

from __future__ import annotations

import time

#: the loop's time, in ms, on the host every timing is scaled to (about
#: what it reads on a quiet 2-vCPU host)
REFERENCE_MS = 6.0


def _loop() -> int:
    total = 0
    for i in range(100_000):
        total += i * i
    return total


def calibration_ms(repeats: int = 8) -> float:
    """The loop's mean time in ms over ``repeats``, on whichever CPU the
    calling process runs (about 7 ms a repeat).  The mean, not the
    median: the loop's time is bimodal, and the mean follows the share
    of slow time, which is what slows the program down."""
    total = 0.0
    for _ in range(repeats):
        started = time.perf_counter()
        _loop()
        total += time.perf_counter() - started
    return total * 1e3 / repeats


def scaled_s(seconds: float, calibration: float) -> float:
    """``seconds`` measured while the loop took ``calibration`` ms,
    scaled to the reference speed: a slow phase shrinks them."""
    return seconds * REFERENCE_MS / calibration
