"""The core's current speed, from a fixed piece of pure-Python work.

On a shared virtual machine the speed of one core drifts by tens of percent
within seconds and between minutes, and process CPU time drifts with wall
time, so run-to-run spread of raw times is set by the machine rather than by
the program. The benchmark times this reference work around every command
and reports times scaled to a nominal reference speed (``REFERENCE_S``); the
raw figures stay in the ``run`` line. The work is integer arithmetic only,
so it allocates no containers and never triggers the cyclic garbage
collector, whose cost would depend on the program's heap.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.0018   # nominal seconds of probe()


def _reference_work() -> float:
    start = time.perf_counter()
    x = 0
    for i in range(20000):
        x = (x * 31 + i) & 0xFFFF
    return time.perf_counter() - start


def probe() -> float:
    """Seconds the reference work takes now: the faster of two back-to-back
    timings, so that one interrupt does not count as a slow core."""
    return min(_reference_work(), _reference_work())
