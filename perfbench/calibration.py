"""A fixed slice of interpreter work that measures how fast the host runs now.

The host's speed drifts by tens of percent from minute to minute, and
slows every kind of interpreter work alike.  Timing this fixed slice next to
each measurement and scaling by ``REFERENCE_S / calibration`` reports every
time at one reference speed.  The slice (enumerate the partitions of 13 as
tuples and index them in a dict) does the same kind of work as the program:
calls, tuple allocation and hashing.  It imports nothing but ``time``, so
the set-up probe can run it before importing the program.
"""

import time

# the slice's time on an unloaded 2-vCPU x86-64 host under CPython 3.11
REFERENCE_S = 0.25e-3


def _partitions(n, cap):
    if n == 0:
        return [()]
    return [(first,) + rest for first in range(min(n, cap), 0, -1) for rest in _partitions(n - first, first)]


def calibrate() -> float:
    """Seconds the fixed slice takes now."""
    start = time.perf_counter()
    index = {}
    for parts in _partitions(13, 13):
        index[parts] = len(parts)
    return time.perf_counter() - start
