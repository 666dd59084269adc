"""A fixed probe of the host's current speed, and rescaling by it.

A shared VM's speed shifts by up to 1.5x for seconds to minutes at a
time (measured on a 2-vCPU VM). Timing the same small exact-arithmetic
loop next to each measured interval, and scaling the interval by
REFERENCE_PROBE_S over the probe's time, removes that shift from
run-to-run comparisons, while a change in the program's own cost passes
through unchanged. The probe is stdlib only and never calls the program.
"""

from __future__ import annotations

import time
from fractions import Fraction

# The probe's time on a 2-vCPU VM under Python 3.11 in its faster state.
REFERENCE_PROBE_S = 0.004


def probe() -> float:
    """Wall time of a fixed Fraction loop: the host's speed right now."""
    rows = [[Fraction(i * j % 7 - 3, 1 + (i + j) % 5) for j in range(10)]
            for i in range(10)]
    start = time.perf_counter()
    for r in rows:
        for s in rows:
            sum((a * b for a, b in zip(r, s)), Fraction(0))
    return time.perf_counter() - start


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between probes `before` and `after`, rescaled."""
    return seconds * 2 * REFERENCE_PROBE_S / (before + after)
