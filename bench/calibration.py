"""A fixed unit of CPU work that tracks the machine's current speed.

On a shared virtual machine the speed of the same Python code drifts by
up to twice within minutes.  The benchmark times this loop next to every
operation and scales the operation's time by the loop's time at the
reference speed over its time now.  The loop does the kind of work the
program does: exact fractions, frozenset keys, string formatting.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 0.001   # the loop's time at the reference speed


def loop():
    total = Fraction(0)
    seen = {}
    for i in range(300):
        total += Fraction(i % 97 + 1, i % 89 + 2)
        seen[frozenset((i % 13, i % 7, i))] = "%d" % i
    return total


def seconds():
    """One timed pass of the loop."""
    start = time.perf_counter()
    loop()
    return time.perf_counter() - start
