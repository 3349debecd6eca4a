"""The reference computation that timings are divided by.

The host this benchmark was built on runs the same Python code at speeds up
to 1.7 times apart, in phases that last from under a second to minutes and
that differ between its CPUs.  A job's time divided by the time of this fixed
computation, run on the same CPU just before and after it, stays put across
those phases.  The work is what `cumalg` spends its time on (exact `Fraction`
arithmetic and dict updates keyed by tuples), and it uses nothing of
`cumalg`, so a change to the program cannot move it.
"""
from __future__ import annotations

import time
from fractions import Fraction

ITERATIONS = 4000  # about 30 ms on a 2-CPU Xeon host in its fast phase


def reference(iterations: int = ITERATIONS) -> float:
    """Seconds this process takes for the reference computation, scaled to
    ITERATIONS when asked for a shorter run of it."""
    start = time.perf_counter()
    acc = {}
    x = Fraction(1, 3)
    for i in range(iterations):
        x = x * Fraction(i % 7 + 1, i % 5 + 2) + Fraction(1, i + 1)
        x = Fraction(x.numerator % 1000003, x.denominator % 999983 + 1)
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, Fraction(0)) + x
    return (time.perf_counter() - start) * ITERATIONS / iterations
