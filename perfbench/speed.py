"""Reference-loop timing, so that reported times hold steady on a shared host.

On a host shared with other tenants, the same pure-Python work takes up to
twice as long for stretches of tens of seconds to minutes, sometimes for a
whole run.  A run cannot avoid those stretches, so it measures them: a fixed
reference loop, which shares no code with the package, is timed between
ops.  Each op time is divided by the reference time around it, which gives
the op's cost in reference loops, and that cost is reported in milliseconds
at ``NOMINAL_NS`` per reference loop.  On this benchmark's workloads the
cost in reference loops spreads by a few percent from run to run, while raw
times spread by a third.  A change to the package moves op times and not
the reference loop, so it shows in full.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# The reference loop's uncontended time on an Intel Xeon host with 2 vCPUs
# and Python 3.11.7, where the benchmark was defined.
NOMINAL_NS = 1_500_000


def reference_loop() -> None:
    """Fixed work of the kinds the package does: rationals, ints, strings."""
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(i % 97, i % 13 + 1)
    words = [str(i) for i in range(2000)]
    {w: len(w) for w in words}


class Speed:
    """Reference-loop timings of one process."""

    def __init__(self) -> None:
        self.probes: list[int] = []

    def probe(self) -> int:
        """Time one reference loop, in nanoseconds."""
        start = time.perf_counter_ns()
        reference_loop()
        ns = time.perf_counter_ns() - start
        self.probes.append(ns)
        return ns

    def summary(self) -> str:
        return (
            f"reference loop: fastest {min(self.probes) / 1e6:.3f} ms, "
            f"median {statistics.median(self.probes) / 1e6:.3f} ms, "
            f"nominal {NOMINAL_NS / 1e6:.3f} ms"
        )
