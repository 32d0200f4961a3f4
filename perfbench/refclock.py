"""Reference-speed time: wall time scaled by the machine's momentary speed.

On a shared cloud machine the same Python code runs at speeds up to a
factor of two apart (on a 2-core machine, a fixed loop of ``Fraction``
arithmetic took 11-13 ms in fast phases and 20-24 ms in slow ones), in
phases lasting from seconds to minutes that other tenants cause.  Timing
plain wall time, two runs of the same code differ by the share of each run
that fell in a slow phase.

A :class:`RefClock` measures a region of code and returns its time at the
reference speed.  It times ``PROBE``, a fixed loop of ``Fraction``
arithmetic, just before and just after the region, and an interval timer
(``SIGALRM``) times it again every ``PROBE_INTERVAL_S`` seconds inside the
region.  Every stretch of wall time between two probes counts as its
length times ``REF_PROBE_S`` over the mean duration of the probes at its
ends; the probes' own time is not counted.  A stretch in a slow phase thus
counts for as long as it would have taken at the reference speed, the
probe loop's speed when it takes ``REF_PROBE_S``.  The program's code slows
by a somewhat different factor than the probe's, so the correction is not
exact; it removes most of the phase-to-phase difference.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PROBE_TERMS = 60
PROBE_INTERVAL_S = 0.025
# Duration of ``probe()`` at the reference speed: the fast phase of a
# 2-core cloud machine (Intel Xeon, Python 3.11).
REF_PROBE_S = 1.35e-4
EDGE_PROBES = 3  # the probe before and after a region is the median of these


def probe() -> tuple[float, float]:
    """(start, duration) of one run of the fixed probe loop."""
    start = time.monotonic()
    acc = Fraction(0)
    for i in range(1, PROBE_TERMS + 1):
        acc += Fraction(i % 7 - 3, i % 11 + 1)
    return start, time.monotonic() - start


def edge_probe() -> tuple[float, float]:
    samples = [probe() for _ in range(EDGE_PROBES)]
    return samples[-1][0], statistics.median(d for _, d in samples)


def ref_seconds(start: float, end: float, probes: list[tuple[float, float]]) -> float:
    """Reference-speed time of [start, end] given ``probes`` around and in it.

    ``probes`` are (start, duration) pairs in time order; the first must
    end by ``start`` and the last begin at or after ``end``.  Probes inside
    the region are cut out of it.
    """
    inside = [(s, d) for s, d in probes[1:-1] if start <= s and s + d <= end]
    edges = [probes[0], *inside, probes[-1]]
    total = 0.0
    at = start
    for (_, left), (s, right) in zip(edges, edges[1:]):
        stop = min(s, end)
        total += max(stop - at, 0.0) * REF_PROBE_S / ((left + right) / 2)
        at = s + right
    return total


class RefClock:
    """Times regions of code in reference-speed seconds, with probes inside."""

    def __init__(self):
        self._inside: list[tuple[float, float]] = []

    def _on_alarm(self, signum, frame) -> None:
        self._inside.append(probe())

    def start(self) -> None:
        """Arm the interval timer; probes collect until :meth:`stop`."""
        self._inside = []
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> list[tuple[float, float]]:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return self._inside

    def measure(self, fn, *args):
        """(result, wall seconds, reference-speed seconds) of ``fn(*args)``.

        The wall seconds include the probes inside, about 1% of them.
        """
        before = edge_probe()
        self.start()
        t0 = time.monotonic()
        try:
            result = fn(*args)
        finally:
            t1 = time.monotonic()
            inside = self.stop()
        after = edge_probe()
        return result, t1 - t0, ref_seconds(t0, t1, [before, *inside, after])
