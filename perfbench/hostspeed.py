"""Host-speed sampling, to take a shared host's speed swings out of query latencies.

On a host shared with other tenants the speed of the same code swings by a
third within seconds, so raw wall times of identical runs disagree by more
than any useful bound.  While a run measures, a timer signal every
``PERIOD_S`` runs ``unit``, a fixed piece of this package's own code doing
the two kinds of work bigrade does (monomial arithmetic on Python tuples and
elimination on numpy int64 scalars), and records when it ran and how long it
took.  The handler runs ``unit`` once before timing it, so the time does not
depend on what the interrupted code left in the caches.  The handler's time
is taken out of the latency of the query it interrupted.

A query's normalized latency is its latency times ``REFERENCE_UNIT_S``
divided by the mean unit time in a window around the query: the time it
would have taken with the host running at the reference speed.  Nothing of
bigrade runs in ``unit``, so a change to bigrade moves normalized times just
as it moves raw ones.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

import numpy as np

import algebra

PERIOD_S = 0.01
PAD_S = 0.1  # the window around a query reaches this far on each side
MIN_SAMPLES = 8
# a typical time of a warm ``unit`` on the reference machine (2-core Intel
# Xeon, Python 3.11, numpy 2.4: medians of 150-201 us over the corpus timing
# passes); normalized times read as that machine's at that speed
REFERENCE_UNIT_S = 205e-6

_A = ((2, 0, 1, 0, 1, 0), (0, 1, 1, 1, 0, 0), (1, 1, 0, 0, 0, 2))
_B = ((1, 1, 0, 1, 0, 0), (0, 2, 0, 0, 1, 1), (2, 0, 1, 0, 0, 1))
_M = np.array([[(i * 7 + j * 13 + i * j) % 11 for j in range(6)] for i in range(5)], dtype=np.int64)
_P = np.int64(32003)


def unit():
    """The calibration work: one monomial intersection and a partial elimination mod p."""
    algebra.intersect(_A, _B)
    a = _M.copy()
    for r in range(3):
        piv = a[r, r] % _P + 1
        for i in range(r + 1, 5):
            f = a[i, r] % _P
            for j in range(r, 6):
                a[i, j] = (a[i, j] * piv - f * a[r, j]) % _P


class HostSpeed:
    """Samples ``unit`` on SIGALRM between ``start`` and ``stop``.

    ``stolen`` is the total time spent in the handler; a caller subtracts
    its growth over a timed region from that region's duration.
    """

    def __init__(self):
        self.times = []  # when each sample started
        self.durations = []
        self.stolen = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        t0 = perf_counter()
        unit()
        t = perf_counter()
        unit()
        d = perf_counter() - t
        self.times.append(t)
        self.durations.append(d)
        self.stolen += perf_counter() - t0

    def start(self):
        for _ in range(50):  # warm the unit's code before it is timed
            unit()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def slowdown(self, start: float, end: float) -> float:
        """Mean unit time around [start, end] over the reference unit time.

        The window is [start - PAD_S, end + PAD_S]; when it holds fewer than
        MIN_SAMPLES samples, the MIN_SAMPLES samples nearest to it are used.
        """
        times = self.times
        if not times:
            raise RuntimeError("no host-speed samples were taken")
        i = bisect.bisect_left(times, start - PAD_S)
        j = bisect.bisect_right(times, end + PAD_S)
        while j - i < min(MIN_SAMPLES, len(times)):
            before = start - times[i - 1] if i > 0 else float("inf")
            after = times[j] - end if j < len(times) else float("inf")
            if before <= after:
                i -= 1
            else:
                j += 1
        window = self.durations[i:j]
        return sum(window) / len(window) / REFERENCE_UNIT_S
