"""The host's speed, sampled while the workload runs, and times scaled by it.

The machine this benchmark was built on is a share of a busy host: the same
pure-Python loop takes anywhere from 1× to 1.8× its fastest time, in phases
of ten seconds or more, and process CPU time swings with wall time.  So the
end-to-end times are reported *scaled to a reference speed*: each second of
a measured interval is divided by how much slower than `REFERENCE_PROBE_S`
a fixed probe loop ran around that second.  The probe is independent of the
program, so a change to the program moves the scaled times as it moves the
raw ones; only the host's swings cancel.  Raw times are kept alongside.

`Sampler` runs the probe from a SIGALRM handler every `INTERVAL_S`, in the
measured thread itself, and subtracts its own time from what it scales.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PROBE_LOOPS = 5000
# The probe's median time on a 2.1 GHz Xeon VM in a fast phase; a scaled
# time is the time the interval would take at this probe speed.
REFERENCE_PROBE_S = 0.00035
INTERVAL_S = 0.05
CHUNK_S = 1.0  # a measured interval is scaled one chunk at a time
WINDOW_S = 0.5  # probes this far either side of a chunk set its speed
MIN_PROBES = 8


def probe():
    """(start, seconds) of one run of a fixed pure-Python loop."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return start, time.perf_counter() - start


def probe_median(count):
    """Median seconds of `count` back-to-back probes."""
    return statistics.median(probe()[1] for _ in range(count))


class Sampler:
    """Probes every INTERVAL_S from a SIGALRM handler between `start` and `stop`."""

    def __init__(self):
        self.starts = []
        self.seconds = []

    def _tick(self, signum, frame):
        start, seconds = probe()
        self.starts.append(start)
        self.seconds.append(seconds)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _speed(self, lo, hi):
        """Median probe seconds around [lo, hi): the window, or the nearest probes."""
        i, j = bisect.bisect_left(self.starts, lo - WINDOW_S), bisect.bisect_left(self.starts, hi + WINDOW_S)
        if j - i < MIN_PROBES:
            mid = bisect.bisect_left(self.starts, (lo + hi) / 2)
            i = max(0, min(mid - MIN_PROBES // 2, len(self.starts) - MIN_PROBES))
            j = i + MIN_PROBES
        return statistics.median(self.seconds[i:j])

    def own_seconds(self, lo, hi):
        """Time the probes took inside [lo, hi)."""
        i, j = bisect.bisect_left(self.starts, lo), bisect.bisect_left(self.starts, hi)
        return sum(self.seconds[i:j])

    def scaled(self, lo, hi):
        """Seconds [lo, hi) would take at the reference speed, probe time left out."""
        total = 0.0
        while lo < hi:
            end = min(lo + CHUNK_S, hi)
            total += (end - lo - self.own_seconds(lo, end)) * REFERENCE_PROBE_S / self._speed(lo, end)
            lo = end
        return total
