"""Machine-speed probe: times a fixed reference loop at regular intervals.

On a shared machine the speed of a core drifts by tens of percent over
seconds, and a single pass of a long workload cannot be repeated often
enough for a median to hide it.  While a `SpeedProbe` is active, a timer
signal interrupts the running code every `interval` seconds and times
`reference()`, a fixed piece of pure-Python work that does not touch the
package.  Samples are spread evenly in time, so the mean of
REFERENCE_S / sample over a stretch of work is the share of full speed
that work got.  Multiplying a measured time by `speed` rescales it to a
core on which reference() takes REFERENCE_S; a sample hit by a rare long
stall only drops towards zero instead of dominating the mean.  The
garbage collector is held off during a sample so that a collection of
the package's heap is not charged to the reference.  The time spent in
the probe itself is kept in `spent` so that callers can subtract it from
what they time.
"""

from __future__ import annotations

import gc
import signal
import time

# A round figure near the duration of reference() on the x86-64 machine
# (Python 3.11) the benchmark was written on; it only sets the scale of
# the rescaled times.
REFERENCE_S = 1.0e-4


def reference():
    row = list(range(1, 65))
    for _ in range(25):
        row = [(a * 3 + b) % 7 for a, b in zip(row, row[1:] + row[:1])]
    return row


class SpeedProbe:
    def __init__(self, interval: float = 0.01):
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent inside the signal handler
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        t1 = time.perf_counter()
        reference()
        t2 = time.perf_counter()
        if collecting:
            gc.enable()
        self.samples.append(t2 - t1)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.spent

    def spent_since(self, mark) -> float:
        return self.spent - mark[1]

    def speed(self, mark=(0, 0.0)) -> float:
        """Mean of REFERENCE_S / sample over the samples since mark (1.0 without samples)."""
        window = self.samples[mark[0]:]
        return sum(REFERENCE_S / t for t in window) / len(window) if window else 1.0
