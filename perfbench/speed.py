"""Machine speed, sampled while a run measures, to steady its timings.

On a shared host the same work can take up to 1.5x longer from one
quarter-minute to the next.  A reference loop that runs no tempint code is
timed every PERIOD seconds (on SIGALRM, between bytecodes of the running
operation; its own time is subtracted from the operation's).  A time is then
reported at the reference speed: divided by the loop's mean cost around it,
relative to NOMINAL.  The raw times are printed alongside.
"""

from __future__ import annotations

import bisect
import signal
import time

PERIOD = 0.1           # seconds between samples
LOOP = 10_000          # iterations of each half of the reference loop
REPEATS = 3            # a sample is the fastest of this many loops
NOMINAL = 0.75e-3      # seconds per loop at the reference speed: its median
                       # on the 2-vCPU VM the benchmark was defined on


def _loop():
    """Integer arithmetic, then float tuples hashed into a dict: the
    first tracks compiled numeric code best, the second the interpreter's
    allocation-heavy paths."""
    t0 = time.perf_counter()
    total = 0
    for i in range(LOOP):
        total += i
    table = {}
    for i in range(LOOP // 8):
        key = (i * 0.5, 0.25)
        table[key] = key[0] + 1.0
    return time.perf_counter() - t0


class SpeedClock:
    """Timer-driven samples of the reference loop's cost.

    ``spent`` is the total time taken by samples; an interval's own time is
    its wall time minus the growth of ``spent`` over it.
    """

    def __init__(self):
        self.times = []
        self.costs = []
        self.spent = 0.0

    def sample(self, *_signal_args):
        t0 = time.perf_counter()
        cost = min(_loop() for _ in range(REPEATS))
        self.times.append(t0)
        self.costs.append(cost)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def factor(self, t0, t1):
        """Mean loop cost over [t0, t1] and its neighbouring samples, over
        NOMINAL: how much slower than the reference the machine ran."""
        lo = max(bisect.bisect_right(self.times, t0) - 1, 0)
        hi = bisect.bisect_left(self.times, t1) + 1
        costs = self.costs[lo:hi]
        return sum(costs) / len(costs) / NOMINAL
