"""A fixed pure-Python reference loop that tracks the machine's speed.

On a shared host the speed of one core drifts by tens of percent within
seconds, as neighbours come and go, and that drift moves every timing of a
run alike.  The timed runs therefore time this loop every few tenths of a
second, and right after any long operation, between operations and outside
their timed intervals, and report each operation's time scaled to the speed at which the loop takes ``NOMINAL_S``:

    reported = measured * NOMINAL_S / (loop time around the operation)

The loop touches neither graphprod nor the heap the library has built, and
runs with the garbage collector off, so a change to the library cannot
change the loop's time; only the machine can.  The raw times are still
written out (``samples-*.json``) and printed beside the scaled ones.
"""

import gc
import time
from bisect import bisect_left

NOMINAL_S = 0.7e-3      # about the loop's time on the 2-vCPU host that set the bounds
REPEATS = 3             # the loop is timed this often per mark; the least counts
EVERY_S = 0.05          # a mark precedes an operation when the last is older
AFTER_S = 0.02          # a mark follows an operation that took at least this


def _loop():
    s, table = 0, {}
    for i in range(3000):
        s += (i * i) % 7
        table[i & 511] = s
        if s & 3 == 0:
            s ^= len(table)
    return s


def reference_seconds(repeats=REPEATS):
    """Least time of `repeats` runs of the loop, with the collector off."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(repeats):
            t = time.perf_counter()
            _loop()
            best = min(best, time.perf_counter() - t)
        return best
    finally:
        if was_on:
            gc.enable()


class SpeedTrack:
    """Reference times marked along a run, and the scale they give each
    operation."""

    def __init__(self, every=EVERY_S, after=AFTER_S):
        self.every = every
        self.after = after
        self.times = []     # perf_counter of each mark
        self.refs = []      # reference seconds at each mark

    def mark(self):
        self.refs.append(reference_seconds())
        self.times.append(time.perf_counter())

    def before(self):
        if not self.times or time.perf_counter() - self.times[-1] >= self.every:
            self.mark()

    def after_op(self, seconds):
        if seconds >= self.after:
            self.mark()

    def factor(self, start):
        """NOMINAL_S over the mean reference time of the last mark before
        `start` and the first mark after it."""
        i = bisect_left(self.times, start)
        near = self.refs[max(0, i - 1):i + 1]
        return NOMINAL_S * len(near) / sum(near)
