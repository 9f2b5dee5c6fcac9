"""Machine-speed calibration for the benchmark's times.

A shared host runs the same code up to 1.7 times slower for stretches of
half a second to minutes.  A slice is a fixed loop of small-int arithmetic
and calls that touches no package code and allocates nothing the garbage
collector tracks, so only the machine's speed changes its time.

During a pass, Sampler times a slice every SAMPLE_EVERY_S of wall time from
a SIGALRM handler, so it samples the speed inside long calls as well as
between short ones.  A call's time, less the slices that ran inside it, is
scaled by REF_SLICE_S over the trimmed mean time of the slices inside it
and EDGE slices either side: the scaled figures read as seconds on a
machine that runs a slice in REF_SLICE_S.  The trim drops slices that the
kernel interrupted.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

SLICE_LOOPS = 4_000
#: median slice time on a 2-vCPU Xeon VM at 2.1 GHz
REF_SLICE_S = 0.0006
SAMPLE_EVERY_S = 0.05
#: slices either side of a call that go into its scale
EDGE = 3
#: slices taken after set-up to scale the set-up time
SETUP_SLICES = 15


def _mix(a: int, b: int) -> int:
    return (a * a + b) % 1_000_003


def slice_s() -> float:
    start, s = time.perf_counter(), 1
    for i in range(SLICE_LOOPS):
        s = _mix(s, i)
    return time.perf_counter() - start


def setup_scale() -> float:
    """Scale for a time just measured, from slices taken right after it."""
    return REF_SLICE_S / statistics.median(slice_s() for _ in range(SETUP_SLICES))


class Sampler:
    """Times slices on a wall-clock timer while the `with` block runs."""

    def __init__(self):
        self.starts: list[int] = []   # perf_counter_ns when each slice began
        self.spent: list[int] = []    # ns each slice took, handler included
        self.slices: list[float] = []  # seconds each slice loop took
        self._busy = False

    def _sample(self, *_):
        if self._busy:  # the timer fired inside a slice that ran past its period
            return
        self._busy = True
        start = time.perf_counter_ns()
        self.slices.append(slice_s())
        self.starts.append(start)
        self.spent.append(time.perf_counter_ns() - start)
        self._busy = False

    def __enter__(self) -> Sampler:
        for _ in range(EDGE):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(EDGE):
            self._sample()

    def call_time(self, t0: int, t1: int) -> tuple[float, float]:
        """(raw, scaled) seconds of a call that ran from t0 to t1 ns."""
        i, j = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        raw = (t1 - t0 - sum(self.spent[i:j])) / 1e9
        window = sorted(self.slices[max(0, i - EDGE):j + EDGE])
        cut = len(window) // 5
        return raw, raw * REF_SLICE_S / statistics.fmean(window[cut:len(window) - cut])
