"""Host-speed calibration for the benchmark's timings.

The benchmark runs on shared machines whose speed drifts by 20-40%
over seconds to minutes: the same pass measured a minute apart can
differ by a third.  A second process cannot measure that drift, because
each virtual CPU drifts on its own.  So the run pins itself to one CPU
and, ten times a second, a timer signal interrupts the program for one
*slice*: a fixed pure-Python kernel whose duration is timed.  Slices
taken during an interval say how fast the host was then, and every
timing the benchmark reports is scaled to the host speed of
:data:`REFERENCE_SLICE_S`:

    reported seconds = measured seconds * REFERENCE_SLICE_S / mean slice

A program change moves the measured seconds and leaves the slices
alone, so it moves the reported seconds by the same share.  The slices
cost about 1% of the measured time, the same share on every run.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path

#: seconds between slices
INTERVAL_S = 0.1
#: a slice's mean duration on the host the benchmark was defined on
#: (2 vCPU Intel Xeon VM, Python 3.11); reported seconds are seconds
#: at that speed
REFERENCE_SLICE_S = 0.001
#: an interval holding fewer slices than this borrows the nearest ones
MIN_SLICES = 5


def kernel() -> int:
    """The fixed work one slice times: dict updates and small strings."""
    d: dict[int, int] = {}
    acc = 0
    for i in range(3000):
        k = (i * 2654435761) % 1009
        d[k] = d.get(k, 0) + i
        acc += len(str(k))
    return acc + len(d)


def pin_to_current_cpu() -> None:
    """Keep this process and the threads it starts on the CPU it is on."""
    stat = Path("/proc/self/stat").read_text()
    cpu = int(stat.rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu})


class HostSpeed:
    """Timer-driven slices and the scale factor they give an interval."""

    def __init__(self) -> None:
        #: (start, seconds) of every slice taken
        self.slices: list[tuple[float, float]] = []

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _slice(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        self.slices.append((t0, time.perf_counter() - t0))

    def mean_slice(self, t0: float, t1: float) -> float:
        """Mean slice duration over ``[t0, t1]``, or over the
        :data:`MIN_SLICES` slices nearest its middle when it holds fewer.
        A run too short to have that many takes the missing ones now."""
        while len(self.slices) < MIN_SLICES:
            self._slice(None, None)
        # a slice taken above can be interrupted by a timed one, so the
        # list is filtered here rather than bisected as if sorted
        picked = [d for start, d in self.slices if t0 <= start <= t1]
        if len(picked) < MIN_SLICES:
            mid = (t0 + t1) / 2
            nearest = sorted(self.slices, key=lambda s: abs(s[0] - mid))
            picked = [d for _, d in nearest[:MIN_SLICES]]
        return sum(picked) / len(picked)

    def factor(self, t0: float, t1: float) -> float:
        """What to multiply seconds measured over ``[t0, t1]`` by."""
        return REFERENCE_SLICE_S / self.mean_slice(t0, t1)
