"""The speed of the CPU the benchmark's commands run on, sampled while they run.

On a shared host the same command can take 1.5 times longer from one minute
to the next, because other tenants slow the CPU down; a run's wall times then
say as much about the host as about the program.  A SpeedProbe is a thread
of the harness, pinned to the same CPU as the commands, that every PERIOD
seconds times a fixed piece of rational arithmetic, the program's own kind
of work, while the commands run.  `factor(start, end)` is REFERENCE_S, the
probe's time on an idle core, over the mean probe time in that interval; a
wall time multiplied by it is the time the command would have taken on an
idle core.  It takes most of the host's drift out of the times and leaves
the program's own changes in.

The probe takes about 2% of the CPU from the commands, the same share in
every run.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time
from fractions import Fraction

PERIOD = 0.02
REFERENCE_S = 0.00025  # the probe's time on an idle core of a 2-core x86_64 host, Python 3.11
MIN_SAMPLES = 5
_TERMS = [Fraction(i, i + 3) for i in range(1, 61)]


def probe_work() -> Fraction:
    """Rational arithmetic, as in the program: allocation, dispatch and gcd."""
    total = Fraction(0)
    for x in _TERMS:
        total += x * x
    return total


def pin_to_one_cpu() -> int:
    """Pin the calling thread, and so every thread and process it starts later,
    to one CPU: the probe must run where the commands run."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedProbe:
    """Use as a context manager; the thread is joined on the way out."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.times: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe", daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        while not self._stop.wait(PERIOD):
            start = time.perf_counter()
            probe_work()
            elapsed = time.perf_counter() - start
            self.times.append(elapsed)
            self.starts.append(start)  # appended last: `starts` never outruns `times`

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean probe time in [start, end], or over the
        MIN_SAMPLES probes nearest to the interval when it holds fewer."""
        while len(self.starts) < MIN_SAMPLES:  # only right after the probe started
            if not self._thread.is_alive():
                raise RuntimeError("the speed probe is not running")
            time.sleep(PERIOD)
        starts = self.starts[:]
        lo, hi = bisect.bisect_left(starts, start), bisect.bisect_right(starts, end)
        if hi - lo < MIN_SAMPLES:
            middle = (start + end) / 2
            lo = max(0, min(bisect.bisect_left(starts, middle) - MIN_SAMPLES // 2,
                            len(starts) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        return REFERENCE_S / statistics.fmean(self.times[lo:hi])
