"""Host-speed calibration of the benchmark's timings.

On a shared host one core can run the same pure-Python loop up to twice
as fast in one phase as in the next, and phases last from seconds to
minutes, so raw times of one program differ by more between runs than
the regressions worth catching.  The benchmark therefore pins itself and
its child processes to one core, times a fixed probe on that core while
it measures, and scales every time it reports to the speed at which one
probe takes PROBE_REF_S:

    calibrated = raw * PROBE_REF_S / mean probe time over the same interval

A probe is a few milliseconds of Fraction arithmetic, tuple hashing and
dict updates, the operations the package itself spends its time in.  It
never calls the package, so a slower program still reports more time.
Raw times are kept in the results record beside the calibrated ones.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from fractions import Fraction

PROBE_REF_S = 0.003   # probe time that defines one calibrated second
INTERVAL_S = 0.05     # pause between probes while a Meter is open


def pin_to_one_core() -> int:
    """Run this process, and the processes it starts, on one core."""
    core = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    return core


def probe() -> Fraction:
    total, table = Fraction(0), {}
    for i in range(1, 400):
        total += Fraction(i % 11 + 1, i % 97 + 1)
        key = (i % 13, i % 7, i % 5)
        table[key] = table.get(key, 0) + total
    return total


def probe_s() -> float:
    """CPU time of one probe on the calling thread."""
    start = time.thread_time()
    probe()
    return time.thread_time() - start


def factor(probes) -> float:
    """Calibrated seconds per raw second, given probe times taken over
    the interval measured."""
    return PROBE_REF_S / statistics.fmean(probes)


class Meter:
    """Times a probe every INTERVAL_S on a background thread while open,
    so the core's speed is sampled all through an interval in which the
    main thread waits for a child or computes.  A probe takes about 5% of
    the core; it is part of every calibrated time, in parent and change
    alike."""

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self.samples.append(probe_s())

    def __enter__(self) -> "Meter":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def mark(self) -> int:
        return len(self.samples)

    def factor_since(self, mark: int) -> float:
        """Calibration factor for the interval since `mark`; an interval
        too short to hold a sample is measured by one probe taken now."""
        return factor(self.samples[mark:] or [probe_s()])
