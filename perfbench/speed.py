"""Machine speed, sampled between operations with a fixed calibration kernel.

A shared virtual machine does not run at one speed: on the 2-vCPU host the
benchmark was tuned on, the kernel below switched between about 5.8 ms
and 9 ms, staying in each state for seconds to minutes.  Every timing of
a run moves with it, so ten runs spread over the two states no matter how
long each one is.

``Speed`` times a small kernel that touches no formuniq code (pure-Python
arithmetic, dict and list traffic, numpy sorting, gathering and summing)
before operations, at most every ``EVERY`` seconds, and after the last
one.  A wall-clock interval is then expressed in *reference seconds*: the
interval times ``REF_S / k``, where ``k`` is the kernel's local time (the
median of the samples nearest the interval) and ``REF_S`` its fixed
nominal time.  A program change cannot move the kernel, so it moves
reference seconds exactly as it moves wall-clock seconds on a steady
machine; a change of machine state moves both the interval and ``k``.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REF_S = 0.009  # nominal kernel time, the slower state of the host above
EVERY = 0.2  # least wall time between two samples inside a phase
NEAREST = 4  # samples around an interval whose median is its local kernel time

_ARRAY = np.random.default_rng(20240917).random(100_000)
_INDEX = np.random.default_rng(20240918).integers(0, _ARRAY.size, _ARRAY.size)


def kernel() -> float:
    """Fixed work, about REF_S: half pure Python, half numpy."""
    acc = 0.0
    table: dict[int, float] = {}
    for i in range(30_000):
        acc += (i * 7 % 13) * 0.5
        table[i & 1023] = acc
    ordered = sorted(table.values())
    gathered = np.sort(_ARRAY)[_INDEX]
    return acc + ordered[0] + float(np.cumsum(gathered)[-1])


class Speed:
    """Kernel samples (start time, duration) of one process."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []
        kernel()  # first call pays for page faults and caches

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            kernel()
            self.at.append(t0)
            self.took.append(time.perf_counter() - t0)

    def maybe(self) -> None:
        """Sample when the last sample is at least EVERY seconds old."""
        if not self.at or time.perf_counter() - self.at[-1] >= EVERY:
            self.sample()

    def local(self, start: float, end: float) -> float:
        """Median kernel time of the NEAREST samples around [start, end]:
        half before ``start`` and half after ``end`` where there are any."""
        i = bisect.bisect_right(self.at, start)
        j = bisect.bisect_left(self.at, end)
        half = NEAREST // 2
        return statistics.median(self.took[max(0, i - half):i] + self.took[j:j + half])

    def recent(self, seconds: float) -> float:
        """``seconds`` just measured, in reference seconds at the speed of
        the last samples: an estimate for deciding when a phase ends."""
        return seconds * REF_S / statistics.median(self.took[-3:])

    def ref(self, start: float, seconds: float) -> float:
        """The wall-clock interval [start, start + seconds] in reference seconds."""
        return seconds * REF_S / self.local(start, start + seconds)

    def median(self) -> float:
        return statistics.median(self.took)
