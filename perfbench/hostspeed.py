"""A fixed reference computation that tells how fast the host runs right now.

The shared machine this benchmark was built on changes speed by up to 1.6x
over tens of seconds: the same trials took 10.9 ms in one 10 s window and
18.0 ms in another, with CPU time rising alongside wall time, so the slow
periods are the host's and not the program's. Medians of 25 s runs of
identical code then spread by 0.27-0.37 of their value. Timing this fixed
computation among the batches of a run and scaling the run's times by
``REFERENCE_S / yardstick`` reports them at one reference host speed; over
ten 25 s runs per workload the scaled spreads were 0.03-0.11.

The computation depends on nothing in gapcomm, so a change to the library
cannot move it: a big-integer Python loop and numpy passes over a buffer
that it allocates once, each repeated so that cache state left by the
trials has been replaced before the timed repetitions.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# Yardstick seconds on the baseline machine (2-core x86-64, Python 3.11,
# numpy 2.4) in its fast periods; times are reported as if the host ran at
# that speed.
REFERENCE_S = 0.0025


class Yardstick:
    def __init__(self):
        self._vec = np.arange(1 << 18, dtype=np.int64)
        self._buf = np.empty_like(self._vec)

    def _once(self) -> int:
        x = (1 << 300) | 12345
        acc = 0
        for i in range(3000):
            acc += (x >> (i % 200)) & 0xFFFF
        for _ in range(4):
            np.copyto(self._buf, self._vec)
            np.bitwise_xor(self._buf, 0x5555, out=self._buf)
            acc += int(np.dot(self._buf, self._buf) & 1)
        return acc

    def seconds(self, reps: int = 3) -> float:
        """Median seconds of ``reps`` runs, after one untimed run."""
        self._once()
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            self._once()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)
