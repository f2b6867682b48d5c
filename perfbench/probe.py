"""A speed probe that scales measured times to a nominal CPU speed.

On the shared 2-vCPU virtual machine the benchmark was built on, the speed
of plain Python code drifts by +-20% over seconds to minutes: two-second
means of one fixed loop ranged from 0.025 to 0.036 s within 40 s, and the
median solve time of a run moved by 15-30% between runs. Medians over a run
cannot average that out, so the benchmark measures the speed while it runs.

Every PERIOD_S of process CPU time a SIGPROF handler times a fixed kernel
with the instruction mix of a barrier Newton step: small numpy arrays, a
4x4 dense solve and scalar math. A timed interval is reported as its wall
time scaled by NOMINAL_S / (mean kernel time during the interval): the time
the interval would have taken at the nominal speed. Intervals with fewer
than MIN_SAMPLES samples use the MIN_SAMPLES most recent ones. On that
host the scaling cut the coefficient of variation of back-to-back solves
from 13-14% to 3-5%. The probe costs under 1% of CPU time.
"""

from __future__ import annotations

import bisect
import math
import signal
import time
from contextlib import contextmanager

import numpy as np

PERIOD_S = 0.008
STEPS = 4
NOMINAL_S = 50e-6  # kernel time near the fast state of that host
MIN_SAMPLES = 20


class SpeedProbe:
    def __init__(self):
        self._ends: list[float] = []  # perf_counter() at the end of each sample
        self._cum: list[float] = []  # cumulative kernel time up to each sample
        self._total = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        s = 0.0
        for i in range(STEPS):
            g = np.array([1.0 + i, 2.0, 3.0, s * 1e-9])
            h = np.zeros((4, 4))
            h[0, 0] = h[1, 1] = h[2, 2] = h[3, 3] = 3.0
            s += float(g @ np.linalg.solve(h, g)) + math.log(2.0 + i)
        t1 = time.perf_counter()
        self._total += t1 - t0
        self._cum.append(self._total)
        self._ends.append(t1)

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)

    def scaled(self, t0: float, t1: float) -> float:
        """Wall time from t0 to t1 (perf_counter values) at the nominal speed."""
        n = len(self._cum)
        hi = bisect.bisect_right(self._ends, t1, 0, n)
        lo = min(bisect.bisect_left(self._ends, t0, 0, hi), max(hi - MIN_SAMPLES, 0))
        if hi == lo:
            return t1 - t0  # no sample yet
        before = self._cum[lo - 1] if lo else 0.0
        mean = (self._cum[hi - 1] - before) / (hi - lo)
        return (t1 - t0) * NOMINAL_S / mean

    def slowdown(self) -> float:
        """Mean kernel time over all samples relative to nominal (> 1: slower)."""
        n = len(self._cum)
        return self._cum[n - 1] / n / NOMINAL_S if n else 1.0
