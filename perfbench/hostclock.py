"""Durations normalized to a reference host speed.

Shared sandbox hosts run in phases of different speed: the same code runs
about 1.5x slower for stretches of seconds to tens of seconds, so raw wall
times of identical runs spread by 20% and more.  The slowdown hits Python
bytecode, sparse products and small BLAS calls alike, so a fixed calibration
kernel that mixes the three measures it: normalized, the time of equal
5-second passes spreads by 3-4% where raw wall time spreads by 6-13%.

While a HostClock is active, a SIGALRM handler runs the kernel every
INTERVAL_S seconds of wall time.  `seconds(t0, t1)` integrates the wall time
between two perf_counter readings, each stretch scaled by REF_PROBE_S over
the kernel time measured around it, and leaves the kernel's own runs out.
REF_PROBE_S only sets the scale (the kernel's time in a fast phase of the
host the benchmark was defined on); both sides of a comparison use the same.
"""

from __future__ import annotations

import signal
import time

import numpy as np
import scipy.sparse as sp

INTERVAL_S = 0.1
REF_PROBE_S = 1.5e-3


class HostClock:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._dense = rng.normal(size=(40, 40))
        self._sparse = sp.random(600, 600, density=0.01, random_state=1, format="csr")
        self._vector = rng.normal(size=600) + 1j * rng.normal(size=600)
        self._starts = []
        self._ends = []
        self._busy = False
        self._knots = None
        self._cum = None

    def _probe(self, signum=None, frame=None):
        if self._busy:  # a late alarm landed inside a probe
            return
        self._busy = True
        t0 = time.perf_counter()
        acc = 0
        for i in range(8000):
            acc += i * i
        for _ in range(30):
            self._sparse @ self._vector
        for _ in range(20):
            self._dense @ self._dense
        self._starts.append(t0)
        self._ends.append(time.perf_counter())
        self._busy = False

    def __enter__(self):
        self._probe()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()
        starts = np.array(self._starts)
        ends = np.array(self._ends)
        cost = ends - starts
        # Stretch between probes k and k+1 runs at the mean of their speeds;
        # the probes themselves add nothing.
        gap_factor = REF_PROBE_S / (0.5 * (cost[:-1] + cost[1:]))
        self._knots = np.column_stack([starts, ends]).ravel()
        steps = np.zeros(self._knots.size)
        steps[2::2] = (starts[1:] - ends[:-1]) * gap_factor
        self._cum = np.cumsum(steps)
        self._edge_factor = (REF_PROBE_S / cost[0], REF_PROBE_S / cost[-1])
        return False

    def _at(self, t):
        t = np.asarray(t, dtype=float)
        out = np.interp(t, self._knots, self._cum)
        below = t < self._knots[0]
        above = t > self._knots[-1]
        out = np.where(below, self._cum[0] - (self._knots[0] - t) * self._edge_factor[0], out)
        return np.where(above, self._cum[-1] + (t - self._knots[-1]) * self._edge_factor[1], out)

    def seconds(self, t0, t1):
        """Normalized duration of [t0, t1]; works elementwise on arrays."""
        return self._at(t1) - self._at(t0)

    def probes(self) -> int:
        return len(self._starts)
