"""A gauge of the machine's speed, read throughout the benchmark's calls.

On a shared host the same code runs 20-40 % slower for tens of seconds at a
time, so raw seconds of runs a few minutes apart differ by more than a
change to refugebif would.  While ``SpeedGauge`` runs, a timer signal
interrupts the benchmark every PERIOD_S seconds, and the handler times a
small fixed kernel before the interrupted code goes on.  run.py takes the
handler's time out of each call's seconds and scales them by
``REFERENCE_S / (mean kernel seconds during the call)``, so a time metric
reads in seconds at the reference speed.  A slow stretch of the host slows
the kernel too and cancels out; a change to refugebif does not, since the
kernel uses none of it.  The kernel runs in the benchmark's own thread,
while the interrupted call waits, so the call's load does not slow it; and
it is read during a call, not only around it, so it follows the host's
speed through calls of 10 s and more.

The kernel does what refugebif's calls do, on fixed data: one sparse LU of a
five-point operator, triangular solves with it, and numpy operations on
small arrays.
"""

from __future__ import annotations

import signal
from statistics import fmean
from time import perf_counter

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

# the kernel's typical seconds on the 2-core Xeon the baseline was recorded on
REFERENCE_S = 0.03
PERIOD_S = 0.5
# a call shorter than this is judged by the readings of the window of this
# length centred on it, so that it has several
MIN_WINDOW_S = 2.0
GRID_N = 48
SOLVES = 80
ARRAY_OPS = 800


class SpeedGauge:
    """Kernel timings taken on a timer signal, and the time they took.

    ``readings`` holds (perf_counter time of the middle, kernel seconds);
    ``paused`` is the total seconds spent in the signal handler.  Use it as
    a context manager around the timed part; ``read()`` takes one reading
    by hand, for stretches run with the timer stopped.
    """

    def __init__(self):
        n = GRID_N
        ones = np.ones(n * n)
        self.matrix = sp.diags(
            [-ones[n:], -ones[1:], 4.2 * ones, -ones[1:], -ones[n:]],
            [-n, -1, 0, 1, n],
            format="csc",
        )
        self.rhs = np.random.default_rng(0).random(n * n)
        self.readings: list[tuple[float, float]] = []
        self.paused = 0.0
        self._kernel()  # warm-up: the first LU pays one-off costs

    def _kernel(self) -> tuple[float, float]:
        t0 = perf_counter()
        lu = splu(self.matrix)
        x = self.rhs
        for _ in range(SOLVES):
            x = 0.5 * lu.solve(x) + self.rhs
        y = np.zeros(GRID_N * GRID_N)
        for _ in range(ARRAY_OPS):
            y = np.sqrt(y * y + 1.0) - 0.5 * y
        t1 = perf_counter()
        return (t0 + t1) / 2.0, t1 - t0

    def read(self) -> None:
        self.readings.append(self._kernel())

    def _on_timer(self, signum, frame) -> None:
        t0 = perf_counter()
        self.read()
        self.paused += perf_counter() - t0

    def __enter__(self) -> "SpeedGauge":
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference(self, start: float, end: float) -> float:
        """Mean kernel seconds of the readings between two perf_counter times
        (widened to MIN_WINDOW_S about their middle)."""
        pad = max(0.0, (MIN_WINDOW_S - (end - start)) / 2.0)
        inside = [s for mid, s in self.readings if start - pad <= mid <= end + pad]
        if not inside:
            raise RuntimeError(f"no speed reading between {start} and {end}")
        return fmean(inside)
