"""Calibrate timings against the machine's current speed.

A shared machine drifts in speed: on a 2-core shared Intel Xeon VM the
drift reached 1.7x over seconds to minutes, in CPU time as much as in wall
time, and moved a fixed kernel of small numpy operations and interpreter
work roughly in step with bqtsim's own calls.  While a workload runs, a
:class:`Sampler` times that kernel every :data:`INTERVAL_S` seconds from a
``SIGALRM`` handler in the workload's own thread.  A request's time, less the kernel
runs inside it, is then rescaled to the speed at which one kernel run takes
:data:`REFERENCE_S`, using the mean of the kernel runs within
:data:`WINDOW_S` of the request.  The speed moves between levels that last
seconds, so a long request runs at the time-averaged speed; the mean
tracks that, where the median of a window that spans two levels does not
(it doubled the run-to-run spread of battery times).  Kernel runs slowed
by preemption are rare: above three times a run's median in 5 of about
10,000.  The kernel never calls bqtsim and runs with the cyclic garbage
collector off, so neither a change to the package nor the size of the
workload's heap can move it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np

#: Kernel time that calibrated timings are scaled to.
REFERENCE_S = 0.004
#: Seconds between kernel runs while a workload runs.
INTERVAL_S = 0.2
#: Kernel runs this close to a request set its speed.
WINDOW_S = 0.5


def kernel() -> float:
    """Fixed work resembling a measurement on a ten-qubit register."""
    v = np.arange(1024, dtype=complex) / 1024
    acc = 0.0
    for i in range(150):
        psi = np.moveaxis(v.reshape((2,) * 10), i % 10, 0).reshape(2, -1)
        lo, hi = (psi[0] + psi[1]) * 0.5, (psi[0] - psi[1]) * 0.5
        acc += float(np.real(np.vdot(lo, lo))) + float(np.real(np.vdot(hi, hi)))
        acc += len({"i": i, "t": tuple(range(i % 7))}["t"])
    return acc


def timed_kernel() -> tuple[float, float]:
    """Start and seconds of one kernel run, with the garbage collector off.

    A collection that fired inside the kernel would traverse the caller's
    heap and charge that to the machine's speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return start, time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def probe(reps: int) -> float:
    """Median seconds of one kernel run over ``reps`` runs."""
    return statistics.median(timed_kernel()[1] for _ in range(reps))


class Sampler:
    """Runs the kernel periodically while active; a context manager."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []

    def sample(self, *_signal) -> None:
        start, seconds = timed_kernel()
        self.durations.append(seconds)
        self.starts.append(start)

    def __enter__(self) -> "Sampler":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def inside(self, start: np.ndarray, end: np.ndarray) -> np.ndarray:
        """Kernel seconds spent inside each interval ``[start, end]``.

        A kernel run interrupts the workload's thread and finishes before
        it resumes, so it lies wholly inside every interval it starts in.
        """
        starts = np.array(self.starts)
        before = np.concatenate(([0.0], np.cumsum(self.durations)))
        return before[np.searchsorted(starts, end)] - before[np.searchsorted(starts, start)]

    def calibrate(self, intervals: list[tuple[float, float]]) -> tuple[list[float], list[float]]:
        """Raw and calibrated seconds of each request, kernel runs excluded."""
        start, end = (np.array(x) for x in zip(*intervals))
        raw = end - start - self.inside(start, end)
        return raw.tolist(), (raw * self.factors(start, end)).tolist()

    def factors(self, start: np.ndarray, end: np.ndarray) -> np.ndarray:
        """Scale factor of each interval, from the kernel runs near it."""
        starts, durations = np.array(self.starts), np.array(self.durations)
        lo = np.searchsorted(starts, start - WINDOW_S)
        hi = np.searchsorted(starts, end + WINDOW_S)
        hi = np.minimum(np.maximum(hi, lo + 1), starts.size)  # at least one run
        lo = np.minimum(lo, hi - 1)
        total = np.concatenate(([0.0], np.cumsum(durations)))
        return REFERENCE_S * (hi - lo) / (total[hi] - total[lo])
