"""Correction of measured times for the speed of the core they ran on.

On a shared host, the core under a single-threaded process changes speed by up
to 1.6x within a second as other tenants load it. The share of slow time
changes from minute to minute, and the two cores of a 2-vCPU guest do not
change together. Raw medians of identical runs moved by up to 40% between
runs. A fixed reference chunk (small numpy ops plus a Python loop, like a
field evaluation) timed next to and during the measured work tracks that
speed. A time t measured while the chunk took c on average is reported as
t * C_REF / c, the time the work would take on a core that runs the chunk in
C_REF. Raw times are reported alongside.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

C_REF = 0.6e-3          # s; the median chunk time on the 2-vCPU host the bounds were set on
SAMPLE_INTERVAL = 0.05  # s between samples while an operation runs

_X = np.linspace(-1.0, 1.0, 20)
_W = np.ones((20, 20))


def _chunk() -> float:
    t0 = perf_counter()
    y = _X
    for _ in range(60):
        y = 0.1 * (-3.0 * y + 0.5 * (_W @ np.tanh(y)))
    s = 0
    for i in range(3000):
        s += i * i
    return perf_counter() - t0


def sample() -> float:
    """Chunk time now; the faster of two runs, so a one-off interrupt drops out."""
    return min(_chunk(), _chunk())


def corrected(raw: float, samples) -> float:
    """``raw`` seconds at reference speed, given chunk samples taken meanwhile."""
    return raw * C_REF / statistics.fmean(samples)


class SpeedProbe:
    """Samples the chunk before, during (on SIGALRM) and after one operation.

    Use from the main thread only: ``start()``, run the work, then
    ``stop(raw)`` with its raw wall time, which returns the corrected time.
    The time spent in samples during the work is taken out of ``raw``.
    """

    def __init__(self, interval: float = SAMPLE_INTERVAL):
        self.interval = interval
        self._samples: list[float] = []
        self._spent = 0.0
        self._previous_handler = None

    def _on_alarm(self, signum, frame):
        t0 = perf_counter()
        self._samples.append(sample())
        self._spent += perf_counter() - t0

    def start(self) -> None:
        self._samples = [sample()]
        self._spent = 0.0
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self, raw: float) -> float:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._samples.append(sample())
        return corrected(raw - self._spent, self._samples)
