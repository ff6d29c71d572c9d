"""Machine-speed probe: rescales measured times to one fixed reference speed.

On a shared virtual machine the host runs the vCPUs at a speed that drifts
by up to 2x over seconds to minutes, and process CPU time drifts with it.
While a :class:`SpeedProbe` is active, an interval timer interrupts the
program every 20 ms to time a small fixed pure-Python kernel (rational
arithmetic and dict updates, like the exact-arithmetic code it measures).
A time measured over an interval is then reported as

    (wall time - time spent in the kernel) * REFERENCE_S / mean kernel time

that is, at the speed at which the kernel takes REFERENCE_S.  A slower
program still reads slower; a slower machine does not.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.02
MIN_SAMPLES = 8
REFERENCE_S = 150e-6  # the kernel's time on an idle 2.1 GHz Xeon vCPU


def kernel() -> None:
    acc: dict[int, Fraction] = {}
    for i in range(1, 30):
        q = Fraction(i, i + 7) * Fraction(3, i + 1)
        acc[i % 7] = acc.get(i % 7, 0) + q


class SpeedProbe:
    """Context manager sampling the kernel's time on a SIGALRM interval timer."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent inside the kernel so far
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = perf_counter()
        kernel()
        elapsed = perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self) -> float:
        """perf_counter() minus the time spent in the kernel."""
        return perf_counter() - self.spent

    def mark(self) -> int:
        return len(self.samples)

    def scale(self, start: int, end: int | None = None) -> float:
        """Factor taking a time measured between two marks to the reference speed.

        The host's speed can change within a second, so each interval uses its
        own samples, widened to at least MIN_SAMPLES around it when it is short.
        """
        if not self.samples:
            self._tick(signal.SIGALRM, None)
        count = len(self.samples)
        end = count if end is None else end
        while end - start < MIN_SAMPLES and (start > 0 or end < count):
            start, end = max(0, start - 1), min(count, end + 1)
        samples = self.samples[start:end]
        # A sample the host preempted reads many times the median and would
        # swing the mean; the program's own share of such stalls stays in
        # its time.  Fast and slow host phases differ by less than 2x.
        limit = 2 * statistics.median(samples)
        return REFERENCE_S / statistics.mean(x for x in samples if x <= limit)
