"""Host speed, sampled while a batch runs, to rescale its host time.

The benchmark runs on a few vCPUs of a shared host, where the same
batch's wall time spreads far more between runs than any change worth
detecting, for two reasons.  The hypervisor at times takes the vCPU
away (steal time): the process then gets less CPU time than wall time.
And while it runs, how fast the vCPU executes drifts by tens of percent
over seconds to minutes as other tenants contend for the physical core
and its caches.

:class:`HostSpeed` takes out both.  It counts the process's CPU time
rather than wall time, and it samples the speed that CPU time runs at:
a timer signal interrupts the batch every :data:`PERIOD_S` seconds and
times a fixed pure-Python reference loop on the same vCPU.
:meth:`scaled` turns the CPU seconds of a window into the seconds they
would have taken at the reference speed (one loop in
:data:`REFERENCE_S`), leaving out the time the samples themselves took.
The loop uses no program code, so a change to the program cannot move
it.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Seconds of host time between two samples.
PERIOD_S = 0.03
#: Seconds one reference loop takes at the reference speed (about what
#: it takes on an uncontended 2.0 GHz Xeon vCPU).
REFERENCE_S = 0.6e-3


def reference_loop() -> int:
    """Fixed interpreter work: dict stores and lookups, int arithmetic."""
    table: dict = {}
    total = 0
    for i in range(5000):
        table[i & 63] = i
        total += table.get((i * 7) & 63, 0)
    return total


class HostSpeed:
    """Samples host speed from a ``SIGALRM`` interval timer."""

    def __init__(self) -> None:
        #: ``(perf_counter at start, CPU seconds)`` of every reference
        #: loop run so far.
        self.samples: list[tuple[float, float]] = []

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        t0, c0 = time.perf_counter(), time.process_time()
        reference_loop()
        self.samples.append((t0, time.process_time() - c0))

    def scaled(self, t0: float, t1: float, cpu_s: float) -> float:
        """``cpu_s``, the CPU seconds the process spent from ``t0`` to
        ``t1`` (``time.perf_counter`` readings), at the reference speed.

        The samples taken in the window are left out of its time, and
        the rest is scaled by the mean speed they measured: samples are
        evenly spaced in time, so their mean is the window's mean speed.
        """
        inside = [d for t, d in self.samples if t0 <= t < t1]
        if not inside:
            raise ValueError("no host-speed sample in the window; it is "
                             f"shorter than {PERIOD_S} s")
        busy = cpu_s - sum(inside)
        return busy * statistics.fmean(REFERENCE_S / d for d in inside)
