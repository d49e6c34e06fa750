"""How fast the host runs Python while a run is in progress.

On a shared host the same run of the same code can take twice as long
for minutes at a time: the vCPU runs slower, and part of the time the
hypervisor runs other machines.  A `SpeedProbe` interrupts the process
every `PERIOD` seconds of wall time (SIGALRM) and times a fixed snippet
of stdlib-only work in the handler.  The snippets sample the host's
speed at the same moments as the run, slow phases and stolen time
included, so a time divided by the snippets' mean time does not move
with the host.  `worker.py` reports each time at the host speed where a
snippet takes `REFERENCE_S` on average, after taking off the time spent
in snippets.  The probe costs about 1% of a run.
"""
from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

PERIOD = 0.05
# Mean time of `snippet()` inside a run on a 2-vCPU Intel Xeon VM with
# CPython 3.11.7, in a quiet phase of its host.
REFERENCE_S = 0.0005


def snippet() -> int:
    """Fixed work in the style of corrkit's hot paths: Fraction arithmetic
    and dict/tuple churn."""
    acc = Fraction(0)
    for i in range(1, 40):
        acc += Fraction(i, 2 * i + 1) * Fraction(3, i + 2)
    counts: dict = {}
    for i in range(900):
        key = ((i * 7919) % 61, i & 3)
        counts[key] = counts.get(key, 0) + 1
    return acc.denominator % 7 + len(counts)


class SpeedProbe:
    """Context manager.  `ticks` holds (start, wall, cpu) per snippet:
    its perf_counter start, its wall time and its thread CPU time."""

    def __init__(self, period: float = PERIOD):
        self.period = period
        self.ticks: list = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()  # a collection of the run's heap is not the probe's work
        t0, c0 = time.perf_counter(), time.thread_time()
        snippet()
        self.ticks.append((t0, time.perf_counter() - t0, time.thread_time() - c0))
        if enabled:
            gc.enable()

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def spent(self, start: float, end: float) -> tuple[float, float]:
        """Wall and CPU seconds of the snippets that started in [start, end)."""
        inside = [t for t in self.ticks if start <= t[0] < end]
        return sum(t[1] for t in inside), sum(t[2] for t in inside)

    def scales(self) -> tuple[float, float]:
        """Factors that bring a wall time and a CPU time to the reference
        speed: REFERENCE_S over the snippets' mean wall and CPU time."""
        if not self.ticks:
            raise RuntimeError("the speed probe took no sample")
        return (REFERENCE_S / statistics.fmean(t[1] for t in self.ticks),
                REFERENCE_S / statistics.fmean(t[2] for t in self.ticks))
