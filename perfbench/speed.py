"""How fast the benchmark's CPU runs while a command runs on it.

The CPUs of a shared host change speed within seconds, by up to a factor of
two, and each CPU on its own.  So the benchmark pins itself and its children
to one CPU, and a sampler thread times a fixed pure-Python loop there every
PERIOD_S seconds.  While a child runs, each burst of the loop preempts it for
about half a millisecond; the bursts during a run give the CPU's slowness
over that run, and their total is the CPU time the child did not get.

A run's time at reference speed is then its wall time minus the bursts,
divided by the slowness.  The loop does not use the program being
measured, so a faster program still reads faster.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

PERIOD_S = 0.025            # one burst of the loop every PERIOD_S
BURST_LOOP = 5_000          # iterations of the loop in one burst
BURST_REF_S = 0.0005        # the burst's time at reference speed


def burst() -> int:
    total = 0
    for i in range(BURST_LOOP):
        total += i * i % 7
    return total


def pin_to_one_cpu() -> int:
    """Pin this process, and so every child it starts, to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def reference_time(wall_s: float, bursts: list[tuple[float, float]]) -> float:
    """wall_s, less the bursts within it, at reference speed.

    bursts holds the (start, end) of each burst that ran within the wall
    time.  Their median time gives the slowness: a burst the child
    preempted runs long, and the median ignores it.  With no bursts, the
    wall time is taken as it is.
    """
    if not bursts:
        return wall_s
    burst_s = statistics.median(end - start for start, end in bursts)
    return (wall_s - len(bursts) * burst_s) * BURST_REF_S / burst_s


class Sampler:
    """A thread that times a burst of the loop every PERIOD_S seconds."""

    def __init__(self) -> None:
        self._bursts: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            start = time.perf_counter()
            burst()
            self._bursts.append((start, time.perf_counter()))

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def within(self, start: float, end: float) -> list[tuple[float, float]]:
        """The bursts that began and ended within [start, end]."""
        return [(b0, b1) for b0, b1 in list(self._bursts)
                if b0 >= start and b1 <= end]

    def scale(self, start: float, wall_s: float) -> float:
        """A run's wall time, at reference speed."""
        return reference_time(wall_s, self.within(start, start + wall_s))
