"""Reference speed: a fixed pure-Python loop timed around every unit.

The benchmark's host is shared, and the speed of each of its CPUs swings
by tens of percent over seconds to minutes, independently of the others;
the program's wall time swings with it, by the same share, because both
run the same interpreter on the same CPU.  So every host time the
benchmark reports is expressed at *reference speed*:

    reference time = wall time x NOMINAL_S / loop time

where ``loop time`` is the mean of the loop's time just before and just
after the unit, on the CPUs the unit ran on, each the fastest of a few
runs.  ``NOMINAL_S`` only sets the scale: it is the loop's wall time on an
uncontended CPU of a 2-vCPU Intel Xeon virtual machine under CPython 3.11, so there
reference seconds and wall seconds agree.  A change to the program moves
its wall time but not the loop's, so reference times move with the
program alone.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable, List, Optional, Sequence

ITERATIONS = 8_000
#: Runs per probe: a probe reports the fastest, so a one-off interruption
#: of one run does not pass for a slow host.
RUNS = 3
NOMINAL_S = 0.66e-3


def _loop(clock: Callable[[], float] = time.perf_counter) -> float:
    t0 = clock()
    d = {}
    s = 0
    for i in range(ITERATIONS):
        d[i & 255] = s
        s += i * 3
    return clock() - t0


def probe(cpus: Optional[Sequence[int]] = None) -> float:
    """Wall seconds of the loop (fastest of ``RUNS``), on this thread's CPU
    or at the mean speed of ``cpus``.

    A pool of worker processes runs on several CPUs at once, so its speed
    is their mean speed; the loop then runs pinned to each CPU in turn.
    """
    if not cpus:
        return min(_loop() for _ in range(RUNS))
    allowed = os.sched_getaffinity(0)
    speeds = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            speeds.append(1.0 / min(_loop() for _ in range(RUNS)))
    finally:
        os.sched_setaffinity(0, allowed)
    return len(speeds) / sum(speeds)


def factor(before: float, after: float) -> float:
    """Reference seconds per wall second between two probes."""
    return NOMINAL_S / ((before + after) / 2)


class Sampler:
    """Runs the loop on each of ``cpus`` in turn, every ``interval_s``, on a
    background thread while a worker pool runs on those CPUs.

    The loop is timed in thread CPU time, which excludes the time the
    thread waits for a CPU the pool keeps busy; ``loop_s`` is the loop
    time at the CPUs' mean speed over the sampled period.
    """

    def __init__(self, cpus: Sequence[int], interval_s: float = 0.02) -> None:
        self.cpus = list(cpus)
        self.interval_s = interval_s
        self.speeds: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        k = 0
        while not self._stop.is_set():
            os.sched_setaffinity(0, {self.cpus[k % len(self.cpus)]})
            self.speeds.append(1.0 / _loop(time.thread_time))
            k += 1
            self._stop.wait(self.interval_s)

    def start(self) -> None:
        if not self._thread.is_alive() and not self._stop.is_set():
            self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()

    @property
    def loop_s(self) -> Optional[float]:
        return len(self.speeds) / sum(self.speeds) if self.speeds else None
