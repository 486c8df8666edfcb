"""Host speed probe: how slow the machine is running right now.

On a machine shared with other tenants the speed available to one process
changes by up to about 2x over seconds to minutes (contention for shared
cores, caches and memory), and process CPU time changes with it, so a
median within one run does not remove it.  The benchmark therefore runs a
fixed pure-Python kernel between ops and divides the program's times by
how slow the kernel ran around them.  The kernel does the kinds of work the
program does (small-integer loops, rational arithmetic, big-integer
arithmetic, tuple and dict churn) in roughly equal parts; it shares no code
with the program, so a change to the program never moves it.

``slowness()`` is the kernel's median time over three back-to-back runs,
divided by ``NOMINAL_S``, its time on the reference machine (a shared 2-vCPU
Xeon, CPython 3.11, when the machine was quiet).  Single runs of a few
milliseconds are often preempted; the median of three is not moved by one
such run.  A time divided by the slowness measured around it is in seconds
of that reference machine.

The host's level often changes within a second, so an op of a second or
more is also sampled while it runs: ``Sampler`` runs the kernel once on a
SIGPROF timer every ``Sampler.INTERVAL_S`` of process CPU time and records
the time it took, which the caller subtracts from the op's time.
"""

from __future__ import annotations

import signal
import threading
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.0045  # kernel time on the reference machine; fixes the scale

_BIG = 3 ** 2000
_MOD = 7 ** 1500


def _kernel() -> int:
    s = 0
    for i in range(12000):
        s += i * i % 7
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
    x = _BIG
    for i in range(30):
        x = (x * x + i) % _MOD
    d = {}
    for i in range(1500):
        d[(i % 97, i % 89, i)] = [i, s]
    return len(sorted(d)) + acc.denominator + x % 2


def slowness() -> float:
    """Median time of three kernel runs over the nominal time (1.0 =
    reference speed)."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        _kernel()
        times.append(perf_counter() - t0)
    return sorted(times)[1] / NOMINAL_S


class Sampler:
    """Slowness samples taken inside an op (single kernel runs on SIGPROF).

    ``arm()`` before the op, ``disarm()`` after it; ``samples`` then holds
    (start, seconds) of each kernel run.  No sample is taken while another
    thread is alive: the kernel would then wait for the GIL and read the
    program's threads as host slowness."""

    INTERVAL_S = 0.1

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        signal.signal(signal.SIGPROF, self._on_timer)

    def _on_timer(self, signum, frame):
        if threading.active_count() > 1:
            return
        t0 = perf_counter()
        _kernel()
        self.samples.append((t0, perf_counter() - t0))

    def arm(self):
        self.samples = []
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL_S, self.INTERVAL_S)

    def disarm(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
