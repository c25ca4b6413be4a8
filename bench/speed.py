"""The machine's speed, sampled while the benchmark runs, to time work against.

On a shared virtual machine the speed of a core drifts: a fixed loop runs
from 1.1 to 1.8 times its fastest time, changing within a tenth of a second
and over minutes, and the two cores drift independently. Every wall time of
a run moves with it. The sampler runs a fixed reference kernel (pure-Python
complex arithmetic and an 8x8 LU factorisation, the mix of the secular
evaluations, but no ptring code) from a SIGALRM handler every PERIOD_S of
wall time. The worker pins itself and the processes it starts to one core,
so the kernel runs on the core the work runs on, also while a child process
works (the handler preempts it briefly).

An interval of work is reported in nominal seconds:

    (wall time - handler time inside it) * NOMINAL_S / kernel time around it

where the kernel time around it is the mean of the fastest KEPT_SHARE of
the kernel times within the interval and one period either side. The
slowest tenth is mostly the kernel preempted; left out, a solve's nominal
time varies 1.4 to 3.8 times less from one solve to the next than with the
plain mean or the median. The result is the time the work would take on a
machine that runs the kernel in NOMINAL_S. A slower program still reads
slower; a slow spell of the host does not.
"""

import cmath
import math
import os
import signal
import statistics
from time import perf_counter

import numpy as np
import scipy.linalg

PERIOD_S = 0.025
KEPT_SHARE = 0.9
# about the kernel's fastest time on the 2-vCPU Xeon machine of the baseline
NOMINAL_S = 100e-6

_A = np.array(
    [[complex(math.cos(i + j), math.sin(i * j)) for j in range(8)] for i in range(8)]
) + 4.0 * np.eye(8)


def reference_kernel() -> float:
    acc = 0.0
    for r in range(3):
        z = complex(0.3 + 0.01 * r, 0.7)
        for k in range(40):
            z = cmath.sin(z) * 0.5 + cmath.cos(z * 0.25) + k * 1e-3
            acc += math.exp(-abs(z.real))
        lu, _ = scipy.linalg.lu_factor(_A * z)
        acc += float(np.sum(np.log(np.abs(np.diag(lu)))))
    return acc


def pin_to_one_core() -> None:
    """Pin this process, and so every process it starts, to one core."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class SpeedSampler:
    """Reference-kernel times, taken every PERIOD_S while entered."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []  # the timed kernel run
        self.spent: list[float] = []  # the whole handler

    def _sample(self, signum, frame):
        t0 = perf_counter()
        reference_kernel()  # warms the caches the work has just filled
        t1 = perf_counter()
        reference_kernel()
        t2 = perf_counter()
        self.starts.append(t0)
        self.times.append(t2 - t1)
        self.spent.append(t2 - t0)

    def __enter__(self):
        reference_kernel()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def slowdown(self) -> float:
        """Mean kernel time over the run, as a multiple of NOMINAL_S."""
        return statistics.fmean(self.times) / NOMINAL_S

    def nominal(self, interval: tuple[float, float]) -> float:
        """The interval (t0, t1) of work, in nominal seconds.

        The kernel times within the interval and one period either side
        give the speed around it; the handler's time inside the interval is
        not work.
        """
        t0, t1 = interval
        inside, around = 0.0, []
        for start, time, spent in zip(self.starts, self.times, self.spent):
            if t0 - PERIOD_S <= start <= t1 + PERIOD_S:
                around.append(time)
                if t0 <= start < t1:
                    inside += spent
        if not around:
            raise ValueError("no speed sample near the interval")
        kept = sorted(around)[: max(1, round(len(around) * KEPT_SHARE))]
        return (t1 - t0 - inside) * NOMINAL_S / statistics.fmean(kept)
