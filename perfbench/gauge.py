"""Machine-speed gauge: a reference computation sampled during the timed work.

On a shared host the same computation runs up to half again slower in some
phases of a few seconds than in others.  While a ``Gauge`` is running, a
timer signal interrupts the main thread every ``INTERVAL_S`` and times a fixed
reference computation; ``clock()`` leaves that time out, so stage times read
with it are the workload's own.  A repetition's time scaled by
``REF_NOMINAL_S`` over the median reference time measured during it reads as
seconds at the reference machine's speed.  README.md, "Machine-speed
correction", has the measurements.
"""

import signal
from statistics import median
from time import perf_counter

import numpy as np

# The median reference time a Gauge measured during cli_hyper runs on a 2-core
# Xeon VM; scaling by it keeps corrected times near seconds on that machine.
REF_NOMINAL_S = 0.0095
INTERVAL_S = 0.5

_paused = 0.0  # time spent in the reference computation, over the process


def clock():
    """``perf_counter()`` less the time spent in the reference computation."""
    return perf_counter() - _paused


def reference_work():
    """Interpreter loop, small vectorised numpy and BLAS: the kinds of work
    ecreg's layers do, in fixed amounts."""
    total = 0
    for i in range(25000):
        total += i * i % 7
    x = np.linspace(-3.0, 3.0, 500)
    for _ in range(230):
        np.exp(-x * x) * np.tanh(x) + np.log1p(x * x)
    a = np.linspace(0.0, 1.0, 300 * 300).reshape(300, 300)
    for _ in range(2):
        a @ a
    return total


class Gauge:
    """Samples the reference time while it is running (in a ``with`` block).

    Signal handlers run in the main thread between bytecodes, so a sample
    never splits a library call; only the main thread may use a Gauge.
    """

    def __init__(self):
        self.samples = []
        self._busy = False

    def sample(self, *_signal_args):
        global _paused
        if self._busy:  # a late signal arrived during a sample
            return
        self._busy = True
        t0 = perf_counter()
        reference_work()
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        _paused += perf_counter() - t0
        self._busy = False

    def __enter__(self):
        self.samples = []
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self):
        """Factor that turns this block's times into nominal seconds."""
        return REF_NOMINAL_S / median(self.samples)
