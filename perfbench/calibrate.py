"""Host-speed calibration for the end-to-end timings.

On a shared virtual machine the speed the host gives this process
switches between a fast and a slow state, about 2x apart, in spells of
seconds to minutes; how much of a run falls in the slow state drifts
from minute to minute.  The program slows with the host, and so does a
fixed loop of the operations it spends its time on (interpreted
arithmetic, scalar numpy calls, a Gamma draw).  So the loop is timed
again and again while the program runs, and a timing is reported in
reference seconds, ``seconds * REFERENCE_S / mean loop time``: the time
it would take on a host that runs the loop in ``REFERENCE_S``.

While a timed command runs, ``Sampler`` times one loop every
``INTERVAL_S`` from a SIGALRM handler on the main thread, so the samples
cover the whole command however long it is.  The handler's own time is
taken out of the command's time.  Set-up probes run in a child process
and are short, so they are flanked by ``calibration()`` instead.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

# Only a unit: a loop time between the fast-state (about 2.2 ms) and
# slow-state (about 4.4 ms) loop times of the 2-vCPU Intel Xeon virtual
# machine the benchmark was written on.
REFERENCE_S = 0.003
STEPS = 1000
INTERVAL_S = 0.25
FLANK_REPEATS = 15

_rng = np.random.default_rng(0)
_x = np.ones(8)


def loop_time():
    """Seconds for one run of the calibration loop."""
    t0 = time.perf_counter()
    total = 0.0
    for i in range(STEPS):
        _x[i % _x.size] = _rng.gamma(1.5) * 0.5
        total += float(_x.sum())
    return time.perf_counter() - t0


def calibration():
    """Median of ``FLANK_REPEATS`` loop times."""
    return statistics.median(loop_time() for _ in range(FLANK_REPEATS))


def to_reference(seconds, loop_times):
    return seconds * REFERENCE_S / statistics.mean(loop_times)


class Sampler:
    """Loop times sampled around and while a block runs: one on entry,
    before the block, then one per ``INTERVAL_S``.  ``spent_s`` is the
    time the samples taken inside the block cost it."""

    def __init__(self):
        self.samples = []
        self.spent_s = 0.0

    def _sample(self, *_):
        t0 = time.perf_counter()
        self.samples.append(loop_time())
        self.spent_s += time.perf_counter() - t0

    @contextmanager
    def running(self):
        self.samples.append(loop_time())
        previous = signal.signal(signal.SIGALRM, self._sample)
        try:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
