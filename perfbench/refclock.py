"""Reference-speed clock.

On a shared 2-core x86-64 box the same work runs alternately at two
speeds about 1.6x apart, each spell lasting 10-20 s (another tenant on the
sibling hardware thread, most likely), with smaller swings on top.  A run
lasts 20-60 s, so raw times from one run to the next differ by up to 40%
with no change in the code.

The clock times a fixed reference kernel (numpy matrix-vector products and
a Python loop, the verifier's own mix; it calls no reluverify code) just
before and just after each measured interval, and every PERIOD_S inside
it from an interval-timer signal, so that a long interval is compared with
the speed across its whole length.  The interval is scaled by REFERENCE_S
over the kernel's mean time.  Times come out in seconds at the reference
speed: on that box, about its raw times in a fast spell.  The samples
inside an interval add about 0.5% to it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REFERENCE_S = 9.0e-5  # one kernel call, in seconds, at the reference speed
PERIOD_S = 0.1  # sampling period inside an interval
SAMPLE_CALLS = 5
_A = np.random.default_rng(7).uniform(-1.0, 1.0, size=(16, 16)) / 4.0


def _kernel() -> float:
    v, s = np.ones(16), 0.0
    for _ in range(30):
        v = np.maximum(_A @ v + 0.1, 0.0)
        for x in v.tolist():
            s += x
    return s


def _sample() -> float:
    """Median time of one kernel call over SAMPLE_CALLS calls."""
    times = []
    for _ in range(SAMPLE_CALLS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class RefClock:
    """Open it with ``with``: the sampling timer runs while it is open."""

    def __enter__(self) -> "RefClock":
        self._during: list[float] = []
        self.restart()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame) -> None:
        self._during.append(_sample())

    def restart(self) -> None:
        """Take a fresh 'before' sample; the next interval starts now."""
        self._before = _sample()
        self._during = []

    def scale(self) -> float:
        """Factor from wall seconds to reference seconds for the interval
        since the previous call; that call's sample is this one's 'before'."""
        during, self._during = self._during, []
        after = _sample()
        # Trapezoid rule over time: the samples inside are evenly spaced.
        local = (0.5 * self._before + sum(during) + 0.5 * after) / (1 + len(during))
        self._before = after
        return REFERENCE_S / local
