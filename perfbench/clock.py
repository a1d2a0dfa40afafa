"""Interval timing that cancels the host's changing speed.

On a shared host the same work can take anywhere from 1.0x to 1.7x as long
from one second to the next (measured on the 2-vCPU Xeon VM the benchmark
was built on), which swamps the differences a benchmark must resolve.  So
while a ``ScaledClock`` runs, a timer signal interrupts the program every
``TICK_S`` and times a fixed reference loop.  Each slice of a measured
interval is scaled by ``REF_NOMINAL_S`` over the reference loop's time
around it: the result is the interval in seconds at the nominal speed of
the host.  The time spent in the reference loop is excluded from both
the raw and the scaled interval.
"""

from __future__ import annotations

import signal
from time import perf_counter

TICK_S = 0.025
# Time of one reference loop at full speed on the reference host.
REF_NOMINAL_S = 0.00075
_BIG = 3 ** 3000


def reference_loop() -> None:
    """Fixed work mixing what the program does: dict updates keyed by
    small tuples, and products of big integers."""
    table = {}
    for i in range(1500):
        key = (i & 63, i >> 6)
        table[key] = table.get(key, 0) + 3 * i
    for i in range(20):
        (_BIG + i) * (_BIG - i)


def reference_time() -> float:
    start = perf_counter()
    reference_loop()
    return perf_counter() - start


class ScaledClock:
    """Times intervals opened by ``start`` and closed by ``stop``.

    Use as a context manager, which owns SIGALRM and the real-time
    interval timer while it is open.
    """

    def __init__(self):
        self._scale = REF_NOMINAL_S / reference_time()
        self._inside = False
        self._mark = self._raw = self._scaled = 0.0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame):
        now = perf_counter()
        scale = REF_NOMINAL_S / reference_time()
        if self._inside:
            piece = now - self._mark
            self._raw += piece
            self._scaled += piece * (self._scale + scale) / 2
            self._mark = perf_counter()
        self._scale = scale

    def start(self) -> None:
        self._raw = self._scaled = 0.0
        self._mark = perf_counter()
        self._inside = True
        # A tick between the two reads must not count its own loop.
        self._mark = perf_counter()

    def stop(self) -> tuple[float, float]:
        """(raw seconds, seconds at nominal speed) since ``start``."""
        now = perf_counter()
        self._inside = False
        # A tick after `now` was read has already counted up to its own start.
        piece = max(0.0, now - self._mark)
        return self._raw + piece, self._scaled + piece * self._scale
