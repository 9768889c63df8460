"""Host speed sampling, so that timings read as if at one reference speed.

The host this benchmark runs on shares its cores with other tenants, and
its speed drifts by up to 2x within seconds.  While a :class:`SpeedSampler`
is active, a fixed calibration loop is timed every ``SAMPLE_INTERVAL_S``
from a ``SIGALRM`` handler, wherever the program happens to be, so the
samples cover a ten-second unit as densely as a short one.  The handler's
own time is kept out of :func:`clock`, which every timing of the benchmark
reads.  A time multiplied by :meth:`SpeedSampler.scale` is the time at the
reference speed, at which the loop takes ``REFERENCE_S``.

Changing the loop, ``REFERENCE_S`` or ``SAMPLE_INTERVAL_S`` changes every
scaled time: compare runs only across commits that share this file.
"""

from __future__ import annotations

import gc
import signal
import statistics
from time import perf_counter
from types import TracebackType
from typing import Any, Dict, List, Optional, Type

#: Host seconds the calibration loop takes at the reference speed.
REFERENCE_S = 0.010
#: Host seconds between two samples while a sampler is active.
SAMPLE_INTERVAL_S = 0.25

_sampling_s = 0.0


def clock() -> float:
    """``perf_counter()`` less the time spent sampling the host speed."""
    return perf_counter() - _sampling_s


class _Point:
    __slots__ = ("x", "y")


def calibration_s() -> float:
    """Host seconds of a fixed pure-Python loop, with the collector off.

    The loop touches none of the program's objects; with the collector
    off it does not depend on the program's heap either.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        table: Dict[int, _Point] = {}
        total = 0.0
        for i in range(40000):
            point = _Point()
            point.x = i * 0.5
            point.y = point.x + 1.0
            table[i & 1023] = point
            other = table.get((i * 7) & 1023)
            if other is not None:
                total += other.y
        return perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class SpeedSampler:
    """Samples the host speed while active: once on entry, every
    ``SAMPLE_INTERVAL_S`` from a timer, and once on exit."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._previous: Any = None

    def sample(self, *_signal: Any) -> None:
        global _sampling_s
        start = perf_counter()
        self.samples.append(calibration_s())
        _sampling_s += perf_counter() - start

    def scale(self) -> float:
        """``REFERENCE_S`` over the mean calibration time."""
        return REFERENCE_S / statistics.mean(self.samples)

    def __enter__(self) -> "SpeedSampler":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, exc_type: Optional[Type[BaseException]],
                 exc: Optional[BaseException],
                 traceback: Optional[TracebackType]) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
