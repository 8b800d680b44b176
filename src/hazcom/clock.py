"""Time sources for the pipeline.

All timing is expressed in integer ticks of 0.1 s.  The virtual clock makes
latency and fallback behavior exactly reproducible; the wall-clock adapter
is for live use, where stages consume real time on their own.
"""

from __future__ import annotations

import time
from typing import Protocol

from .core import check_ticks

TICKS_PER_SECOND = 10


def seconds_to_ticks(seconds: float) -> int:
    return round(seconds * TICKS_PER_SECOND)


def ticks_to_seconds(ticks: int) -> float:
    return ticks / TICKS_PER_SECOND


class Clock(Protocol):
    @property
    def now(self) -> int: ...

    def advance(self, ticks: int) -> None: ...


class VirtualClock:
    """Deterministic clock: time moves only when explicitly advanced."""

    def __init__(self, start: int = 0) -> None:
        self._now = start

    @property
    def now(self) -> int:
        return self._now

    def advance(self, ticks: int) -> None:
        check_ticks("clock advance", ticks)
        self._now += ticks


class WallClock:
    """Adapter over the monotonic clock for live runs.

    ``advance`` is a no-op: real stages consume real time, the engine only
    reads elapsed ticks around them.
    """

    def __init__(self) -> None:
        self._origin = time.monotonic()

    @property
    def now(self) -> int:
        return int((time.monotonic() - self._origin) * TICKS_PER_SECOND)

    def advance(self, ticks: int) -> None:
        check_ticks("clock advance", ticks)
