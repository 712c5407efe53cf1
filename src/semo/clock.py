"""Instant providers: the wall clock and a controllable test clock."""

from __future__ import annotations

import threading
import time


class SystemClock:
    """Millisecond wall clock; sleep blocks the calling thread."""

    def now_ms(self) -> int:
        return time.time_ns() // 1_000_000

    def sleep(self, seconds: float, stop: threading.Event | None = None) -> None:
        """Block for `seconds`, or until `stop` is set.

        time.sleep alone would resume after a signal handler sets the stop
        event (PEP 475), so a recorder would exit only when its interval ends.
        Without `stop`, a fresh event that nothing sets is waited on.
        """
        (threading.Event() if stop is None else stop).wait(seconds)


class SimulatedClock:
    """Deterministic clock whose sleep() simply advances the current instant.

    `on_advance`, when set, is called with the new time after every sleep;
    tests use it to trip a stop signal at a chosen instant.
    """

    def __init__(self, start_ms: int = 0):
        self._now_ms = int(start_ms)
        self.on_advance = None

    def now_ms(self) -> int:
        return self._now_ms

    def sleep(self, seconds: float, stop: threading.Event | None = None) -> None:
        """Advance by `seconds` at once; `stop` is not waited on."""
        self._now_ms += int(round(seconds * 1000))
        if self.on_advance is not None:
            self.on_advance(self._now_ms)
