"""Deterministic time source for the serving layer.

Every latency, deadline and maintenance-window decision in
:mod:`repro.serving` reads time through a clock object with a single
``now()`` method — never the wall clock.  :class:`VirtualClock` is the
simulation implementation: time advances only when the harness says so,
which makes a whole serving trace (arrivals, coalescing deadlines,
queue/service latencies, maintenance slots) a pure function of the
submitted requests and the advance calls — replayable bit for bit.
"""

from __future__ import annotations

from repro._util import check_elapsed

__all__ = ["VirtualClock"]


class VirtualClock:
    """Simulated time: starts at 0 and only moves on demand."""

    def __init__(self) -> None:
        self._now_s = 0.0

    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now_s

    def advance(self, seconds: float) -> float:
        """Move time forward; returns the new ``now()``.

        ``seconds`` is validated (finite, non-negative) so a bad value
        can never run the simulation backwards or NaN-poison every
        latency computed afterwards.
        """
        self._now_s += check_elapsed("seconds", seconds)
        return self._now_s

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now={self._now_s:g})"
