"""Maintenance windows for the serving layer.

A fleet attached to a :class:`~repro.crossbar.FleetMaintenance` policy
sweeps *reactively*: the check rides every dispatch, so a recalibration
fires in whatever traffic happens to be in flight.  A serving layer can
do better: wait for a lull, run the sweep then, and charge its probes
and pulses to the same service line the client requests queue on
(maintenance reads are not free, they delay the traffic behind them).

:class:`MaintenanceWindow` owns that schedule.  It wraps a *detached*
policy (built with ``attach=False`` — the window must be the only
sweeper, otherwise the fleet would still sweep reactively mid-dispatch)
and, every server step, decides one of three things:

* **not due** — the policy owes no shard any work: its wall-clock
  thresholds have not tripped and, with a ``gain_error_budget``, its
  drift forecast says every shard is still inside budget; do nothing
  (and pay nothing: the forecast is pure model evaluation);
* **due, busy** — work is owed but requests are queued; *defer*, up to
  ``max_defer_s`` seconds past the moment the work came due;
* **due, idle (or deferral exhausted)** — run ``policy.sweep()``,
  convert its probe/pulse counts into service-line seconds, and log a
  :class:`MaintenanceSlot` (with its deferral history and whether it
  was *forced* through live traffic).

The slot log is the serving-layer counterpart of the policy's action
log: it says not just what maintenance ran but when the scheduler chose
to run it and what traffic it displaced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro._util import check_elapsed

__all__ = ["MaintenanceSlot", "MaintenanceWindow"]


@dataclass(frozen=True)
class MaintenanceSlot:
    """One executed maintenance window.

    Attributes
    ----------
    opened_at_s:
        Serving-clock time the sweep actually ran.
    due_since_s:
        Time the work first came due (equals ``opened_at_s`` when the
        queue was already idle).
    forced:
        True when the slot ran through live traffic because
        ``max_defer_s`` expired before a lull arrived.
    deferrals:
        Server steps that found the work due but the queue busy.
    actions:
        The :class:`~repro.crossbar.MaintenanceAction` records of the
        sweep this slot executed.
    probes / pulses:
        Calibration-probe and program-pulse totals across the actions.
    service_s:
        Seconds of service-line time the slot charged to the server.
    """

    opened_at_s: float
    due_since_s: float
    forced: bool
    deferrals: int
    actions: tuple
    probes: int
    pulses: int
    service_s: float


class MaintenanceWindow:
    """Scheduler that runs a policy's due sweeps in traffic lulls.

    Parameters
    ----------
    fleet:
        The :class:`~repro.crossbar.ShardedOperator` being served.
    policy:
        A :class:`~repro.crossbar.FleetMaintenance` built with
        ``attach=False``; it decides when work is due.  The window must
        be the fleet's *only* sweeper; a policy still attached to the
        fleet would sweep reactively inside every dispatch and the slot
        log would lie.
    max_defer_s:
        Longest a due sweep may wait for an empty queue before it is
        forced through live traffic (default ``inf``: wait forever).
    pulse_service_s:
        Service-line seconds one program pulse costs (default 0:
        programming overlaps with reads on hardware with independent
        write paths; set it when it does not).

    One calibration/verify probe costs the bound server's
    ``window_service_s / fleet.batch_window`` (set by :meth:`bind`): a
    probe is a single-column read, so it prices like one column of a
    window.
    """

    def __init__(
        self,
        fleet,
        policy,
        *,
        max_defer_s: float = math.inf,
        pulse_service_s: float = 0.0,
    ) -> None:
        if getattr(fleet, "maintenance", None) is policy:
            raise ValueError(
                "policy is attached to the fleet; build it with "
                "attach=False so the MaintenanceWindow is the only sweeper"
            )
        if not max_defer_s >= 0.0:
            raise ValueError(f"max_defer_s must be >= 0, got {max_defer_s!r}")
        check_elapsed("pulse_service_s", pulse_service_s)
        self.fleet = fleet
        self.policy = policy
        self.max_defer_s = float(max_defer_s)
        self._probe_cost_s = 0.0
        self.pulse_service_s = float(pulse_service_s)
        self.slots: list[MaintenanceSlot] = []
        self._due_since_s: float | None = None
        self._deferrals = 0

    # -- scheduling ------------------------------------------------------------
    def bind(self, server) -> None:
        """Adopt a server's service-time model (called by the server).

        Sets the probe cost from the server's window service time;
        binding does not touch fleet state.
        """
        self._probe_cost_s = server.window_service_s / float(
            self.fleet.batch_window
        )

    def maybe_run(self, server):
        """Run, defer, or skip maintenance for one server step.

        Returns the executed :class:`MaintenanceSlot`, or ``None`` when
        nothing ran (not due, or due-but-deferred).  When a slot runs,
        its probe/pulse service time is charged to the server's service
        line *before* this step's request blocks dispatch — queued
        requests see the maintenance delay in their service latency.
        """
        now = float(server.clock.now())
        if not self.policy._due_pairs():
            self._due_since_s = None
            self._deferrals = 0
            return None
        if self._due_since_s is None:
            self._due_since_s = now
        busy = server.queue.depth > 0
        forced = now - self._due_since_s >= self.max_defer_s
        if busy and not forced:
            self._deferrals += 1
            return None
        actions = self.policy.sweep()
        probes = sum(action.probes for action in actions)
        pulses = sum(action.pulses for action in actions)
        service_s = probes * self._probe_cost_s + pulses * self.pulse_service_s
        if service_s > 0.0:
            start = max(now, server._busy_until_s)
            server._busy_until_s = start + service_s
        slot = MaintenanceSlot(
            opened_at_s=now,
            due_since_s=self._due_since_s,
            forced=bool(busy and forced),
            deferrals=self._deferrals,
            actions=tuple(actions),
            probes=probes,
            pulses=pulses,
            service_s=service_s,
        )
        self.slots.append(slot)
        self._due_since_s = None
        self._deferrals = 0
        return slot

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MaintenanceWindow(slots={len(self.slots)}, "
            f"max_defer_s={self.max_defer_s:g})"
        )
