"""Forecast-scheduled maintenance windows for the serving layer.

A fleet attached to a :class:`~repro.crossbar.FleetMaintenance` policy
sweeps *reactively*: the check rides every dispatch, so a recalibration
fires in whatever traffic happens to be in flight.  A serving layer can
do better — the :class:`~repro.crossbar.lifetime.DriftPredictor`
forecasts *when* each shard will next cross its gain-error budget with
zero probes, so maintenance becomes schedulable: wait for a lull, run
the sweep then, and charge its probes and pulses to the same service
line the client requests queue on (maintenance reads are not free, they
delay the traffic behind them).

:class:`MaintenanceWindow` owns that schedule.  It wraps a *detached*
policy (built with ``attach=False`` — the window must be the only
sweeper, otherwise the fleet would still sweep reactively mid-dispatch)
and, every server step, decides one of three things:

* **not due** — the drift forecast says every shard is still inside
  budget and no wall-clock threshold has tripped; do nothing (and pay
  nothing: the forecast is pure model evaluation);
* **due, busy** — work is owed but the queue is deeper than
  ``low_traffic_depth``; *defer*, up to ``max_defer_s`` seconds past
  the moment the work came due;
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

from repro._util import check_elapsed, check_positive

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
    """Drift-forecast scheduler that runs sweeps in traffic lulls.

    Parameters
    ----------
    fleet:
        The :class:`~repro.crossbar.ShardedOperator` being served.
    policy:
        A :class:`~repro.crossbar.FleetMaintenance` built with
        ``attach=False``.  The window must be the fleet's *only*
        sweeper; a policy still attached to the fleet would sweep
        reactively inside every dispatch and the slot log would lie.
    gain_error_budget:
        Budget the drift forecast schedules against; defaults to the
        policy's own ``gain_error_budget``.  ``None`` (in both places)
        disables forecasting — the window then only reacts to the
        policy's wall-clock triggers.
    low_traffic_depth:
        A sweep waits until the request queue is at most this deep
        (default 0: a true lull).
    max_defer_s:
        Longest a due sweep may wait for a lull before it is forced
        through live traffic (default ``inf``: wait forever).
    probe_service_s:
        Service-line seconds one calibration/verify probe costs.
        Defaults at :meth:`bind` time to the server's
        ``window_service_s / fleet.batch_window`` — a probe is a
        single-column read, so it prices like one column of a window.
    pulse_service_s:
        Service-line seconds one program pulse costs (default 0:
        programming overlaps with reads on hardware with independent
        write paths; set it when it does not).

    The forecasters come from the policy
    (:meth:`~repro.crossbar.FleetMaintenance.predictor_for`), so the
    window and the policy judge each shard with the same drift model.
    """

    def __init__(
        self,
        fleet,
        policy,
        gain_error_budget: float | None = None,
        *,
        low_traffic_depth: int = 0,
        max_defer_s: float = math.inf,
        probe_service_s: float | None = None,
        pulse_service_s: float = 0.0,
    ) -> None:
        if getattr(fleet, "maintenance", None) is policy:
            raise ValueError(
                "policy is attached to the fleet; build it with "
                "attach=False so the MaintenanceWindow is the only sweeper"
            )
        if gain_error_budget is None:
            gain_error_budget = getattr(policy, "gain_error_budget", None)
        if gain_error_budget is not None:
            check_positive("gain_error_budget", gain_error_budget)
        if low_traffic_depth < 0:
            raise ValueError("low_traffic_depth must be >= 0")
        if not max_defer_s >= 0.0:
            raise ValueError(f"max_defer_s must be >= 0, got {max_defer_s!r}")
        if probe_service_s is not None:
            check_elapsed("probe_service_s", probe_service_s)
        check_elapsed("pulse_service_s", pulse_service_s)
        self.fleet = fleet
        self.policy = policy
        self.gain_error_budget = gain_error_budget
        self.low_traffic_depth = int(low_traffic_depth)
        self.max_defer_s = float(max_defer_s)
        self.probe_service_s = probe_service_s
        self.pulse_service_s = float(pulse_service_s)
        self.slots: list[MaintenanceSlot] = []
        self._due_since_s: float | None = None
        self._deferrals = 0
        self._forecast_cache: tuple[tuple, float] | None = None

    # -- forecasting -----------------------------------------------------------
    def _fleet_state_key(self) -> tuple:
        retired = getattr(self.fleet, "retired_shards", None)
        key = []
        for index, shard in enumerate(self.fleet.shards):
            if retired is not None and retired[index]:
                key.append((index, None))
                continue
            key.append(
                (
                    index,
                    float(getattr(shard, "age_seconds", 0.0)),
                    float(getattr(shard, "staleness_seconds", 0.0)),
                )
            )
        return tuple(key)

    def seconds_until_due(self) -> float:
        """Forecast seconds until some live shard needs maintenance.

        The minimum, over live physical shards, of the drift model's
        :meth:`~repro.crossbar.lifetime.DriftPredictor.seconds_until`
        the gain-error budget — zero probes spent.  0.0 when work is
        already owed (including via the policy's wall-clock triggers);
        ``inf`` when nothing will ever come due.  This is the number a
        deployment would use to *plan* windows ("next slot in 3.2 h");
        :meth:`maybe_run` is the step-by-step enactment.
        """
        if self.policy._due_pairs():
            return 0.0
        if self.gain_error_budget is None:
            return math.inf
        key = self._fleet_state_key()
        if self._forecast_cache is not None and self._forecast_cache[0] == key:
            return self._forecast_cache[1]
        retired = getattr(self.fleet, "retired_shards", None)
        remaining = math.inf
        for index, shard in enumerate(self.fleet.shards):
            if retired is not None and retired[index]:
                continue
            if not hasattr(shard, "age_seconds"):
                continue
            predictor = self.policy.predictor_for(shard)
            if predictor is None:
                continue
            age = float(shard.age_seconds)
            staleness = float(getattr(shard, "staleness_seconds", age))
            remaining = min(
                remaining,
                predictor.seconds_until(
                    self.gain_error_budget, age, calibrated_at_s=age - staleness
                ),
            )
        self._forecast_cache = (key, remaining)
        return remaining

    # -- scheduling ------------------------------------------------------------
    def bind(self, server) -> None:
        """Adopt a server's service-time model (called by the server).

        Fills the default probe cost from the server's window service
        time; binding is idempotent and does not touch fleet state.
        """
        if self.probe_service_s is None:
            self.probe_service_s = server.window_service_s / float(
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
        busy = server.queue.depth > self.low_traffic_depth
        forced = now - self._due_since_s >= self.max_defer_s
        if busy and not forced:
            self._deferrals += 1
            return None
        actions = self.policy.sweep()
        probes = sum(action.probes for action in actions)
        pulses = sum(action.pulses for action in actions)
        probe_cost = self.probe_service_s if self.probe_service_s is not None else 0.0
        service_s = probes * probe_cost + pulses * self.pulse_service_s
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
        self._forecast_cache = None
        return slot

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MaintenanceWindow(slots={len(self.slots)}, "
            f"low_traffic_depth={self.low_traffic_depth}, "
            f"max_defer_s={self.max_defer_s:g})"
        )
