"""Scheduled drift maintenance for sharded crossbar fleets.

PCM conductances relax over time (Sec. III drift model), so a fleet that
keeps serving without compensation accumulates per-shard gain error and
the recovery quality of every consumer degrades.  The paper's standard
countermeasure is periodic scalar-gain recalibration
(:meth:`~repro.crossbar.CrossbarOperator.calibrate`); once drift is deep
enough that a single digital gain can no longer hide the state-dependent
dispersion, the array is rewritten outright with
:func:`~repro.crossbar.program_and_verify`
(:meth:`~repro.crossbar.CrossbarOperator.reprogram`).

:class:`FleetMaintenance` automates both for a
:class:`~repro.crossbar.ShardedOperator`: attached to a fleet, it runs
*between dispatch windows* (the fleet calls :meth:`sweep` before every
batched or per-vector dispatch) and services each shard whose staleness
— seconds since its last maintenance event — crosses a threshold:

* ``recalibrate_after_s`` triggers the cheap scalar-gain fit
  (``n_probes`` probe vectors, billed through the shard's ordinary
  conversion counters plus the per-probe digital overhead);
* ``reprogram_after_s`` triggers the heavy program-and-verify rewrite
  (pulses counted into the shard's ``n_program_pulses``);
* ``gain_error_budget`` replaces (or augments) the wall clock with the
  *predictive* trigger: a
  :class:`~repro.crossbar.lifetime.DriftPredictor` inverts the shard's
  own ``PcmDevice.drifted`` law to forecast the gain error its current
  staleness implies, and the shard is recalibrated just before the
  forecast crosses the budget.  Because PCM drift is a power law, the
  predictive intervals stretch geometrically with age where a fixed
  wall clock keeps probing at the early-life cadence forever — same
  NMSE envelope, far fewer probes;
* ``gain_error_threshold`` escalates a calibration whose fitted gain
  lands further than this from unity into an immediate reprogram — the
  policy's "scalar compensation is no longer enough" rule;
* ``calibration_error_threshold`` escalates on the *residual* error
  after the gain fit — the signal that catches non-scalar damage
  (stuck faults, drift dispersion) that a digital gain cannot hide;
* ``verify_error_budget`` closes the escalation ladder: every
  reprogram is verified with ``n_probes`` random probes against the
  stored target, and a shard whose rewrite cannot reach the budget
  (stuck faults make the error floor irreducible) is **retired** —
  :meth:`ShardedOperator.retire_shard` takes it out of rotation and
  the fleet rebalances onto the survivors.

Every action is logged as a :class:`MaintenanceAction`, and the counter
deltas it caused are accumulated into :attr:`FleetMaintenance.stats`, so
the energy bill of a maintained fleet splits exactly into serving versus
maintenance:  ``energy_from_stats(fleet.stats)`` prices the whole run
and ``energy_from_stats(policy.stats)`` the maintenance share alone.

Exact shards (no ``calibrate``/``reprogram``) are skipped — a mixed
A/B fleet maintains only its physical replicas.  A policy whose
thresholds are never crossed performs no work and consumes no RNG, so
attaching one to a fresh fleet leaves every result bit-for-bit
unchanged.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from repro._util import as_rng, check_int
from repro.energy.crossbar_cost import REQUIRED_STATS_KEYS

__all__ = ["FleetMaintenance", "MaintenanceAction"]


@dataclass(frozen=True)
class MaintenanceAction:
    """One serviced shard: what was done, why, and what it cost.

    Attributes
    ----------
    shard:
        Index of the serviced replica in the fleet.
    action:
        ``"calibrate"``, ``"reprogram"`` or ``"retire"`` (escalated
        calibrations report as the action they escalated to; the probe
        cost of every rung climbed is included).
    staleness_s:
        The staleness that triggered the action, in seconds.
    gain:
        The digital gain in effect afterwards — the fitted value for a
        calibration, 1.0 after a reprogram.
    probes:
        Calibration/verify probe vectors spent by this action.
    pulses:
        Program-and-verify pulses spent by this action.
    verify_error:
        Relative read error measured by the post-reprogram verify step
        (``None`` when no verify ran).
    """

    shard: int
    action: str
    staleness_s: float
    gain: float
    probes: int
    pulses: int
    verify_error: float | None = None


class FleetMaintenance:
    """Threshold-driven recalibration/reprogramming policy for a fleet.

    Parameters
    ----------
    fleet:
        The :class:`~repro.crossbar.ShardedOperator` to maintain.
    recalibrate_after_s:
        Staleness (seconds since last maintenance) beyond which a shard
        gets a scalar-gain calibration; ``None`` disables calibration.
    reprogram_after_s:
        Staleness beyond which a shard is reprogrammed outright;
        ``None`` disables age-triggered reprogramming.
    gain_error_budget:
        Predictive trigger: the shard is recalibrated as soon as the
        drift model forecasts its uncompensated gain error at or above
        this budget (one
        :class:`~repro.crossbar.lifetime.DriftPredictor` per physical
        shard, see :meth:`predictor_for`).  At least one of the three
        triggers is required.
    gain_error_threshold:
        If the fitted calibration gain lands further than this from
        unity, the calibration escalates to a reprogram.
    calibration_error_threshold:
        If the *residual* relative error after the gain fit
        (``shard.last_calibration_error``) exceeds this, the
        calibration escalates to a reprogram — the trigger that catches
        stuck faults and other non-scalar damage.
    verify_error_budget:
        Relative read error every reprogram must verify below; a shard
        that cannot hit it is retired from the fleet.  ``None``
        disables verify and retirement.
    n_probes:
        Probe vectors per calibration (as in ``calibrate``) and per
        post-reprogram verify step.
    seed:
        RNG seed or generator for the calibration/verify probes.
    attach:
        Register this policy as ``fleet.maintenance`` so the fleet runs
        :meth:`sweep` between dispatch windows (default).  Pass
        ``False`` to drive sweeps manually.
    """

    def __init__(
        self,
        fleet,
        recalibrate_after_s: float | None = None,
        reprogram_after_s: float | None = None,
        gain_error_budget: float | None = None,
        gain_error_threshold: float | None = None,
        calibration_error_threshold: float | None = None,
        verify_error_budget: float | None = None,
        n_probes: int = 8,
        seed: int | np.random.Generator | None = None,
        attach: bool = True,
    ) -> None:
        if (
            recalibrate_after_s is None
            and reprogram_after_s is None
            and gain_error_budget is None
        ):
            raise ValueError(
                "at least one of recalibrate_after_s / reprogram_after_s "
                "/ gain_error_budget is required"
            )
        for name, value in (
            ("recalibrate_after_s", recalibrate_after_s),
            ("reprogram_after_s", reprogram_after_s),
            ("gain_error_budget", gain_error_budget),
            ("gain_error_threshold", gain_error_threshold),
            ("calibration_error_threshold", calibration_error_threshold),
            ("verify_error_budget", verify_error_budget),
        ):
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive or None")
        n_probes = check_int("n_probes", n_probes)
        self.fleet = fleet
        self.recalibrate_after_s = recalibrate_after_s
        self.reprogram_after_s = reprogram_after_s
        self.gain_error_budget = gain_error_budget
        self.gain_error_threshold = gain_error_threshold
        self.calibration_error_threshold = calibration_error_threshold
        self.verify_error_budget = verify_error_budget
        self.n_probes = n_probes
        self._rng = as_rng(seed)
        self._sweep_lock = threading.Lock()
        self.actions: list[MaintenanceAction] = []
        self._stats: dict[str, int] = {key: 0 for key in REQUIRED_STATS_KEYS}
        self._shard_predictors: dict[int, object] = {}
        if attach:
            fleet.maintenance = self

    # -- policy ----------------------------------------------------------------
    def predictor_for(self, shard):
        """The drift forecaster serving one shard (``None`` if n/a).

        Built once per shard by
        :meth:`~repro.crossbar.lifetime.DriftPredictor.from_operator`
        from the shard's own device model and target conductances;
        exact replicas have none.
        """
        key = id(shard)
        if key not in self._shard_predictors:
            from repro.crossbar.lifetime import DriftPredictor

            try:
                built = DriftPredictor.from_operator(shard)
            except (AttributeError, ValueError):
                built = None  # shard doesn't expose target conductances
            self._shard_predictors[key] = built
        return self._shard_predictors[key]

    def predicted_gain_error(self, shard) -> float | None:
        """The drift model's gain-error forecast for a shard right now.

        ``None`` when no predictor applies (exact replicas, or no
        ``gain_error_budget`` configured).  Pure model evaluation — no
        probes, no RNG, no hardware reads.
        """
        if self.gain_error_budget is None:
            return None
        if not hasattr(shard, "age_seconds"):
            return None
        predictor = self.predictor_for(shard)
        if predictor is None:
            return None
        age = float(shard.age_seconds)
        staleness = float(getattr(shard, "staleness_seconds", age))
        return predictor.gain_error(age, age - staleness)

    def due(self, shard) -> str | None:
        """The action a shard currently needs (``None`` when healthy).

        Exact replicas (without the maintenance protocol) never need
        service; physical replicas are checked against the reprogram
        threshold first, then the wall-clock calibration threshold,
        then the predictive gain-error budget (which needs no staleness
        threshold at all — the drift model decides).
        """
        if not (hasattr(shard, "calibrate") and hasattr(shard, "reprogram")):
            return None
        staleness = float(getattr(shard, "staleness_seconds", 0.0))
        if (
            self.reprogram_after_s is not None
            and staleness >= self.reprogram_after_s
        ):
            return "reprogram"
        if (
            self.recalibrate_after_s is not None
            and staleness >= self.recalibrate_after_s
        ):
            return "calibrate"
        if self.gain_error_budget is not None and staleness > 0.0:
            predicted = self.predicted_gain_error(shard)
            if predicted is not None and predicted >= self.gain_error_budget:
                return "calibrate"
        return None

    def _due_pairs(self) -> list[tuple[int, str]]:
        """``(index, action)`` for every live shard needing service.

        Retired shards are out of the maintenance rotation entirely —
        no probes, no rewrites, no new counters — which also keeps the
        lock-free pre-check in :meth:`sweep` from quiescing a fleet
        whose only stale shards are already retired.
        """
        retired = getattr(self.fleet, "retired_shards", None)
        pairs = []
        for index, shard in enumerate(self.fleet.shards):
            if retired is not None and retired[index]:
                continue
            action = self.due(shard)
            if action is not None:
                pairs.append((index, action))
        return pairs

    def sweep(self) -> list[MaintenanceAction]:
        """Service every shard that is due; returns the actions taken.

        Counter deltas caused by the service (probe conversions, probe
        and pulse counts) are captured around each shard call and
        accumulated into :attr:`stats`, so maintenance work is
        separable from serving work after the fact.

        When the fleet supports it, the service pass runs with the
        fleet quiesced (:meth:`ShardedOperator.quiesce`), so a replica
        is never calibrated or rewritten while a concurrently
        dispatched window is mid-read.  Staleness only advances through
        ``advance_time`` — never during dispatch — so the cheap
        lock-free "anything due?" pre-check cannot miss work, and a
        fleet with nothing due pays no quiescing cost.

        Sweeps are serialized: every dispatch entry point calls this
        method, so two concurrent dispatchers can both pass the
        lock-free pre-check while the same shard is due.  The service
        pass therefore runs under a sweep lock and *re-checks* the due
        state after acquiring it — the second sweeper observes the
        staleness the first one just reset and leaves without
        double-servicing (or double-logging, or double-billing) any
        shard.  The re-check is what makes the pre-check safe to keep
        lock-free on the idle fast path.
        """
        if not self._due_pairs():
            return []
        with self._sweep_lock:
            if not self._due_pairs():
                return []  # a concurrent sweeper serviced it first
            quiesce = getattr(self.fleet, "quiesce", None)
            if quiesce is None:
                return self._service_due()
            with quiesce():
                return self._service_due()

    def _reprogram_and_verify(self, index: int, shard) -> tuple[str, float | None]:
        """One rewrite, verified when a budget is set; retires on failure.

        Returns ``(action, verify_error)`` — ``"reprogram"`` when the
        rewrite verified inside the budget (or no budget is set),
        ``"retire"`` when the verify budget could not be met: stuck
        devices survive rewrites, so a shard whose verify error stays
        above budget can never be healed by reprogramming and is taken
        out of rotation.
        """
        if self.verify_error_budget is None:
            shard.reprogram()
            return "reprogram", None
        shard.reprogram(verify_probes=self.n_probes, verify_seed=self._rng)
        verify_error = float(shard.last_reprogram_error)
        if verify_error > self.verify_error_budget:
            retire = getattr(self.fleet, "retire_shard", None)
            if retire is not None:
                retire(index)
                return "retire", verify_error
        return "reprogram", verify_error

    def _service_due(self) -> list[MaintenanceAction]:
        performed: list[MaintenanceAction] = []
        for index, action in self._due_pairs():
            shard = self.fleet.shards[index]
            staleness = float(getattr(shard, "staleness_seconds", 0.0))
            before = dict(shard.stats)
            verify_error = None
            if action == "calibrate":
                gain = shard.calibrate(n_probes=self.n_probes, seed=self._rng)
                residual = getattr(shard, "last_calibration_error", None)
                escalate = (
                    self.gain_error_threshold is not None
                    and abs(gain - 1.0) > self.gain_error_threshold
                ) or (
                    self.calibration_error_threshold is not None
                    and residual is not None
                    and residual > self.calibration_error_threshold
                )
                if escalate:
                    action, verify_error = self._reprogram_and_verify(
                        index, shard
                    )
                    gain = 1.0
            else:
                action, verify_error = self._reprogram_and_verify(index, shard)
                gain = 1.0
            after = dict(shard.stats)
            for key in after.keys() | before.keys():
                delta = after.get(key, 0) - before.get(key, 0)
                if delta:
                    self._stats[key] = self._stats.get(key, 0) + delta
            performed.append(
                MaintenanceAction(
                    shard=index,
                    action=action,
                    staleness_s=staleness,
                    gain=float(gain),
                    probes=after.get("n_calibration_probes", 0)
                    - before.get("n_calibration_probes", 0),
                    pulses=after.get("n_program_pulses", 0)
                    - before.get("n_program_pulses", 0),
                    verify_error=verify_error,
                )
            )
        self.actions.extend(performed)
        return performed

    # -- accounting ------------------------------------------------------------
    @property
    def stats(self) -> dict[str, int]:
        """Counters attributable to maintenance, in ``stats`` form.

        Key-wise deltas captured around every calibrate/reprogram call,
        with the keys ``energy_from_stats`` requires always present —
        price with ``model.energy_from_stats(policy.stats)`` to get the
        maintenance share of a fleet's bill.
        """
        return dict(self._stats)

    @property
    def n_calibrations(self) -> int:
        """Calibrations performed (escalated ones count as reprograms)."""
        return sum(1 for action in self.actions if action.action == "calibrate")

    @property
    def n_reprograms(self) -> int:
        return sum(1 for action in self.actions if action.action == "reprogram")

    @property
    def n_retirements(self) -> int:
        """Shards retired after a reprogram failed its verify budget."""
        return sum(1 for action in self.actions if action.action == "retire")

    @property
    def n_calibration_probes(self) -> int:
        return sum(action.probes for action in self.actions)

    @property
    def n_program_pulses(self) -> int:
        return sum(action.pulses for action in self.actions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FleetMaintenance(recalibrate_after_s={self.recalibrate_after_s}, "
            f"reprogram_after_s={self.reprogram_after_s}, "
            f"actions={len(self.actions)})"
        )
