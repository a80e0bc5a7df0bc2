"""Predictive fault-aware fleet lifetime: drift forecasting, yield
faults as a stochastic process, and a whole-life fleet simulation.

Three pieces close the loop the maintenance layer opened:

* :class:`DriftPredictor` inverts the device drift law
  (:meth:`~repro.devices.PcmDevice.drift_factors`) to *forecast* the
  scalar gain error a drifting array will have accumulated at any
  future age — no probes, no RNG, no hardware reads.  Because PCM
  drift is a power law, the time between successive budget crossings
  stretches geometrically with age: a predictor-driven policy
  recalibrates densely in early life (where a fixed wall clock is too
  slow and eats a drift cliff) and sparsely late (where the wall clock
  keeps probing at the early-life cadence forever).  Same NMSE
  envelope, far fewer probes.
* :class:`FaultInjector` turns the one-shot stuck-fault ablation into
  a lifetime process: yield/endurance failures arrive per shard as a
  Poisson process, each event sticking a small random device fraction
  at RESET/SET (:meth:`~repro.crossbar.CrossbarOperator.inject_stuck_faults`,
  whose faults compose across events and survive rewrites).
* :class:`LifetimeSimulator` drives a sharded fleet through weeks of
  simulated mixed traffic — drift, fault arrivals, maintenance sweeps,
  escalation and retirement — and records the availability, NMSE
  envelope, and maintenance ledger that the lifetime benchmark gates.

The forecast is a pure function of the *target* conductances and the
device model, both known at deployment time: the predictor never
touches the live array state, so attaching one changes no RNG draw and
no counter anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro._util import (
    as_rng, check_elapsed, check_finite, check_int, check_nonnegative, check_positive
)
from repro.devices import PcmDevice

__all__ = [
    "DriftPredictor",
    "FaultEvent",
    "FaultInjector",
    "LifetimeResult",
    "LifetimeSimulator",
]

# The forecast runs on an even subsample of at most this many device
# pairs: the scalar projection converges fast, so a few thousand pairs
# forecast a million-device array.
_MAX_PAIRS = 4096

# ``seconds_until`` gives up (returns ``inf``) past ~100 years: drift
# has a finite power-law ceiling, so some budgets are never reached.
_HORIZON_S = 3.2e9


class DriftPredictor:
    """Forecast the scalar gain drift of a differential PCM array.

    The calibration layer fits one digital gain against the stored
    target; to first order the drifted array's output is the target
    output scaled by

    ``s(t) = <d(t), d> / <d, d>``,

    the least-squares projection of the drifted differential
    conductances ``d(t) = g+(t) - g-(t)`` onto the programmed target
    ``d = g+ - g-``.  Both decay laws are known in closed form
    (:meth:`PcmDevice.drift_factors`), so ``s(t)`` — and therefore the
    residual gain error left by a calibration performed at age ``a0``
    and still in effect at age ``a1``, ``|s(a1) / s(a0) - 1|`` — can be
    evaluated without probing the hardware.

    Parameters
    ----------
    device:
        The PCM device model whose drift law is inverted.
    g_pos, g_neg:
        Target conductances of the positive and negative differential
        halves (any shape; flattened).  These are deployment-time
        constants — the predictor models the *target* state, not the
        noisy programmed state, which is exactly what makes it free.
        Arrays of more than 4,096 pairs are forecast on an even
        subsample of 4,096.  NaN or inf targets raise ``ValueError``.
    """

    def __init__(
        self, device: PcmDevice, g_pos: np.ndarray, g_neg: np.ndarray
    ) -> None:
        g_pos = check_finite("g_pos", np.asarray(g_pos, dtype=float).ravel())
        g_neg = check_finite("g_neg", np.asarray(g_neg, dtype=float).ravel())
        if g_pos.shape != g_neg.shape:
            raise ValueError("g_pos and g_neg must have the same size")
        if g_pos.size == 0:
            raise ValueError("at least one device pair is required")
        if g_pos.size > _MAX_PAIRS:
            # Even deterministic stride: same subsample every build.
            stride = -(-g_pos.size // _MAX_PAIRS)
            g_pos = g_pos[::stride]
            g_neg = g_neg[::stride]
        self.device = device
        self._g_pos = g_pos
        self._g_neg = g_neg
        # Per-device exponents -nu(g) of the drift law: the targets are
        # constants, so each forecast costs one pow per half.
        self._exponents_pos = device.drift_exponents(g_pos)
        self._exponents_neg = device.drift_exponents(g_neg)
        self._diff = g_pos - g_neg
        self._norm = float(self._diff @ self._diff)
        if self._norm == 0.0:
            raise ValueError(
                "differential target is identically zero; nothing to forecast"
            )

    @classmethod
    def from_operator(cls, operator) -> "DriftPredictor":
        """Build the forecaster for a :class:`CrossbarOperator`.

        Reads the per-tile differential *target* conductances (fixed at
        deployment) and the operator's device model; raises
        ``AttributeError`` for shards without physical tiles (e.g.
        :class:`DenseOperator` baselines, which never drift).
        """
        tiles = operator._tiles  # AttributeError for exact replicas
        g_pos = np.concatenate(
            [pair.positive.g_target.ravel() for pair in tiles.values()]
        )
        g_neg = np.concatenate(
            [pair.negative.g_target.ravel() for pair in tiles.values()]
        )
        return cls(operator.device, g_pos, g_neg)

    def drift_scale(self, age_seconds: float) -> float:
        """The scalar output gain ``s(age)`` drift has applied by now.

        1.0 at age zero; decays toward the power-law floor as the
        amorphous-dominated states relax.
        """
        age_seconds = check_elapsed("age_seconds", age_seconds)
        time_factor = self.device.drift_time_factor(age_seconds)
        drifted = np.power(time_factor, self._exponents_pos) * self._g_pos
        drifted -= np.power(time_factor, self._exponents_neg) * self._g_neg
        return float(drifted @ self._diff) / self._norm

    def gain_error(self, age_seconds: float, calibrated_at_s: float = 0.0) -> float:
        """Residual gain error now, given the last gain fit's age.

        A calibration at age ``a0`` fits the digital gain ``1/s(a0)``;
        still applied at age ``a1 >= a0``, the end-to-end gain is
        ``s(a1)/s(a0)`` and the forecast error ``|s(a1)/s(a0) - 1|``.
        A freshly (re)programmed, never-calibrated array is the
        ``calibrated_at_s=0`` case (``s(0) = 1``).
        """
        age_seconds = check_elapsed("age_seconds", age_seconds)
        calibrated_at_s = check_elapsed("calibrated_at_s", calibrated_at_s)
        if calibrated_at_s > age_seconds:
            raise ValueError("calibrated_at_s cannot exceed age_seconds")
        reference = self.drift_scale(calibrated_at_s)
        if reference == 0.0:
            return math.inf
        return abs(self.drift_scale(age_seconds) / reference - 1.0)

    def seconds_until(
        self,
        budget: float,
        age_seconds: float = 0.0,
        calibrated_at_s: float | None = None,
    ) -> float:
        """Seconds from now until the forecast error reaches ``budget``.

        ``age_seconds`` is the array's current age and
        ``calibrated_at_s`` the age of the gain fit in effect (default:
        calibrated right now).  The error is monotone in elapsed time,
        so the crossing is bracketed geometrically and bisected; if the
        budget is not reached within ~100 years (drift has a finite
        power-law ceiling) the answer is ``inf``: the array will *never*
        need another drift calibration.
        This is the schedule the predictive maintenance trigger walks:
        each interval is a constant factor longer than the last.
        """
        check_positive("budget", budget)
        age_seconds = check_elapsed("age_seconds", age_seconds)
        if calibrated_at_s is None:
            calibrated_at_s = age_seconds
        if self.gain_error(age_seconds, calibrated_at_s) >= budget:
            return 0.0
        step = max(float(self.device.drift_t0), 1.0)
        low, high = age_seconds, age_seconds + step
        while self.gain_error(high, calibrated_at_s) < budget:
            low, step = high, step * 2.0
            high = age_seconds + step
            if high - age_seconds > _HORIZON_S:
                return math.inf
        for _ in range(60):
            mid = 0.5 * (low + high)
            if self.gain_error(mid, calibrated_at_s) < budget:
                low = mid
            else:
                high = mid
        return high - age_seconds

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DriftPredictor(pairs={self._diff.size}, "
            f"nu={self.device.drift_nu:g})"
        )


@dataclass(frozen=True)
class FaultEvent:
    """One yield-fault arrival: when, where, and how much it stuck.

    ``n_faults`` counts this event's newly drawn devices;
    ``stuck_fraction`` is the shard's *accumulated* fault load
    afterwards (repeat injections compose by union).
    """

    time_s: float
    shard: int
    n_faults: int
    stuck_fraction: float


class FaultInjector:
    """Poisson-arriving stuck-device faults across a fleet's lifetime.

    Each shard independently suffers fault events at ``rate_per_s``
    (expected events per shard-second); each event sticks a random
    ``fraction_per_event`` of the shard's devices at RESET or SET (each
    device picks one at random) via
    :meth:`~repro.crossbar.CrossbarOperator.inject_stuck_faults` —
    permanent, composing, rewrite-surviving.  Retired shards and
    fault-free exact replicas are skipped.  A zero-rate injector
    consumes no RNG, so wiring one in and leaving it off is bitwise
    neutral.

    Parameters
    ----------
    fleet:
        The :class:`~repro.crossbar.ShardedOperator` under test.
    rate_per_s:
        Expected fault events per shard per simulated second.
    fraction_per_event:
        Device fraction stuck by one event, in ``(0, 1]``.
    seed:
        RNG seed or generator for arrival counts and fault draws.
    """

    def __init__(
        self,
        fleet,
        rate_per_s: float,
        fraction_per_event: float = 1e-3,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        check_nonnegative("rate_per_s", rate_per_s)
        if not 0.0 < fraction_per_event <= 1.0:
            raise ValueError("fraction_per_event must be in (0, 1]")
        self.fleet = fleet
        self.rate_per_s = float(rate_per_s)
        self.fraction_per_event = float(fraction_per_event)
        self._rng = as_rng(seed)
        self.time_s = 0.0

    def advance(self, seconds: float) -> list[FaultEvent]:
        """Advance the fault clock; inject this interval's arrivals.

        Returns the interval's events; the injector keeps no history
        (:class:`LifetimeResult` collects a simulated life's events).
        Call alongside ``fleet.advance_time`` so the fault clock and
        the drift clocks stay in step.  The clock moves only once the
        interval's arrivals are drawn, so a failed draw leaves it where
        it was.
        """
        seconds = check_elapsed("seconds", seconds)
        end_s = self.time_s + seconds
        expected = self.rate_per_s * seconds
        if expected == 0.0:
            self.time_s = end_s
            return []
        new: list[FaultEvent] = []
        retired = getattr(self.fleet, "retired_shards", None)
        for index, shard in enumerate(self.fleet.shards):
            if retired is not None and retired[index]:
                continue
            if not hasattr(shard, "inject_stuck_faults"):
                continue
            for _ in range(int(self._rng.poisson(expected))):
                count = shard.inject_stuck_faults(
                    self.fraction_per_event, seed=self._rng
                )
                new.append(
                    FaultEvent(
                        time_s=end_s,
                        shard=index,
                        n_faults=int(count),
                        stuck_fraction=float(shard.stuck_fraction),
                    )
                )
        self.time_s = end_s
        return new

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultInjector(rate_per_s={self.rate_per_s:g}, "
            f"time_s={self.time_s:g})"
        )


@dataclass
class LifetimeResult:
    """Per-step telemetry of one simulated fleet lifetime.

    One entry per step in each list; ``nmse`` is ``NaN`` for steps the
    fleet could not serve (all shards retired).  ``retirements`` pairs
    each retired shard with the step that retired it.
    """

    step_seconds: float
    time_s: list[float] = field(default_factory=list)
    nmse: list[float] = field(default_factory=list)
    served: list[bool] = field(default_factory=list)
    active_shards: list[int] = field(default_factory=list)
    retirements: list[tuple[int, int]] = field(default_factory=list)
    fault_events: list[FaultEvent] = field(default_factory=list)

    @property
    def availability(self) -> float:
        """Fraction of dispatch windows the fleet served."""
        if not self.served:
            return 1.0
        return sum(self.served) / len(self.served)

    @property
    def nmse_envelope(self) -> float:
        """Worst served-step NMSE over the whole lifetime."""
        values = [value for value in self.nmse if not math.isnan(value)]
        return max(values) if values else math.nan


class LifetimeSimulator:
    """Drive a fleet through a simulated service life of mixed traffic.

    Each step advances the drift clocks by ``step_seconds``, lets the
    fault process deliver its arrivals, then dispatches one random
    traffic block through the fleet (which gives the attached
    :class:`~repro.crossbar.maintenance.FleetMaintenance` policy its
    between-dispatch sweep — calibrations, escalations and retirements
    happen exactly where they would in production).  The step records
    the block NMSE against the exact product, whether the fleet could
    serve at all, and the live shard count.

    Parameters
    ----------
    fleet:
        The :class:`~repro.crossbar.ShardedOperator` to exercise; its
        attached maintenance policy (if any) runs inside dispatch.
    injector:
        Optional :class:`FaultInjector`; ``None`` simulates a
        fault-free (drift-only) life.
    step_seconds:
        Simulated seconds per step.
    batch:
        Traffic columns per step (default: one full window per shard).
    seed:
        RNG for the traffic blocks (independent of device RNG).
    """

    def __init__(
        self,
        fleet,
        injector: FaultInjector | None = None,
        step_seconds: float = 3600.0,
        batch: int | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        check_positive("step_seconds", step_seconds)
        if batch is None:
            batch = fleet.batch_window * len(fleet.shards)
        self.fleet = fleet
        self.injector = injector
        self.step_seconds = float(step_seconds)
        self.batch = check_int("batch", batch)
        self._rng = as_rng(seed)

    def run(self, n_steps: int) -> LifetimeResult:
        """Simulate ``n_steps`` service steps; returns the telemetry."""
        n_steps = check_int("n_steps", n_steps)
        result = LifetimeResult(step_seconds=self.step_seconds)
        matrix = self.fleet.matrix
        n = matrix.shape[1]
        for step in range(n_steps):
            self.fleet.advance_time(self.step_seconds)
            if self.injector is not None:
                result.fault_events.extend(self.injector.advance(self.step_seconds))
            block = self._rng.standard_normal((n, self.batch))
            retired_before = self.fleet.retired_shards
            try:
                observed = self.fleet.matmat(block)
                served = True
            except RuntimeError:
                observed = None
                served = False
            # A step's one sweep retires shards in shard order, so the
            # flags that flipped list them in retirement order.
            for shard, (before, after) in enumerate(
                zip(retired_before, self.fleet.retired_shards)
            ):
                if after and not before:
                    result.retirements.append((step, shard))
            if served:
                reference = matrix @ block
                power = float(np.sum(reference**2))
                nmse = (
                    float(np.sum((observed - reference) ** 2)) / power
                    if power > 0.0
                    else 0.0
                )
            else:
                nmse = math.nan
            result.time_s.append((step + 1) * self.step_seconds)
            result.nmse.append(nmse)
            result.served.append(served)
            result.active_shards.append(self.fleet.n_active_shards)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LifetimeSimulator(step_seconds={self.step_seconds:g}, "
            f"batch={self.batch})"
        )
