"""Predictive maintenance, fault escalation, and lifetime invariants.

Five contracts pin the lifetime layer:

* **forecast fidelity** — on a noiseless device the
  :class:`DriftPredictor` forecast matches the gain an actual
  calibration fits, and its inverse (``seconds_until``) lands exactly
  on the budget crossing;
* **predictive efficiency** — driving maintenance from the drift model
  instead of a wall clock achieves an equal-or-better NMSE envelope
  with strictly fewer calibration probes (the power law stretches the
  intervals geometrically; the wall clock cannot);
* **exact billing under escalation** — however deep an escalation
  chain runs (calibrate → reprogram → retire), every counter the
  maintenance policy caused is captured in ``policy.stats``: the
  fleet's total ledger splits exactly into serving plus maintenance;
* **retirement accounting** — a retired shard accumulates zero new
  counters while merged fleet stats remain the key-wise per-shard
  sums, and the fleet keeps serving until zero shards remain;
* **neutrality** — predictors are pure model evaluations and zero-rate
  injectors consume no RNG: wiring the lifetime machinery in without
  enabling it leaves every result bitwise identical.
"""

import math

import numpy as np
import pytest

from repro.crossbar import (
    CrossbarOperator,
    DenseOperator,
    DriftPredictor,
    FaultInjector,
    FleetMaintenance,
    LifetimeResult,
    LifetimeSimulator,
    ShardedOperator,
)
from repro.devices import PcmDevice
from repro.energy import CrossbarCostModel

QUIET = PcmDevice(prog_noise_sigma=0.0, read_noise_sigma=0.0)


def quiet_operator(matrix, seed=0):
    """A drift-only operator: no noise, no quantization."""
    return CrossbarOperator(
        matrix, device=QUIET, dac_bits=None, adc_bits=None, seed=seed
    )


class TestDriftPredictor:
    def test_forecast_matches_the_fitted_gain(self, rng):
        matrix = rng.standard_normal((16, 24))
        predictor = DriftPredictor.from_operator(quiet_operator(matrix))
        for age in (1e3, 1e5, 1e7):
            op = quiet_operator(matrix)
            op.advance_time(age)
            fitted = op.calibrate(n_probes=16, seed=2)
            # calibrate fits 1/s (it undoes the drift scale)
            assert fitted == pytest.approx(
                1.0 / predictor.drift_scale(age), rel=0.01
            )

    def test_scale_is_one_fresh_and_decays_monotonically(self, rng):
        predictor = DriftPredictor.from_operator(
            quiet_operator(rng.standard_normal((8, 8)))
        )
        assert predictor.drift_scale(0.0) == pytest.approx(1.0)
        ages = [10.0**k for k in range(0, 8)]
        scales = [predictor.drift_scale(age) for age in ages]
        assert all(a > b for a, b in zip(scales, scales[1:]))
        errors = [predictor.gain_error(age) for age in ages]
        assert all(a < b for a, b in zip(errors, errors[1:]))

    def test_seconds_until_inverts_gain_error(self, rng):
        predictor = DriftPredictor.from_operator(
            quiet_operator(rng.standard_normal((8, 8)))
        )
        budget = 0.01
        wait = predictor.seconds_until(budget, age_seconds=100.0)
        assert 0.0 < wait < math.inf
        crossed = predictor.gain_error(100.0 + wait, calibrated_at_s=100.0)
        assert crossed == pytest.approx(budget, rel=1e-6)
        # already over budget -> due immediately
        far = 100.0 + 2 * wait
        assert predictor.seconds_until(budget, far, calibrated_at_s=100.0) == 0.0

    def test_intervals_stretch_geometrically(self, rng):
        predictor = DriftPredictor.from_operator(
            quiet_operator(rng.standard_normal((8, 8)))
        )
        age, intervals = 0.0, []
        for _ in range(6):
            wait = predictor.seconds_until(0.01, age_seconds=age)
            intervals.append(wait)
            age += wait
        ratios = [b / a for a, b in zip(intervals, intervals[1:])]
        assert all(ratio > 1.2 for ratio in ratios)  # power law, not linear
        assert max(ratios) - min(ratios) < 0.1  # ~constant stretch factor

    def test_driftless_device_never_needs_calibration(self):
        predictor = DriftPredictor(
            PcmDevice.ideal(), np.full(16, 5e-6), np.full(16, 1e-6)
        )
        assert predictor.gain_error(1e9) == 0.0
        assert predictor.seconds_until(0.01) == math.inf

    def test_validation(self, rng):
        op = quiet_operator(rng.standard_normal((4, 4)))
        predictor = DriftPredictor.from_operator(op)
        with pytest.raises(ValueError, match="finite non-negative"):
            predictor.drift_scale(-1.0)
        with pytest.raises(ValueError, match="cannot exceed"):
            predictor.gain_error(10.0, calibrated_at_s=20.0)
        with pytest.raises(ValueError, match="identically zero"):
            DriftPredictor(QUIET, np.full(4, 5e-6), np.full(4, 5e-6))
        with pytest.raises(ValueError, match="same size"):
            DriftPredictor(QUIET, np.ones(3), np.ones(4))

    def test_subsampled_forecast_tracks_the_full_one(self, rng):
        # 6,144 pairs, above the 4,096-pair ceiling: the forecast runs on
        # an even subsample and must track the all-pairs projection
        op = quiet_operator(rng.standard_normal((64, 96)))
        predictor = DriftPredictor.from_operator(op)
        pair = op._tiles[(0, 0)]
        g_pos = pair.positive.g_target.ravel()
        g_neg = pair.negative.g_target.ravel()
        assert predictor._diff.size <= 4096 < g_pos.size
        diff = g_pos - g_neg
        for age in (1e3, 1e6):
            drifted = g_pos * QUIET.drift_factors(
                g_pos, age
            ) - g_neg * QUIET.drift_factors(g_neg, age)
            full = float(drifted @ diff) / float(diff @ diff)
            assert predictor.drift_scale(age) == pytest.approx(full, rel=0.02)

    @pytest.mark.parametrize(
        "device",
        [PcmDevice(), QUIET, PcmDevice(drift_nu=0.0)],
        ids=["default", "quiet", "driftless"],
    )
    def test_forecast_is_the_drift_factors_law_bit_for_bit(self, device, rng):
        g_pos = rng.uniform(device.g_min, device.g_max, 48)
        g_neg = rng.uniform(device.g_min, device.g_max, 48)
        predictor = DriftPredictor(device, g_pos, g_neg)
        diff = g_pos - g_neg
        for age in (0.0, 0.5, 1.0, 1e3, 1e5, 1e7, 1e9, 3.2e9):
            drifted = g_pos * device.drift_factors(
                g_pos, age
            ) - g_neg * device.drift_factors(g_neg, age)
            law = float(drifted @ diff) / float(diff @ diff)
            assert predictor.drift_scale(age) == law

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("half", ["g_pos", "g_neg"])
    def test_rejects_non_finite_targets(self, half, bad):
        targets = {
            "g_pos": np.array([5e-6, 4e-6, 1e-6]),
            "g_neg": np.array([1e-6, 2e-6, 3e-6]),
        }
        targets[half][1] = bad
        with pytest.raises(ValueError, match=f"{half} must be finite"):
            DriftPredictor(PcmDevice(), targets["g_pos"], targets["g_neg"])

    def test_rejects_empty_targets(self):
        with pytest.raises(ValueError, match="at least one device pair"):
            DriftPredictor(QUIET, np.ones(0), np.ones(0))

    def test_from_operator_rejects_exact_replicas(self, rng):
        with pytest.raises(AttributeError):
            DriftPredictor.from_operator(DenseOperator(rng.standard_normal((4, 4))))

    def test_subsample_is_deterministic_and_spares_small_arrays(self, rng):
        op = quiet_operator(rng.standard_normal((64, 96)))
        first = DriftPredictor.from_operator(op)
        second = DriftPredictor.from_operator(op)
        assert first._diff.size <= 4096 < 64 * 96
        assert np.array_equal(first._diff, second._diff)
        assert first.drift_scale(1e5) == second.drift_scale(1e5)
        # an array below the ceiling keeps every pair
        small = DriftPredictor.from_operator(
            quiet_operator(rng.standard_normal((32, 48)))
        )
        assert small._diff.size == 32 * 48

    def test_a_fit_leaves_no_error_at_its_own_age(self, rng):
        predictor = DriftPredictor.from_operator(
            quiet_operator(rng.standard_normal((8, 8)))
        )
        for age in (0.0, 1e3, 1e7):
            assert predictor.gain_error(age, calibrated_at_s=age) == 0.0

    def test_seconds_until_gives_up_past_the_horizon(self, rng):
        predictor = DriftPredictor.from_operator(
            quiet_operator(rng.standard_normal((8, 8)))
        )
        assert math.isfinite(predictor.seconds_until(0.05))
        # ~100 years of power-law drift stays far short of a 50 % error
        assert predictor.gain_error(3.2e9) < 0.5
        assert predictor.seconds_until(0.5) == math.inf

    def test_construction_touches_no_counters_or_rng(self, rng):
        matrix = rng.standard_normal((8, 12))
        op = quiet_operator(matrix, seed=7)
        twin = quiet_operator(matrix, seed=7)
        predictor = DriftPredictor.from_operator(op)
        predictor.gain_error(1e6)
        assert op.stats == twin.stats
        x = rng.standard_normal(12)
        assert np.array_equal(op.matvec(x), twin.matvec(x))


class TestPredictiveMaintenance:
    def drifting_fleet(self, matrix, **policy_kwargs):
        fleet = ShardedOperator.from_matrix(
            matrix, n_shards=2, batch_window=4, seed=5, stream="per_shard",
            device=QUIET, dac_bits=None, adc_bits=None,
        )
        policy = FleetMaintenance(fleet, n_probes=4, seed=6, **policy_kwargs)
        return fleet, policy

    def serve(self, fleet, matrix, rng, steps=40, step_s=2e4):
        worst = 0.0
        for _ in range(steps):
            fleet.advance_time(step_s)
            block = rng.standard_normal((matrix.shape[1], 8))
            out = fleet.matmat(block)
            ref = matrix @ block
            worst = max(worst, float(np.sum((out - ref) ** 2) / np.sum(ref**2)))
        return worst

    def test_predictive_beats_wall_clock_probe_for_probe(self):
        matrix = np.random.default_rng(0).standard_normal((12, 16))
        wall_fleet, wall = self.drifting_fleet(
            matrix, recalibrate_after_s=4e4
        )
        pred_fleet, pred = self.drifting_fleet(
            matrix, gain_error_budget=0.02
        )
        wall_nmse = self.serve(
            wall_fleet, matrix, np.random.default_rng(1)
        )
        pred_nmse = self.serve(
            pred_fleet, matrix, np.random.default_rng(1)
        )
        # equal-or-better envelope with strictly fewer probes
        assert pred_nmse <= wall_nmse * 1.05
        assert pred.n_calibration_probes < 0.8 * wall.n_calibration_probes
        assert pred.n_calibrations >= 1

    def test_due_uses_the_forecast_without_probing(self):
        matrix = np.random.default_rng(0).standard_normal((8, 12))
        fleet, policy = self.drifting_fleet(matrix, gain_error_budget=0.02)
        shard = fleet.shards[0]
        assert policy.due(shard) is None  # fresh: nothing predicted
        fleet.advance_time(1e5)
        assert policy.predicted_gain_error(shard) > 0.02
        assert policy.due(shard) == "calibrate"
        assert shard.n_calibration_probes == 0  # forecasting is free

    def test_exact_shards_have_no_forecast(self):
        matrix = np.random.default_rng(0).standard_normal((6, 8))
        fleet = ShardedOperator.from_matrix(
            matrix, n_shards=2, batch_window=4, backend="exact"
        )
        policy = FleetMaintenance(fleet, gain_error_budget=0.02, attach=False)
        assert policy.predicted_gain_error(fleet.shards[0]) is None
        assert policy.due(fleet.shards[0]) is None


class TestEscalationBilling:
    def faulty_fleet(self, rng, rate=1 / 4e5):
        matrix = rng.standard_normal((12, 16))
        fleet = ShardedOperator.from_matrix(
            matrix, n_shards=3, batch_window=4, seed=3, stream="per_shard"
        )
        policy = FleetMaintenance(
            fleet,
            gain_error_budget=0.02,
            calibration_error_threshold=0.3,
            verify_error_budget=0.2,
            n_probes=4,
            seed=4,
        )
        injector = FaultInjector(
            fleet, rate_per_s=rate, fraction_per_event=1e-2, seed=5
        )
        return matrix, fleet, policy, injector

    def test_billing_is_exact_under_escalation_chains(self, rng):
        matrix, fleet, policy, injector = self.faulty_fleet(rng)
        before = fleet.stats
        sim = LifetimeSimulator(
            fleet, injector=injector, step_seconds=2e4, batch=8, seed=6
        )
        sim.run(30)
        after = fleet.stats
        # every escalation rung was exercised at least once
        kinds = {action.action for action in policy.actions}
        assert "calibrate" in kinds and "retire" in kinds
        # maintenance-only counters: the policy ledger captures ALL of it
        for key in ("n_calibrations", "n_calibration_probes",
                    "n_reprograms", "n_program_pulses"):
            fleet_delta = after.get(key, 0) - before.get(key, 0)
            assert policy.stats.get(key, 0) == fleet_delta
        # per-action probe/pulse sums agree with the same ledger
        assert policy.n_calibration_probes == policy.stats["n_calibration_probes"]
        assert policy.n_program_pulses == policy.stats["n_program_pulses"]
        # the energy split is exact: serving + maintenance == total
        model = CrossbarCostModel(rows=16, cols=12, devices_per_cell=2)
        total = model.energy_from_stats(after)["total_energy_j"]
        maintenance = model.energy_from_stats(policy.stats)["total_energy_j"]
        serving = {
            key: after.get(key, 0) - policy.stats.get(key, 0)
            for key in after
        }
        assert total == pytest.approx(
            maintenance + model.energy_from_stats(serving)["total_energy_j"],
            rel=1e-12,
        )

    def test_retired_shards_freeze_but_still_merge(self, rng):
        matrix, fleet, policy, injector = self.faulty_fleet(rng)
        sim = LifetimeSimulator(
            fleet, injector=injector, step_seconds=2e4, batch=8, seed=6
        )
        result = sim.run(30)
        assert result.retirements, "scenario must retire at least one shard"
        retired_index = result.retirements[0][1]
        frozen = dict(fleet.shards[retired_index].stats)
        # keep serving and maintaining the survivors
        more = LifetimeSimulator(fleet, step_seconds=2e4, batch=8, seed=7)
        more.run(10)
        assert dict(fleet.shards[retired_index].stats) == frozen
        merged = fleet.stats
        for key in merged:
            assert merged[key] == sum(
                shard.stats.get(key, 0) for shard in fleet.shards
            )


class TestFaultInjector:
    def test_exact_replicas_receive_no_faults(self, rng):
        matrix = rng.standard_normal((8, 12))
        fleet = ShardedOperator(
            [DenseOperator(matrix), CrossbarOperator(matrix, seed=0)],
            batch_window=4,
        )
        events = FaultInjector(fleet, rate_per_s=0.05, seed=1).advance(100.0)
        assert events and {event.shard for event in events} == {1}

    def test_retired_shards_receive_no_faults(self, rng):
        fleet = ShardedOperator.from_matrix(
            rng.standard_normal((8, 12)), n_shards=2, batch_window=4, seed=1
        )
        fleet.retire_shard(0)
        events = FaultInjector(fleet, rate_per_s=0.05, seed=2).advance(100.0)
        assert events and {event.shard for event in events} == {1}
        assert fleet.shards[0].stuck_fraction == 0.0

    def test_fault_load_accumulates_across_events(self, rng):
        fleet = ShardedOperator.from_matrix(
            rng.standard_normal((8, 12)), n_shards=1, batch_window=4, seed=3
        )
        shard = fleet.shards[0]
        injector = FaultInjector(
            fleet, rate_per_s=0.05, fraction_per_event=0.05, seed=4
        )
        events = []
        for _ in range(3):
            events.extend(injector.advance(50.0))
        fractions = [event.stuck_fraction for event in events]
        assert len(fractions) >= 2
        assert all(a <= b for a, b in zip(fractions, fractions[1:]))
        assert fractions[-1] == shard.stuck_fraction > 0.0
        # repeat draws may land on stuck devices: the union is no larger
        drawn = sum(event.n_faults for event in events)
        assert drawn >= round(shard.stuck_fraction * shard.n_devices)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_advance_validates_before_the_clock_moves(self, bad, rng):
        fleet = ShardedOperator.from_matrix(
            rng.standard_normal((4, 6)), n_shards=1, batch_window=4, seed=5
        )
        injector = FaultInjector(fleet, rate_per_s=0.05, seed=6)
        injector.advance(10.0)
        with pytest.raises(ValueError, match="seconds"):
            injector.advance(bad)
        assert injector.time_s == 10.0

    def test_zero_length_interval_draws_nothing(self, rng):
        """``advance(0)`` has no arrivals and consumes no RNG: the fault
        history matches a twin that never made the call."""
        matrix = rng.standard_normal((8, 12))

        def history(with_pause):
            fleet = ShardedOperator.from_matrix(
                matrix, n_shards=2, batch_window=4, seed=7
            )
            injector = FaultInjector(fleet, rate_per_s=0.05, seed=8)
            if with_pause:
                assert injector.advance(0.0) == []
            return injector.advance(100.0)

        paused = history(True)
        assert paused and paused == history(False)


class TestLifetimeResult:
    def test_empty_result_is_available_with_no_envelope(self):
        result = LifetimeResult(step_seconds=60.0)
        assert result.availability == 1.0
        assert math.isnan(result.nmse_envelope)
        assert result.served == [] and result.time_s == []
        assert result.nmse == []


class TestLifetimeSimulator:
    def test_fault_free_life_is_fully_available(self, rng):
        matrix = rng.standard_normal((8, 12))
        fleet = ShardedOperator.from_matrix(
            matrix, n_shards=2, batch_window=4, seed=1, stream="per_shard"
        )
        FleetMaintenance(fleet, gain_error_budget=0.02, n_probes=4, seed=2)
        result = LifetimeSimulator(
            fleet, step_seconds=2e4, batch=8, seed=3
        ).run(20)
        assert result.availability == 1.0
        assert result.retirements == []
        assert result.active_shards == [2] * 20
        assert math.isfinite(result.nmse_envelope)
        assert fleet.maintenance.n_calibrations >= 1

    def test_total_fleet_loss_shows_as_unavailability(self, rng):
        matrix = rng.standard_normal((8, 12))
        fleet = ShardedOperator.from_matrix(
            matrix, n_shards=2, batch_window=4, seed=1, stream="per_shard"
        )
        FleetMaintenance(
            fleet,
            recalibrate_after_s=1e4,
            calibration_error_threshold=0.3,
            verify_error_budget=0.2,
            n_probes=4,
            seed=2,
        )
        # saturating fault rate: every shard is ruined almost at once
        injector = FaultInjector(
            fleet, rate_per_s=1e-3, fraction_per_event=0.05, seed=4
        )
        result = LifetimeSimulator(
            fleet, injector=injector, step_seconds=2e4, batch=8, seed=3
        ).run(10)
        assert len(result.retirements) == 2
        assert result.availability < 1.0
        assert result.active_shards[-1] == 0
        # unserved steps record NaN, never a crash
        assert any(math.isnan(value) for value in result.nmse)

    def test_a_step_lists_its_retirements_in_shard_order(self, rng):
        fleet = ShardedOperator.from_matrix(
            rng.standard_normal((8, 12)), n_shards=3, batch_window=4, seed=1,
            stream="per_shard",
        )
        # every reprogram misses an unreachable verify budget: the first
        # step's one sweep retires the whole fleet
        policy = FleetMaintenance(
            fleet, reprogram_after_s=1.0, verify_error_budget=1e-12,
            n_probes=4, seed=2,
        )
        result = LifetimeSimulator(
            fleet, step_seconds=10.0, batch=8, seed=3
        ).run(2)
        assert result.retirements == [(0, 0), (0, 1), (0, 2)]
        assert [
            action.shard for action in policy.actions if action.action == "retire"
        ] == [0, 1, 2]
        assert result.served == [False, False]

    def test_zero_rate_injector_is_bitwise_neutral(self, rng):
        matrix = rng.standard_normal((8, 12))

        def build(with_injector):
            fleet = ShardedOperator.from_matrix(
                matrix, n_shards=2, batch_window=4, seed=1, stream="per_shard"
            )
            injector = (
                FaultInjector(fleet, rate_per_s=0.0, seed=9)
                if with_injector
                else None
            )
            sim = LifetimeSimulator(
                fleet, injector=injector, step_seconds=2e4, batch=8, seed=3
            )
            return sim.run(8)

        bare, wired = build(False), build(True)
        assert wired.fault_events == []
        assert bare.nmse == wired.nmse  # bitwise: same floats, same RNG

    def test_validation(self, rng):
        matrix = rng.standard_normal((4, 6))
        fleet = ShardedOperator.from_matrix(
            matrix, n_shards=1, batch_window=4, backend="exact"
        )
        for bad in (0.0, float("inf")):
            with pytest.raises(ValueError, match="step_seconds"):
                LifetimeSimulator(fleet, step_seconds=bad)
        for bad in (0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="batch"):
                LifetimeSimulator(fleet, batch=bad)
            with pytest.raises(ValueError, match="n_steps"):
                LifetimeSimulator(fleet).run(bad)
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="rate_per_s"):
                FaultInjector(fleet, rate_per_s=bad)
        with pytest.raises(ValueError, match="fraction_per_event"):
            FaultInjector(fleet, rate_per_s=0.0, fraction_per_event=0.0)

    def test_default_batch_is_one_window_per_shard(self, rng):
        fleet = ShardedOperator.from_matrix(
            rng.standard_normal((4, 6)), n_shards=3, batch_window=5,
            backend="exact",
        )
        assert LifetimeSimulator(fleet).batch == 15

    def test_time_axis_counts_whole_steps(self, rng):
        fleet = ShardedOperator.from_matrix(
            rng.standard_normal((4, 6)), n_shards=2, batch_window=2,
            backend="exact",
        )
        result = LifetimeSimulator(fleet, step_seconds=30.0, seed=1).run(3)
        assert result.time_s == [30.0, 60.0, 90.0]
        assert result.served == [True] * 3
        assert result.active_shards == [2] * 3
        assert len(result.served) * result.step_seconds == 90.0

    def test_zero_matrix_scores_zero_error(self):
        fleet = ShardedOperator.from_matrix(
            np.zeros((4, 6)), n_shards=1, batch_window=2, backend="exact"
        )
        result = LifetimeSimulator(fleet, step_seconds=1.0, seed=2).run(2)
        assert result.nmse == [0.0, 0.0]  # no signal power, no division

    def test_fault_clock_moves_only_after_the_arrivals_are_drawn(self, rng):
        class BrokenShard(DenseOperator):
            def inject_stuck_faults(self, fraction, seed):
                raise RuntimeError("fault draw failed")

        fleet = ShardedOperator(
            [BrokenShard(rng.standard_normal((4, 6)))], batch_window=4
        )
        injector = FaultInjector(fleet, rate_per_s=1.0, seed=0)
        with pytest.raises(RuntimeError, match="fault draw failed"):
            injector.advance(100.0)
        assert injector.time_s == 0.0

    def test_fault_events_carry_the_interval_end_time(self, rng):
        fleet = ShardedOperator.from_matrix(
            rng.standard_normal((4, 6)), n_shards=2, batch_window=4, seed=1
        )
        injector = FaultInjector(fleet, rate_per_s=0.05, seed=2)
        injector.advance(30.0)
        new = injector.advance(70.0)
        assert injector.time_s == 100.0
        assert new and all(event.time_s == 100.0 for event in new)
