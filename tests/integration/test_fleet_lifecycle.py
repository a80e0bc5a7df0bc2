"""Lifecycle invariants of the ageing sharded fleet.

Three contracts make the fleet lifecycle layer safe to deploy on top of
the window scheduler:

* **neutral ageing** — ageing a fleet of drift-free devices, or
  attaching a maintenance policy that never acts, is *bitwise*
  invisible: same results, loads and counters as the fresh plain
  fleet, because ideal devices do not drift and an idle policy
  consumes no RNG;
* **restoration** — recalibrating a drifted fleet brings the AMP-fleet
  NMSE back inside the fresh-fleet envelope, while the stale twin stays
  far outside it;
* **counter fidelity** — merged fleet ``stats`` equal the key-wise sum
  of ``shard_stats`` *including* the new calibration/programming
  counters, under each schedule, and the maintenance policy's counter
  deltas split the fleet bill exactly into serving plus maintenance.
"""

import numpy as np
import pytest

from repro.crossbar import (
    CrossbarOperator,
    DenseOperator,
    DriftPredictor,
    FleetMaintenance,
    ShardedOperator,
)
from repro.devices import PcmDevice
from repro.energy import CrossbarCostModel
from repro.signal import CsProblem, amp_recover_batch

COUNTER_KEYS = (
    "n_matvec",
    "n_rmatvec",
    "n_live_matvec",
    "n_live_rmatvec",
    "dac_conversions",
    "adc_conversions",
)
LIFECYCLE_KEYS = (
    "n_calibrations",
    "n_calibration_probes",
    "n_reprograms",
    "n_program_pulses",
)

GRID = [
    (1, 4, 8),
    (2, 3, 8),
    (3, 5, 4),
    (4, 2, 7),
]


def counters(operator):
    stats = operator.stats
    return {key: stats[key] for key in COUNTER_KEYS if key in stats}


class TestEqualAgeEquivalence:
    """Invariant (a): ageing an ideal fleet or idling a policy changes
    no result, load or counter."""

    @pytest.mark.parametrize("shards,window,batch", GRID)
    def test_aged_ideal_fleet_matches_fresh_greedy_bitwise(
        self, shards, window, batch, rng
    ):
        matrix = rng.standard_normal((18, 30))
        x_block = rng.standard_normal((30, batch))
        z_block = rng.standard_normal((18, batch))
        fresh, aged = (
            ShardedOperator.from_matrix(
                matrix,
                n_shards=shards,
                batch_window=window,
                schedule="greedy",
                device=PcmDevice.ideal(),
                seed=0,
            )
            for _ in range(2)
        )
        aged.advance_time(1e6)  # every shard equally stale
        assert aged.shard_ages == tuple([1e6] * shards)
        assert np.array_equal(aged.matmat(x_block), fresh.matmat(x_block))
        assert np.array_equal(aged.rmatmat(z_block), fresh.rmatmat(z_block))
        assert aged.loads == fresh.loads
        assert counters(aged) == counters(fresh)

    def test_attached_idle_maintenance_is_bitwise_invisible(self, rng):
        """A policy whose thresholds are never crossed performs no work
        and consumes no RNG — bitwise invisible even on the *noisy*
        backend, where any stray draw would shift every result."""
        matrix = rng.standard_normal((12, 20))
        x_block = rng.standard_normal((20, 7))
        plain = ShardedOperator.from_matrix(
            matrix, n_shards=2, batch_window=3, seed=9
        )
        watched = ShardedOperator.from_matrix(
            matrix, n_shards=2, batch_window=3, seed=9
        )
        policy = FleetMaintenance(watched, recalibrate_after_s=1e12, seed=1)
        watched.advance_time(1e5)
        plain.advance_time(1e5)
        assert np.array_equal(watched.matmat(x_block), plain.matmat(x_block))
        assert policy.actions == []
        assert counters(watched) == counters(plain)
        merged = watched.stats
        assert all(merged[key] == 0 for key in LIFECYCLE_KEYS)


class TestRestoration:
    """Invariant (b): recalibration restores the fresh-fleet envelope."""

    @pytest.fixture(scope="class")
    def recoveries(self):
        fleet_problem = CsProblem.generate_batch(
            n=64, m=32, k=4, batch=8, seed=21
        )

        def build():
            return ShardedOperator.from_matrix(
                fleet_problem.matrix,
                n_shards=2,
                batch_window=3,
                dac_bits=8,
                adc_bits=8,
                seed=3,
            )

        kwargs = dict(iterations=20, ground_truth=fleet_problem.signals)
        fresh = build()
        fresh_result = amp_recover_batch(
            fleet_problem.measurements, fresh, 64, **kwargs
        )
        stale = build()
        stale.advance_time(1e6)
        stale_result = amp_recover_batch(
            fleet_problem.measurements, stale, 64, **kwargs
        )
        maintained = build()
        maintained.advance_time(1e6)
        policy = FleetMaintenance(
            maintained, recalibrate_after_s=1e3, n_probes=16, seed=5
        )
        maintained_result = amp_recover_batch(
            fleet_problem.measurements, maintained, 64, **kwargs
        )
        return fresh_result, stale_result, maintained_result, policy

    def test_drift_degrades_and_recalibration_restores(self, recoveries):
        fresh, stale, maintained, policy = recoveries
        fresh_mean = float(fresh.final_nmse.mean())
        stale_mean = float(stale.final_nmse.mean())
        maintained_mean = float(maintained.final_nmse.mean())
        # the stale fleet is far outside the fresh envelope...
        assert stale_mean > 4.0 * fresh_mean
        # ...the recalibrated fleet is back inside it...
        assert maintained_mean < 3.0 * fresh_mean
        # ...and far below the stale twin.
        assert maintained_mean < stale_mean / 3.0

    def test_maintenance_happened_before_the_first_window(self, recoveries):
        _, _, _, policy = recoveries
        # both shards were recalibrated, once each, by the first sweep
        assert [action.action for action in policy.actions] == [
            "calibrate",
            "calibrate",
        ]
        assert sorted(action.shard for action in policy.actions) == [0, 1]
        # drift decays conductance, so the fitted gains compensate up
        assert all(action.gain > 1.0 for action in policy.actions)


class TestCounterFidelity:
    """Invariant (c): merged stats == sum of shard stats, lifecycle
    counters included, under both dispatch schedules."""

    @pytest.mark.parametrize("schedule", ["round_robin", "greedy"])
    def test_merged_stats_sum_shard_stats_with_lifecycle(self, schedule, rng):
        matrix = rng.standard_normal((12, 20))
        fleet = ShardedOperator.from_matrix(
            matrix, n_shards=3, batch_window=2, schedule=schedule, seed=11
        )
        policy = FleetMaintenance(
            fleet,
            recalibrate_after_s=1e3,
            reprogram_after_s=1e7,
            n_probes=4,
            seed=12,
        )
        for age in (1e4, 1e8):
            fleet.advance_time(age)
            fleet.matmat(rng.standard_normal((20, 7)))
        merged = fleet.stats
        per_shard = fleet.shard_stats
        for key, value in merged.items():
            assert value == sum(stats[key] for stats in per_shard)
        # both kinds of maintenance actually happened and were counted
        assert merged["n_calibrations"] == 3
        assert merged["n_calibration_probes"] == 12
        assert merged["n_reprograms"] == 3
        assert merged["n_program_pulses"] > 0
        assert policy.n_calibration_probes == merged["n_calibration_probes"]
        assert policy.n_program_pulses == merged["n_program_pulses"]

    def test_bill_splits_into_serving_plus_maintenance(self, rng):
        matrix = rng.standard_normal((12, 20))
        fleet = ShardedOperator.from_matrix(
            matrix, n_shards=2, batch_window=3, seed=4
        )
        policy = FleetMaintenance(
            fleet, recalibrate_after_s=1e3, n_probes=8, seed=6
        )
        fleet.advance_time(1e5)
        fleet.matmat(rng.standard_normal((20, 8)))
        model = CrossbarCostModel(rows=12, cols=20, devices_per_cell=2)
        total = model.energy_from_stats(fleet.stats)
        maintenance = model.energy_from_stats(policy.stats)
        serving_stats = {
            key: value - policy.stats.get(key, 0)
            for key, value in fleet.stats.items()
        }
        serving = model.energy_from_stats(serving_stats)
        assert maintenance["total_energy_j"] > 0
        assert serving["calibration_energy_j"] == 0.0
        assert total["total_energy_j"] == pytest.approx(
            serving["total_energy_j"] + maintenance["total_energy_j"],
            rel=1e-12,
        )


class TestMaintenancePolicy:
    def test_validation(self, rng):
        fleet = ShardedOperator.from_matrix(
            rng.standard_normal((4, 6)), n_shards=1, batch_window=2,
            backend="exact",
        )
        with pytest.raises(ValueError, match="at least one"):
            FleetMaintenance(fleet)
        with pytest.raises(ValueError, match="recalibrate_after_s"):
            FleetMaintenance(fleet, recalibrate_after_s=-1.0)
        with pytest.raises(ValueError, match="gain_error_threshold"):
            FleetMaintenance(
                fleet, recalibrate_after_s=1.0, gain_error_threshold=0.0
            )
        with pytest.raises(ValueError, match="n_probes"):
            FleetMaintenance(fleet, recalibrate_after_s=1.0, n_probes=0)
        with pytest.raises(ValueError, match="n_probes"):
            FleetMaintenance(fleet, recalibrate_after_s=1.0, n_probes=2.5)
        # NaN compares false against every staleness, so a NaN threshold
        # would construct a policy that silently never maintains
        for name in (
            "recalibrate_after_s",
            "reprogram_after_s",
            "gain_error_budget",
            "gain_error_threshold",
            "calibration_error_threshold",
            "verify_error_budget",
        ):
            for bad in (float("nan"), float("inf")):
                with pytest.raises(ValueError, match=name):
                    FleetMaintenance(
                        fleet, **{"recalibrate_after_s": 1.0, name: bad}
                    )

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_probe_count_must_be_finite(self, bad, rng):
        fleet = ShardedOperator.from_matrix(
            rng.standard_normal((4, 6)), n_shards=1, batch_window=2,
            backend="exact",
        )
        with pytest.raises(ValueError, match="n_probes"):
            FleetMaintenance(fleet, recalibrate_after_s=1.0, n_probes=bad)
        assert fleet.maintenance is None

    @pytest.mark.parametrize(
        "name",
        [
            "recalibrate_after_s",
            "reprogram_after_s",
            "gain_error_budget",
            "gain_error_threshold",
            "calibration_error_threshold",
            "verify_error_budget",
        ],
    )
    def test_every_threshold_must_be_positive(self, name, rng):
        fleet = ShardedOperator.from_matrix(
            rng.standard_normal((4, 6)), n_shards=1, batch_window=2,
            backend="exact",
        )
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match=name):
                FleetMaintenance(
                    fleet, attach=False, **{"recalibrate_after_s": 1.0, name: bad}
                )
        policy = FleetMaintenance(
            fleet, attach=False, **{"recalibrate_after_s": 1.0, name: 2.0}
        )
        assert getattr(policy, name) == 2.0

    def test_zero_matrix_shard_has_no_forecast(self):
        """A zero matrix carries no differential signal to forecast, so
        the drift model abstains and never marks the shard due."""
        fleet = ShardedOperator.from_matrix(
            np.zeros((4, 6)), n_shards=1, batch_window=2, seed=1
        )
        policy = FleetMaintenance(fleet, gain_error_budget=0.01, seed=2)
        fleet.advance_time(1e6)
        shard = fleet.shards[0]
        assert policy.predicted_gain_error(shard) is None
        assert policy.due(shard) is None

    def test_fresh_ledger_prices_to_zero(self, rng):
        fleet = ShardedOperator.from_matrix(
            rng.standard_normal((8, 10)), n_shards=2, batch_window=2, seed=1
        )
        policy = FleetMaintenance(fleet, recalibrate_after_s=1e3, seed=2)
        # the keys energy_from_stats requires exist before any action
        assert policy.stats == {
            "n_matvec": 0,
            "n_rmatvec": 0,
            "dac_conversions": 0,
            "adc_conversions": 0,
        }
        model = CrossbarCostModel(rows=8, cols=10, devices_per_cell=2)
        assert model.energy_from_stats(policy.stats)["total_energy_j"] == 0.0

    def test_reprogram_threshold_outranks_calibration(self, rng):
        matrix = rng.standard_normal((8, 10))
        fleet = ShardedOperator.from_matrix(
            matrix, n_shards=2, batch_window=2, seed=13
        )
        policy = FleetMaintenance(
            fleet, recalibrate_after_s=1e2, reprogram_after_s=1e4, seed=14
        )
        fleet.advance_time(1e3)  # past the calibration threshold only
        assert [policy.due(shard) for shard in fleet.shards] == ["calibrate"] * 2
        fleet.shards[0].calibrate(seed=15)  # shard 0 serviced out of band
        fleet.advance_time(9e3)  # shard 1 past both thresholds
        assert [policy.due(shard) for shard in fleet.shards] == [
            "calibrate",
            "reprogram",
        ]
        actions = policy.sweep()
        assert [(a.shard, a.action) for a in actions] == [
            (0, "calibrate"),
            (1, "reprogram"),
        ]
        assert actions[0].pulses == 0 and actions[1].probes == 0
        assert (policy.n_calibrations, policy.n_reprograms) == (1, 1)

    def test_verified_rewrite_stays_in_rotation(self, rng):
        matrix = rng.standard_normal((8, 10))
        fleet = ShardedOperator.from_matrix(
            matrix, n_shards=2, batch_window=2, seed=15
        )
        policy = FleetMaintenance(
            fleet,
            reprogram_after_s=1e3,
            verify_error_budget=0.5,
            n_probes=3,
            seed=16,
        )
        fleet.advance_time(1e4)
        actions = policy.sweep()
        assert [action.action for action in actions] == ["reprogram"] * 2
        for action, shard in zip(actions, fleet.shards):
            assert action.probes == 3  # the verify read
            assert action.verify_error == shard.last_reprogram_error
            assert 0.0 <= action.verify_error < 0.5
        assert fleet.retired_shards == (False, False)
        assert policy.n_retirements == 0

    def test_failed_verify_retires_the_shard(self, rng):
        matrix = rng.standard_normal((8, 10))
        fleet = ShardedOperator.from_matrix(
            matrix, n_shards=2, batch_window=2, seed=17
        )
        policy = FleetMaintenance(
            fleet,
            reprogram_after_s=1e3,
            verify_error_budget=0.2,
            n_probes=4,
            seed=18,
        )
        fleet.shards[0].inject_stuck_faults(0.3, seed=19)  # survives rewrites
        fleet.advance_time(1e4)
        actions = policy.sweep()
        assert [(a.shard, a.action) for a in actions] == [
            (0, "retire"),
            (1, "reprogram"),
        ]
        assert actions[0].verify_error > 0.2
        assert actions[0].probes == 4
        assert fleet.retired_shards == (True, False)
        assert (policy.n_retirements, policy.n_reprograms) == (1, 1)
        # a retired shard is out of the maintenance rotation for good
        fleet.advance_time(1e4)
        assert [action.shard for action in policy.sweep()] == [1]

    def test_calibration_residual_escalates_to_reprogram(self, rng):
        """A stuck-fault shard still fits a gain but keeps a large
        residual; ``calibration_error_threshold`` orders its rewrite
        while the healthy twin only recalibrates."""
        matrix = rng.standard_normal((8, 10))
        fleet = ShardedOperator.from_matrix(
            matrix, n_shards=2, batch_window=2, seed=20
        )
        policy = FleetMaintenance(
            fleet,
            recalibrate_after_s=1e3,
            calibration_error_threshold=0.2,
            n_probes=6,
            seed=21,
        )
        faulty, healthy = fleet.shards
        faulty.inject_stuck_faults(0.3, seed=22)
        fleet.advance_time(1e4)
        escalated, calibrated = policy.sweep()
        assert faulty.last_calibration_error > 0.2
        assert healthy.last_calibration_error <= 0.2
        assert (escalated.action, calibrated.action) == ("reprogram", "calibrate")
        assert escalated.probes == 6 and escalated.pulses > 0
        assert (faulty.gain, faulty.age_seconds) == (1.0, 0.0)
        assert healthy.age_seconds == 1e4  # calibration does not rewrite

    def test_predictor_for_builds_once_and_skips_exact_replicas(self, rng):
        matrix = rng.standard_normal((8, 10))
        fleet = ShardedOperator(
            [DenseOperator(matrix), CrossbarOperator(matrix, seed=0)],
            batch_window=2,
        )
        policy = FleetMaintenance(fleet, gain_error_budget=0.02, attach=False)
        dense, crossbar = fleet.shards
        assert policy.predictor_for(dense) is None
        predictor = policy.predictor_for(crossbar)
        assert isinstance(predictor, DriftPredictor)
        assert policy.predictor_for(crossbar) is predictor  # cached
        fleet.advance_time(1e5)
        assert policy.predicted_gain_error(dense) is None
        assert policy.predicted_gain_error(crossbar) == predictor.gain_error(1e5)

    def test_forecast_needs_a_budget(self, rng):
        fleet = ShardedOperator.from_matrix(
            rng.standard_normal((8, 10)), n_shards=1, batch_window=2, seed=1
        )
        policy = FleetMaintenance(fleet, recalibrate_after_s=1e9, attach=False)
        fleet.advance_time(1e7)
        assert policy.predicted_gain_error(fleet.shards[0]) is None
        assert policy.due(fleet.shards[0]) is None  # no wall clock crossed

    def test_exact_shards_never_serviced(self, rng):
        matrix = rng.standard_normal((8, 10))
        fleet = ShardedOperator(
            [
                DenseOperator(matrix),
                CrossbarOperator(matrix, seed=0),
            ],
            batch_window=2,
        )
        policy = FleetMaintenance(fleet, recalibrate_after_s=1.0, seed=1)
        fleet.advance_time(1e6)
        actions = policy.sweep()
        assert [action.shard for action in actions] == [1]
        assert policy.due(fleet.shards[0]) is None

    def test_gain_error_escalates_to_reprogram(self, rng):
        matrix = rng.standard_normal((8, 10))
        fleet = ShardedOperator.from_matrix(
            matrix, n_shards=1, batch_window=2, seed=2
        )
        policy = FleetMaintenance(
            fleet,
            recalibrate_after_s=1e3,
            gain_error_threshold=0.05,
            n_probes=8,
            seed=3,
        )
        fleet.advance_time(1e8)  # deep drift: gain error >> 5 %
        (action,) = policy.sweep()
        assert action.action == "reprogram"
        assert action.probes == 8  # the escalating fit was still paid for
        assert action.pulses > 0
        shard = fleet.shards[0]
        assert shard.gain == 1.0
        assert shard.age_seconds == 0.0
        assert shard.staleness_seconds == 0.0
        # the rewritten array serves accurately again without any
        # digital gain compensation
        x = rng.standard_normal(10)
        error = np.linalg.norm(shard.matvec(x) - matrix @ x)
        assert error / np.linalg.norm(matrix @ x) < 0.1

    def test_detached_policy_is_manual(self, rng):
        matrix = rng.standard_normal((8, 10))
        fleet = ShardedOperator.from_matrix(
            matrix, n_shards=1, batch_window=2, seed=7
        )
        policy = FleetMaintenance(
            fleet, recalibrate_after_s=1e3, attach=False, seed=8
        )
        assert fleet.maintenance is None
        fleet.advance_time(1e6)
        fleet.matmat(rng.standard_normal((10, 3)))  # no automatic sweep
        assert policy.actions == []
        assert policy.sweep()[0].action == "calibrate"

    def test_sweep_is_idempotent_until_staleness_regrows(self, rng):
        matrix = rng.standard_normal((8, 10))
        fleet = ShardedOperator.from_matrix(
            matrix, n_shards=2, batch_window=2, seed=9
        )
        policy = FleetMaintenance(fleet, recalibrate_after_s=1e3, seed=10)
        fleet.advance_time(1e5)
        assert len(policy.sweep()) == 2
        assert policy.sweep() == []  # staleness reset by the first sweep
        fleet.advance_time(600.0)
        fleet.shards[1].calibrate(seed=11)
        fleet.advance_time(600.0)  # only shard 0 regrows past the threshold
        assert [action.shard for action in policy.sweep()] == [0]


class TestHeterogeneousAges:
    def test_per_shard_clocks(self, rng):
        matrix = rng.standard_normal((8, 10))
        fleet = ShardedOperator.from_matrix(
            matrix, n_shards=3, batch_window=2, seed=0
        )
        fleet.advance_time(100.0)
        fleet.shards[1].reprogram()
        fleet.shards[2].calibrate(seed=1)
        fleet.advance_time(900.0)
        # one time axis: clocks differ only by each shard's last service
        assert fleet.shard_ages == (1000.0, 900.0, 1000.0)
        assert fleet.shard_staleness == (1000.0, 900.0, 900.0)

    def test_gain_dispersion_tracks_partial_maintenance(self, rng):
        matrix = rng.standard_normal((8, 10))
        fleet = ShardedOperator.from_matrix(
            matrix, n_shards=2, batch_window=2, seed=1
        )
        assert fleet.gain_dispersion()["gain_spread"] == 0.0
        fleet.advance_time(1e6)
        fleet.shards[0].calibrate(seed=2)
        dispersion = fleet.gain_dispersion()
        assert dispersion["gain_max"] > 1.0
        assert dispersion["gain_min"] == 1.0
        assert dispersion["gain_spread"] > 0.0
        assert dispersion["staleness_max_s"] == 1e6  # shard 1 still stale
        # servicing the straggler closes the dispersion
        fleet.shards[1].calibrate(seed=3)
        assert fleet.gain_dispersion()["staleness_max_s"] == 0.0
