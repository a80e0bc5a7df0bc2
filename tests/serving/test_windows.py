"""Unit tests for forecast-scheduled maintenance windows.

Pins the scheduler's three-way decision (not due / defer / run), the
zero-probe drift forecast feeding it, and the service-line charge that
makes maintenance visible in request latencies.
"""

import math

import numpy as np
import pytest

from repro.crossbar import DriftPredictor, FleetMaintenance, ShardedOperator
from repro.serving import (
    FleetServer,
    MaintenanceWindow,
    VirtualClock,
)


@pytest.fixture
def pcm_fleet(rng):
    matrix = rng.standard_normal((10, 6)) / 4.0
    return ShardedOperator.from_matrix(
        matrix, n_shards=2, batch_window=3, backend="crossbar", seed=5
    )


def make_window(fleet, **kwargs):
    policy = FleetMaintenance(
        fleet, gain_error_budget=0.01, attach=False, seed=7
    )
    return MaintenanceWindow(fleet, policy, **kwargs)


def make_server(fleet, window, **kwargs):
    kwargs.setdefault("coalesce_budget_s", 0.2)
    kwargs.setdefault("window_service_s", 0.3)
    return FleetServer(fleet, VirtualClock(), maintenance=window, **kwargs)


class TestConstruction:
    def test_rejects_attached_policy(self, pcm_fleet):
        policy = FleetMaintenance(pcm_fleet, gain_error_budget=0.01)
        assert pcm_fleet.maintenance is policy
        with pytest.raises(ValueError, match="attach=False"):
            MaintenanceWindow(pcm_fleet, policy)

    def test_budget_defaults_to_the_policy_budget(self, pcm_fleet):
        window = make_window(pcm_fleet)
        assert window.gain_error_budget == 0.01

    def test_rejects_bad_parameters(self, pcm_fleet):
        policy = FleetMaintenance(
            pcm_fleet, gain_error_budget=0.01, attach=False
        )
        with pytest.raises(ValueError, match="low_traffic_depth"):
            MaintenanceWindow(pcm_fleet, policy, low_traffic_depth=-1)
        with pytest.raises(ValueError, match="max_defer_s"):
            MaintenanceWindow(pcm_fleet, policy, max_defer_s=-1.0)

    def test_rejects_bad_budget_and_service_costs(self, pcm_fleet):
        policy = FleetMaintenance(
            pcm_fleet, gain_error_budget=0.01, attach=False
        )
        with pytest.raises(ValueError, match="gain_error_budget"):
            MaintenanceWindow(pcm_fleet, policy, gain_error_budget=0.0)
        with pytest.raises(ValueError, match="max_defer_s"):
            MaintenanceWindow(pcm_fleet, policy, max_defer_s=float("nan"))
        with pytest.raises(ValueError, match="probe_service_s"):
            MaintenanceWindow(pcm_fleet, policy, probe_service_s=-1.0)
        with pytest.raises(ValueError, match="pulse_service_s"):
            MaintenanceWindow(pcm_fleet, policy, pulse_service_s=float("nan"))

    def test_bind_derives_probe_cost_from_window_service(self, pcm_fleet):
        window = make_window(pcm_fleet)
        make_server(pcm_fleet, window, window_service_s=0.3)
        assert window.probe_service_s == pytest.approx(0.1)  # 0.3 / window 3

    def test_bind_keeps_an_explicit_probe_cost(self, pcm_fleet):
        window = make_window(pcm_fleet, probe_service_s=7.0)
        make_server(pcm_fleet, window)
        assert window.probe_service_s == 7.0


class TestForecast:
    def test_fresh_fleet_is_not_due(self, pcm_fleet):
        window = make_window(pcm_fleet)
        remaining = window.seconds_until_due()
        assert remaining > 0.0 and math.isfinite(remaining)

    def test_forecast_crosses_zero_after_aging(self, pcm_fleet):
        window = make_window(pcm_fleet)
        remaining = window.seconds_until_due()
        pcm_fleet.advance_time(remaining + 1.0)
        assert window.seconds_until_due() == 0.0

    def test_exact_fleet_is_never_due_predictively(self, small_matrix):
        fleet = ShardedOperator.from_matrix(
            small_matrix, n_shards=2, batch_window=4, backend="exact"
        )
        policy = FleetMaintenance(
            fleet, recalibrate_after_s=10.0, attach=False
        )
        window = MaintenanceWindow(fleet, policy, gain_error_budget=0.01)
        assert window.seconds_until_due() == math.inf

    def test_zero_matrix_fleet_has_no_forecaster(self):
        fleet = ShardedOperator.from_matrix(
            np.zeros((6, 4)), n_shards=2, batch_window=3, seed=5
        )
        window = make_window(fleet)
        assert [window.policy.predictor_for(s) for s in fleet.shards] == [None] * 2
        assert window.seconds_until_due() == math.inf

    def test_one_forecaster_per_shard_shared_with_the_policy(
        self, pcm_fleet, monkeypatch
    ):
        built = []
        build = DriftPredictor.from_operator

        def counting(operator, *args, **kwargs):
            built.append(build(operator, *args, **kwargs))
            return built[-1]

        monkeypatch.setattr(DriftPredictor, "from_operator", counting)
        window = make_window(pcm_fleet)
        for _ in range(3):
            window.seconds_until_due()
            pcm_fleet.advance_time(10.0)  # a new fleet state re-forecasts
        assert len(built) == pcm_fleet.n_shards
        for shard, predictor in zip(pcm_fleet.shards, built):
            assert window.policy.predictor_for(shard) is predictor

    def test_forecast_is_cached_until_the_fleet_state_moves(
        self, pcm_fleet, monkeypatch
    ):
        calls = []
        original = DriftPredictor.seconds_until

        def counting(predictor, *args, **kwargs):
            calls.append(args)
            return original(predictor, *args, **kwargs)

        monkeypatch.setattr(DriftPredictor, "seconds_until", counting)
        window = make_window(pcm_fleet)
        first = window.seconds_until_due()
        assert len(calls) == pcm_fleet.n_shards  # one forecast per shard
        assert window.seconds_until_due() == first
        assert len(calls) == pcm_fleet.n_shards  # served from the cache
        pcm_fleet.advance_time(first / 2)
        assert window.seconds_until_due() == pytest.approx(first / 2, rel=1e-6)
        assert len(calls) == 2 * pcm_fleet.n_shards

    def test_retired_shards_drop_out_of_the_forecast(self, pcm_fleet):
        window = make_window(pcm_fleet)
        fresh = window.seconds_until_due()
        pcm_fleet.advance_time(fresh + 1.0, shard=0)  # shard 0 alone owes work
        assert window.seconds_until_due() == 0.0
        pcm_fleet.retire_shard(0)
        # the fresh survivor shares the target, so it forecasts the same
        assert window.seconds_until_due() == fresh

    def test_wall_clock_policy_without_budget(self, pcm_fleet):
        policy = FleetMaintenance(
            pcm_fleet, recalibrate_after_s=100.0, attach=False
        )
        window = MaintenanceWindow(pcm_fleet, policy)
        assert window.gain_error_budget is None
        assert window.seconds_until_due() == math.inf  # nothing to forecast
        pcm_fleet.advance_time(100.0)
        assert window.seconds_until_due() == 0.0

    def test_forecast_spends_no_probes(self, pcm_fleet):
        window = make_window(pcm_fleet)
        before = pcm_fleet.stats
        window.seconds_until_due()
        assert pcm_fleet.stats == before


class TestScheduling:
    def test_not_due_means_no_slot(self, pcm_fleet, rng):
        window = make_window(pcm_fleet)
        server = make_server(pcm_fleet, window)
        server.submit(rng.standard_normal(6))
        server.flush()
        assert window.slots == []
        assert window.policy.actions == []

    def test_due_sweep_waits_for_a_lull(self, pcm_fleet, rng):
        window = make_window(pcm_fleet, max_defer_s=math.inf)
        server = make_server(pcm_fleet, window)
        server.advance(window.seconds_until_due() + 1.0)
        server.submit(rng.standard_normal(6))
        server.step()  # queue depth 1 > low_traffic_depth 0: defer
        assert window.slots == []
        server.advance(0.2)
        server.step()  # budget expires, block dispatches; still deferred first
        server.step()  # queue now idle: the slot runs
        assert len(window.slots) == 1
        slot = window.slots[0]
        assert not slot.forced
        assert slot.deferrals >= 1
        assert slot.probes > 0
        assert {action.action for action in slot.actions} == {"calibrate"}

    def test_defer_expiry_forces_through_traffic(self, pcm_fleet, rng):
        window = make_window(pcm_fleet, max_defer_s=0.5)
        server = make_server(pcm_fleet, window, coalesce_budget_s=100.0)
        server.advance(window.seconds_until_due() + 1.0)
        server.submit(rng.standard_normal(6))
        server.step()  # due, busy, inside defer budget
        assert window.slots == []
        server.advance(0.6)
        server.step()  # defer budget exhausted: forced slot
        assert len(window.slots) == 1
        assert window.slots[0].forced

    def test_slot_charges_the_service_line(self, pcm_fleet, rng):
        window = make_window(pcm_fleet, probe_service_s=0.25)
        server = make_server(pcm_fleet, window, coalesce_budget_s=0.0)
        server.advance(window.seconds_until_due() + 1.0)
        t_due = server.clock.now()
        server.step()  # idle queue: the sweep runs immediately
        slot = window.slots[0]
        assert slot.service_s == pytest.approx(slot.probes * 0.25)
        assert server._busy_until_s == pytest.approx(t_due + slot.service_s)
        # the next request's service latency absorbs the maintenance time
        server.submit(rng.standard_normal(6))
        served = server.step()
        assert served[0].dispatched_at_s == pytest.approx(
            t_due + slot.service_s
        )

    def test_shallow_queue_counts_as_a_lull(self, pcm_fleet, rng):
        window = make_window(pcm_fleet, low_traffic_depth=1)
        server = make_server(pcm_fleet, window, coalesce_budget_s=100.0)
        server.advance(window.seconds_until_due() + 1.0)
        server.submit(rng.standard_normal(6))
        server.step()  # one queued request <= low_traffic_depth: run now
        (slot,) = window.slots
        assert slot.deferrals == 0
        assert not slot.forced
        assert slot.due_since_s == slot.opened_at_s

    def test_pulse_service_charges_rewrites(self, pcm_fleet):
        policy = FleetMaintenance(
            pcm_fleet, reprogram_after_s=100.0, attach=False, seed=7
        )
        window = MaintenanceWindow(
            pcm_fleet, policy, probe_service_s=0.5, pulse_service_s=1e-3
        )
        server = make_server(pcm_fleet, window, coalesce_budget_s=0.0)
        server.advance(101.0)
        server.step()
        (slot,) = window.slots
        assert {action.action for action in slot.actions} == {"reprogram"}
        assert slot.probes == 0 and slot.pulses > 0
        assert slot.service_s == pytest.approx(slot.pulses * 1e-3)

    def test_sweep_resets_due_state(self, pcm_fleet):
        window = make_window(pcm_fleet)
        server = make_server(pcm_fleet, window)
        server.advance(window.seconds_until_due() + 1.0)
        server.step()
        assert len(window.slots) == 1
        server.step()
        assert len(window.slots) == 1  # healthy again: no second slot
        assert window.seconds_until_due() > 0.0

    def test_forecast_schedule_stretches_with_age(self, pcm_fleet):
        # the paper's power-law drift: each predictive interval is longer
        # than the one before, so a serving deployment probes ever less.
        window = make_window(pcm_fleet)
        server = make_server(pcm_fleet, window, coalesce_budget_s=0.0)
        intervals = []
        for _ in range(3):
            remaining = window.seconds_until_due()
            assert math.isfinite(remaining)
            intervals.append(remaining)
            server.advance(remaining + 1e-3)
            server.step()
        assert len(window.slots) == 3
        assert intervals[1] > intervals[0]
        assert intervals[2] > intervals[1]

    def test_maintenance_counters_stay_separable(self, pcm_fleet, rng):
        window = make_window(pcm_fleet)
        server = make_server(pcm_fleet, window, coalesce_budget_s=0.0)
        server.advance(window.seconds_until_due() + 1.0)
        server.submit(rng.standard_normal(6))
        server.flush()
        server.step()  # queue idle now: the deferred sweep runs
        policy_stats = window.policy.stats
        assert policy_stats["dac_conversions"] > 0
        # served-traffic attribution excludes the maintenance share
        merged = server.served_counters
        fleet_stats = pcm_fleet.stats
        for key in ("dac_conversions", "adc_conversions"):
            assert (
                merged.get(key, 0) + policy_stats.get(key, 0)
                == fleet_stats.get(key, 0)
            )
