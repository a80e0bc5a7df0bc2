"""Unit tests for maintenance windows.

Pins the scheduler's three-way decision (not due / defer / run) on top
of the policy's own due decision, and the service-line charge that
makes maintenance visible in request latencies.
"""

import math

import pytest

from repro.crossbar import FleetMaintenance, ShardedOperator
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


def policy_due_in(window):
    """When the policy's drift forecast puts the fleet over budget.

    Every shard shares one target and one time axis, so shard 0 speaks
    for the fleet.
    """
    shard = window.fleet.shards[0]
    age = shard.age_seconds
    return window.policy.predictor_for(shard).seconds_until(
        window.policy.gain_error_budget,
        age,
        calibrated_at_s=age - shard.staleness_seconds,
    )


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

    def test_rejects_bad_parameters(self, pcm_fleet):
        policy = FleetMaintenance(
            pcm_fleet, gain_error_budget=0.01, attach=False
        )
        for bad in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="max_defer_s"):
                MaintenanceWindow(pcm_fleet, policy, max_defer_s=bad)
        with pytest.raises(ValueError, match="pulse_service_s"):
            MaintenanceWindow(pcm_fleet, policy, pulse_service_s=float("nan"))

    def test_bind_derives_probe_cost_from_window_service(self, pcm_fleet):
        window = make_window(pcm_fleet)
        make_server(pcm_fleet, window, window_service_s=0.3)
        assert window._probe_cost_s == pytest.approx(0.1)  # 0.3 / window 3


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
        server.advance(policy_due_in(window) + 1.0)
        server.submit(rng.standard_normal(6))
        server.step()  # a request is queued: defer
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
        server.advance(policy_due_in(window) + 1.0)
        server.submit(rng.standard_normal(6))
        server.step()  # due, busy, inside defer budget
        assert window.slots == []
        server.advance(0.6)
        server.step()  # defer budget exhausted: forced slot
        assert len(window.slots) == 1
        assert window.slots[0].forced

    def test_slot_charges_the_service_line(self, pcm_fleet, rng):
        window = make_window(pcm_fleet)
        server = make_server(pcm_fleet, window, coalesce_budget_s=0.0)
        server.advance(policy_due_in(window) + 1.0)
        t_due = server.clock.now()
        server.step()  # idle queue: the sweep runs immediately
        slot = window.slots[0]
        assert slot.deferrals == 0
        assert not slot.forced
        assert slot.due_since_s == slot.opened_at_s
        # a probe costs window_service_s / batch_window = 0.3 / 3
        assert slot.service_s == pytest.approx(slot.probes * 0.1)
        assert server._busy_until_s == pytest.approx(t_due + slot.service_s)
        # the next request's service latency absorbs the maintenance time
        server.submit(rng.standard_normal(6))
        served = server.step()
        assert served[0].dispatched_at_s == pytest.approx(
            t_due + slot.service_s
        )

    def test_pulse_service_charges_rewrites(self, pcm_fleet):
        policy = FleetMaintenance(
            pcm_fleet, reprogram_after_s=100.0, attach=False, seed=7
        )
        window = MaintenanceWindow(pcm_fleet, policy, pulse_service_s=1e-3)
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
        server.advance(policy_due_in(window) + 1.0)
        server.step()
        assert len(window.slots) == 1
        server.step()
        assert len(window.slots) == 1  # healthy again: no second slot
        assert policy_due_in(window) > 0.0

    def test_forecast_schedule_stretches_with_age(self, pcm_fleet):
        # the paper's power-law drift: each predictive interval is longer
        # than the one before, so a serving deployment probes ever less.
        window = make_window(pcm_fleet)
        server = make_server(pcm_fleet, window, coalesce_budget_s=0.0)
        intervals = []
        for _ in range(3):
            remaining = policy_due_in(window)
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
        server.advance(policy_due_in(window) + 1.0)
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
