"""Cross-layer invariants of the fleet serving layer.

The serving determinism contract, as the layer's consumers rely on it:

* **Trace determinism** — the same arrival trace on the same virtual
  clock produces the same coalesced blocks: ids, directions, request
  membership, dispatch and completion times, bit for bit.
* **Dispatch transparency** — on exact backends, every served value is
  bitwise the column the fleet itself returns for the same coalesced
  block: coalescing and demultiplexing add no arithmetic.
* **Counter conservation** — per-tenant counter ledgers sum exactly
  (integer equality, not approximately) to the fleet's merged counters
  for the served traffic, so tenant bills partition the fleet's bill.
  A fleet with an attached maintenance policy is refused, since its
  sweeps would run inside dispatch and be billed to tenants.
* **Idle neutrality** — constructing a serving layer over a fleet, and
  serving nothing, leaves the fleet bitwise indistinguishable from a
  bare one.
"""

import numpy as np
import pytest

from repro.crossbar import FleetMaintenance, ShardedOperator
from repro.energy import CrossbarCostModel
from repro.serving import FleetServer, VirtualClock

TENANTS = ("alice", "bob", "carol")


def make_fleet(backend="exact", seed=11, n_shards=3, batch_window=4):
    rng = np.random.default_rng(99)
    matrix = rng.standard_normal((16, 10)) / 4.0
    return ShardedOperator.from_matrix(
        matrix,
        n_shards=n_shards,
        batch_window=batch_window,
        backend=backend,
        seed=seed if backend == "crossbar" else None,
    )


def make_trace(fleet, n_events=40, seed=7, kinds=("matvec", "rmatvec")):
    """A bursty multi-tenant arrival trace (sorted by arrival time)."""
    rng = np.random.default_rng(seed)
    m, n = fleet.shape
    t = 0.0
    events = []
    for i in range(n_events):
        t += float(rng.exponential(0.05))
        kind = kinds[int(rng.integers(len(kinds)))]
        tenant = TENANTS[int(rng.integers(len(TENANTS)))]
        vector = rng.standard_normal(n if kind == "matvec" else m)
        events.append((t, tenant, kind, vector))
    return events


def serve_trace(fleet, events, **kwargs):
    kwargs.setdefault("coalesce_budget_s", 0.1)
    kwargs.setdefault("window_service_s", 0.02)
    server = FleetServer(fleet, VirtualClock(), **kwargs)
    server.replay(events)
    return server


class TestTraceDeterminism:
    def test_same_trace_same_blocks_bit_for_bit(self):
        fleet_a, fleet_b = make_fleet(), make_fleet()
        events = make_trace(fleet_a)
        server_a = serve_trace(fleet_a, events)
        server_b = serve_trace(fleet_b, events)
        assert server_a.block_log == server_b.block_log
        assert len(server_a.block_log) > 2  # the trace actually coalesces
        for result_a, result_b in zip(
            server_a.completed, server_b.completed, strict=True
        ):
            assert result_a.request.id == result_b.request.id
            assert result_a.dispatched_at_s == result_b.dispatched_at_s
            assert result_a.completed_at_s == result_b.completed_at_s
            np.testing.assert_array_equal(result_a.value, result_b.value)

    def test_deterministic_on_physical_backends_too(self):
        fleets = [make_fleet(backend="crossbar"), make_fleet(backend="crossbar")]
        events = make_trace(fleets[0], n_events=24, seed=5)
        servers = [serve_trace(fleet, events) for fleet in fleets]
        assert servers[0].block_log == servers[1].block_log
        for result_a, result_b in zip(
            servers[0].completed, servers[1].completed, strict=True
        ):
            np.testing.assert_array_equal(result_a.value, result_b.value)
        assert fleets[0].stats == fleets[1].stats


class TestDispatchTransparency:
    @pytest.mark.parametrize("kinds", [("matvec",), ("matvec", "rmatvec")])
    def test_served_values_bitwise_equal_direct_block_dispatch(self, kinds):
        fleet = make_fleet()
        events = make_trace(fleet, kinds=kinds)
        server = serve_trace(fleet, events)
        reference = make_fleet()  # untouched twin dispatches the same blocks
        by_id = {result.request.id: result for result in server.completed}
        for block in server.block_log:
            columns = np.stack(
                [by_id[request_id].request.vector for request_id in block.request_ids],
                axis=1,
            )
            if block.kind == "matvec":
                expected = reference.matmat(columns)
            else:
                expected = reference.rmatmat(columns)
            for position, request_id in enumerate(block.request_ids):
                np.testing.assert_array_equal(
                    by_id[request_id].value,
                    expected[:, position],
                )
        assert fleet.stats == reference.stats


class TestCounterConservation:
    @pytest.mark.parametrize("backend", ["exact", "crossbar"])
    def test_tenant_ledgers_partition_fleet_counters(self, backend):
        fleet = make_fleet(backend=backend)
        baseline = dict(fleet.stats)  # static gauges (e.g. device counts)
        events = make_trace(fleet, n_events=50, seed=13)
        server = serve_trace(fleet, events)
        merged = server.served_counters
        for key, value in fleet.stats.items():
            delta = value - baseline.get(key, 0)
            if delta:
                assert merged.get(key, 0) == delta, key
        # and the partition is exact per key, tenant by tenant
        for key in merged:
            total = sum(
                server.tenant_stats(tenant).get(key, 0)
                for tenant in server.tenants
            )
            assert total == merged[key]
        assert set(server.tenants) == set(TENANTS)

    def test_every_tenant_ledger_is_priceable(self):
        fleet = make_fleet(backend="crossbar")
        server = serve_trace(fleet, make_trace(fleet, n_events=30))
        model = CrossbarCostModel()
        bills = {
            tenant: model.energy_from_stats(server.tenant_stats(tenant))
            for tenant in server.tenants
        }
        fleet_bill = model.energy_from_stats(fleet.stats)
        split_total = sum(
            bill["total_energy_j"] for bill in bills.values()
        )
        assert split_total == pytest.approx(fleet_bill["total_energy_j"])
        assert all(
            bill["total_energy_j"] > 0.0 for bill in bills.values()
        )


class TestAttachedMaintenanceIsRefused:
    """An attached policy sweeps inside ``fleet.matmat``: its probes would
    land in the block's counter delta, be split across the tenants and
    then be billed again as maintenance."""

    def test_policy_attached_before_the_server(self):
        fleet = make_fleet(backend="crossbar")
        FleetMaintenance(fleet, recalibrate_after_s=0.5, seed=1)
        with pytest.raises(ValueError, match="attach=False.*MaintenanceWindow"):
            FleetServer(fleet, VirtualClock())

    def test_policy_attached_after_the_server(self, rng):
        fleet = make_fleet(backend="crossbar")
        server = FleetServer(fleet, VirtualClock(), coalesce_budget_s=0.0)
        server.submit(rng.standard_normal(fleet.shape[1]), tenant="alice")
        policy = FleetMaintenance(fleet, recalibrate_after_s=0.5, seed=1)
        server.advance(1.0)  # the policy now owes every shard a calibration
        before = dict(fleet.stats)
        with pytest.raises(ValueError, match="attach=False.*MaintenanceWindow"):
            server.step()
        # refused before any block left the queue: nothing ran or billed
        assert server.queue.depth == 1
        assert server.block_log == []
        assert server.served_counters == {}
        assert fleet.stats == before
        assert policy.actions == []


class TestIdleNeutrality:
    @pytest.mark.parametrize("backend", ["exact", "crossbar"])
    def test_attached_but_idle_server_changes_nothing(self, backend, rng):
        served_fleet = make_fleet(backend=backend)
        bare_fleet = make_fleet(backend=backend)
        FleetServer(served_fleet, VirtualClock(), coalesce_budget_s=0.1)
        block = rng.standard_normal((served_fleet.shape[1], 6))
        np.testing.assert_array_equal(
            served_fleet.matmat(block), bare_fleet.matmat(block)
        )
        assert served_fleet.stats == bare_fleet.stats

    def test_idle_server_reports_empty_accounting(self):
        fleet = make_fleet()
        server = FleetServer(fleet, VirtualClock(), coalesce_budget_s=0.1)
        assert server.tenants == ()
        assert server.served_counters == {}
        assert server.block_log == []
        summary = server.latency_summary()
        assert summary["n_served"] == 0.0
        assert "latency_p50_s" not in summary

