"""Unit tests for the synchronous FleetServer core.

Everything here runs on a :class:`VirtualClock`: coalescing, the
busy-line service model, SLO bookkeeping and the largest-remainder
tenant attribution are all pure functions of the submitted trace.  The
cross-layer bitwise/counter invariants live in
``tests/integration/test_serving.py``.
"""

import math

import numpy as np
import pytest

from repro.crossbar import ShardedOperator
from repro.serving import FleetServer, VirtualClock
from repro.serving.server import _largest_remainder


@pytest.fixture
def fleet(small_matrix):
    return ShardedOperator.from_matrix(
        small_matrix, n_shards=2, batch_window=4, backend="exact"
    )


def make_server(fleet, **kwargs):
    kwargs.setdefault("coalesce_budget_s", 1.0)
    kwargs.setdefault("window_service_s", 0.5)
    return FleetServer(fleet, VirtualClock(), **kwargs)


class TestVirtualClock:
    def test_starts_at_zero_and_advances(self):
        clock = VirtualClock()
        assert clock.now() == 0.0
        assert clock.advance(2.5) == 2.5
        assert clock.advance(3.0) == 5.5

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_rejects_bad_advance(self, bad):
        with pytest.raises(ValueError):
            VirtualClock().advance(bad)


class TestSubmitValidation:
    def test_rejects_unknown_kind(self, fleet, rng):
        server = make_server(fleet)
        with pytest.raises(ValueError, match="kind"):
            server.submit(rng.standard_normal(20), kind="matmat")

    def test_rejects_wrong_shape_per_direction(self, fleet, rng):
        server = make_server(fleet)
        m, n = fleet.shape
        with pytest.raises(ValueError, match="matvec request"):
            server.submit(rng.standard_normal(m), kind="matvec")
        with pytest.raises(ValueError, match="rmatvec request"):
            server.submit(rng.standard_normal(n), kind="rmatvec")
        with pytest.raises(ValueError, match="shape"):
            server.submit(rng.standard_normal((n, 1)), kind="matvec")

    def test_rejects_non_str_tenant_before_counting(self, fleet, rng):
        server = make_server(fleet)
        n = fleet.shape[1]
        server.submit(rng.standard_normal(n), tenant="a")
        before = dict(fleet.stats)
        with pytest.raises(TypeError, match="tenant"):
            server.submit(rng.standard_normal(n), tenant=7)
        assert server.queue.depth == 1
        assert server.tenants == ("a",)
        assert fleet.stats == before
        # the block holding the good request still serves
        (result,) = server.flush()
        assert result.request.tenant == "a"
        assert server.tenant_stats("a")["n_matvec"] == 1

    def test_default_block_columns_is_fleet_window(self, fleet):
        server = make_server(fleet)
        assert server.queue.block_columns == fleet.batch_window

    def test_rejects_negative_service_time(self, fleet):
        with pytest.raises(ValueError, match="window_service_s"):
            make_server(fleet, window_service_s=-0.5)


class TestCoalescing:
    def test_full_block_dispatches_at_once(self, fleet, rng):
        server = make_server(fleet)
        n = fleet.shape[1]
        for _ in range(4):
            server.submit(rng.standard_normal(n))
        served = server.step()
        assert len(served) == 4
        assert len(server.block_log) == 1
        block = server.block_log[0]
        assert block.columns == 4 and block.windows == 1
        assert block.dispatched_at_s == 0.0

    def test_partial_block_waits_for_budget(self, fleet, rng):
        server = make_server(fleet)
        server.submit(rng.standard_normal(fleet.shape[1]))
        assert server.step() == []
        server.advance(0.99)
        assert server.step() == []
        server.advance(0.01)
        served = server.step()
        assert len(served) == 1
        assert served[0].queue_latency_s == pytest.approx(1.0)

    def test_directions_never_share_a_block(self, fleet, rng):
        server = make_server(fleet)
        m, n = fleet.shape
        for _ in range(2):
            server.submit(rng.standard_normal(n), kind="matvec")
            server.submit(rng.standard_normal(m), kind="rmatvec")
        served = server.flush()
        assert len(served) == 4
        kinds = [block.kind for block in server.block_log]
        assert sorted(kinds) == ["matvec", "rmatvec"]

    def test_oversized_backlog_splits_into_blocks(self, fleet, rng):
        server = make_server(fleet)
        n = fleet.shape[1]
        for _ in range(10):
            server.submit(rng.standard_normal(n))
        server.step()
        # two full blocks release immediately, the ragged tail waits
        assert [block.columns for block in server.block_log] == [4, 4]
        assert server.queue.depth == 2
        server.flush()
        assert [block.columns for block in server.block_log] == [4, 4, 2]

    def test_results_demux_to_their_requests(self, fleet, rng):
        server = make_server(fleet)
        n = fleet.shape[1]
        vectors = [rng.standard_normal(n) for _ in range(4)]
        requests = [server.submit(vector) for vector in vectors]
        server.step()
        by_id = {result.request.id: result for result in server.completed}
        for request, vector in zip(requests, vectors):
            result = by_id[request.id]
            assert result.status == "served"
            np.testing.assert_allclose(result.value, fleet.matrix @ vector)


class _BlockCountingFleet:
    """An exact fleet whose stats also count dispatched blocks, a counter
    that moves even when every column of a block is zero."""

    def __init__(self, fleet):
        self._fleet = fleet
        self.shape = fleet.shape
        self.batch_window = fleet.batch_window
        self.blocks = 0

    @property
    def stats(self):
        return {**self._fleet.stats, "blocks": self.blocks}

    def matmat(self, block):
        self.blocks += 1
        return self._fleet.matmat(block)

    def rmatmat(self, block):
        self.blocks += 1
        return self._fleet.rmatmat(block)


class TestDeadBlocks:
    def test_all_dead_block_bills_by_columns(self, fleet):
        server = make_server(_BlockCountingFleet(fleet))
        n = fleet.shape[1]
        for tenant in ("a", "a", "b"):
            server.submit(np.zeros(n), tenant=tenant)
        server.flush()
        (block,) = server.block_log
        assert block.live_columns == 0
        # no live column to weigh by: the block counter splits 2:1 by
        # columns, and the ledgers still sum to the fleet's delta
        assert server.tenant_stats("a")["blocks"] == 1
        assert "blocks" not in server.tenant_stats("b")
        assert server.served_counters == {"n_matvec": 3, "blocks": 1}

    def test_empty_lane_dispatches_nothing(self, fleet):
        server = make_server(fleet)
        assert server._dispatch_block("matvec") == []
        assert server.block_log == []
        assert fleet.stats["n_matvec"] == 0


class TestServiceModel:
    def test_service_time_counts_windows(self, fleet, rng):
        server = make_server(fleet, coalesce_budget_s=0.0)
        n = fleet.shape[1]
        for _ in range(6):
            server.submit(rng.standard_normal(n))
        served = server.step()
        # blocks hold at most batch_window=4 columns: one window each
        assert [block.columns for block in server.block_log] == [4, 2]
        assert [block.windows for block in server.block_log] == [1, 1]
        assert [
            block.completed_at_s for block in server.block_log
        ] == pytest.approx([0.5, 1.0])
        assert all(r.service_latency_s == pytest.approx(0.5) for r in served)

    def test_busy_line_queues_back_to_back_blocks(self, fleet, rng):
        server = make_server(fleet, coalesce_budget_s=0.0)
        n = fleet.shape[1]
        for _ in range(4):
            server.submit(rng.standard_normal(n))
        server.step()
        for _ in range(4):
            server.submit(rng.standard_normal(n))
        server.step()
        first, second = server.block_log
        assert first.completed_at_s == pytest.approx(0.5)
        # the line is busy until 0.5, so the second block starts there
        assert second.dispatched_at_s == pytest.approx(0.5)
        assert second.completed_at_s == pytest.approx(1.0)

    def test_idle_line_recovers(self, fleet, rng):
        server = make_server(fleet, coalesce_budget_s=0.0)
        n = fleet.shape[1]
        for _ in range(4):
            server.submit(rng.standard_normal(n))
        server.step()
        server.advance(10.0)
        for _ in range(4):
            server.submit(rng.standard_normal(n))
        server.step()
        assert server.block_log[1].dispatched_at_s == pytest.approx(10.0)


class TestSloTracking:
    def test_violations_counted_per_tenant(self, fleet, rng):
        server = make_server(fleet, slo_s=0.6, coalesce_budget_s=0.0)
        n = fleet.shape[1]
        for _ in range(4):  # one full window, served within 0.5 s
            server.submit(rng.standard_normal(n), tenant="first")
        # the next block waits for the busy line and completes at 1.0 s
        server.submit(rng.standard_normal(n), tenant="second")
        server.step()
        assert server.tenant_requests("first")["slo_violations"] == 0
        assert server.tenant_requests("second")["slo_violations"] == 1
        assert server.latency_summary("second")["slo_violations"] == 1.0

    def test_scalar_slo_applies_to_every_tenant(self, fleet, rng):
        server = make_server(fleet, slo_s=0.1, coalesce_budget_s=0.0)
        server.submit(rng.standard_normal(fleet.shape[1]), tenant="anyone")
        server.step()
        assert server.latency_summary()["slo_violations"] == 1.0

    @pytest.mark.parametrize(
        "bad", [math.nan, -1.0, math.inf], ids=["nan", "negative", "inf"]
    )
    def test_rejects_bad_slo(self, fleet, bad):
        with pytest.raises(ValueError, match="slo_s"):
            make_server(fleet, slo_s=bad)

    def test_summary_violations_match_tenant_counts(self, fleet, rng):
        server = make_server(fleet, slo_s=0.6, coalesce_budget_s=0.0)
        n = fleet.shape[1]
        for tenant in ("a", "b", "a", "b", "a", "c"):
            server.submit(rng.standard_normal(n), tenant=tenant)
        server.step()  # the second block waits for the line: late
        counts = {
            tenant: server.tenant_requests(tenant)["slo_violations"]
            for tenant in server.tenants
        }
        assert counts == {"a": 1, "b": 0, "c": 1}
        for tenant, count in counts.items():
            assert server.latency_summary(tenant)["slo_violations"] == count
        assert server.latency_summary()["slo_violations"] == 2.0

    def test_summary_counts_served_requests_only(self, fleet, rng):
        server = make_server(fleet, coalesce_budget_s=0.0)
        n = fleet.shape[1]
        for _ in range(3):
            server.submit(rng.standard_normal(n))
        server.step()
        assert set(server.latency_summary()) == {
            "n_served",
            "slo_violations",
            "latency_p50_s",
            "latency_p99_s",
            "latency_max_s",
            "queue_latency_mean_s",
            "service_latency_mean_s",
        }

    def test_summary_reports_percentiles(self, fleet, rng):
        server = make_server(fleet, coalesce_budget_s=0.0)
        n = fleet.shape[1]
        for _ in range(8):
            server.submit(rng.standard_normal(n))
        server.step()
        summary = server.latency_summary()
        assert summary["n_served"] == 8.0
        assert summary["latency_p50_s"] <= summary["latency_p99_s"]
        assert summary["latency_p99_s"] <= summary["latency_max_s"]


class TestReadsDoNotRegisterTenants:
    """Reading a tenant's numbers must not mutate the server: a typo or
    a probe for a tenant that never submitted leaves ``tenants`` alone."""

    @pytest.mark.parametrize(
        "read",
        [
            lambda server, name: server.latency_summary(name),
            lambda server, name: server.tenant_requests(name),
            lambda server, name: server.tenant_stats(name),
        ],
        ids=["latency_summary", "tenant_requests", "tenant_stats"],
    )
    def test_unknown_tenant_reads_zero_and_is_not_registered(
        self, fleet, rng, read
    ):
        server = make_server(fleet)
        server.submit(rng.standard_normal(fleet.shape[1]), tenant="alice")
        server.flush()
        read(server, "ghost")
        assert server.tenants == ("alice",)
        assert server.tenant_requests("ghost") == {
            "submitted": 0,
            "served": 0,
            "slo_violations": 0,
        }
        assert server.latency_summary("ghost") == {
            "n_served": 0.0,
            "slo_violations": 0.0,
        }
        assert server.tenants == ("alice",)


class TestLargestRemainder:
    def test_exact_and_deterministic(self):
        shares = _largest_remainder(10, {"a": 1, "b": 1, "c": 1})
        assert sum(shares.values()) == 10
        assert shares == {"a": 4, "b": 3, "c": 3}

    def test_proportionality(self):
        shares = _largest_remainder(100, {"big": 3, "small": 1})
        assert shares == {"big": 75, "small": 25}

    @pytest.mark.parametrize("value", [0, 1, 7, 97])
    def test_always_sums_exactly(self, value):
        weights = {"a": 5, "b": 3, "c": 2, "d": 7}
        shares = _largest_remainder(value, weights)
        assert sum(shares.values()) == value
        assert all(share >= 0 for share in shares.values())


class TestReplay:
    def test_rejects_time_travel(self, fleet, rng):
        server = make_server(fleet)
        n = fleet.shape[1]
        events = [
            (1.0, "t", "matvec", rng.standard_normal(n)),
            (0.5, "t", "matvec", rng.standard_normal(n)),
        ]
        with pytest.raises(ValueError, match="non-decreasing"):
            server.replay(events)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_a_non_finite_arrival_before_moving_time(self, bad, rng):
        """A NaN or infinite arrival raises before any coalesce deadline
        on the way to it runs: the clock and every shard's drift clock
        stay at the last arrival, and its requests stay queued."""
        matrix = rng.standard_normal((8, 8))
        fleet = ShardedOperator.from_matrix(matrix, n_shards=2, batch_window=4, seed=3)
        server = FleetServer(fleet, VirtualClock(), coalesce_budget_s=0.1)
        events = [
            (at_s, "t", "matvec", rng.standard_normal(8)) for at_s in (0.0, 0.01, bad)
        ]
        with pytest.raises(ValueError, match="finite"):
            server.replay(events)
        assert server.clock.now() == 0.01
        assert [shard.age_seconds for shard in fleet.shards] == [0.01, 0.01]
        assert server.queue.depth == 2
        assert server.completed == [] and server.block_log == []

    def test_drain_serves_everything(self, fleet, rng):
        server = make_server(fleet)
        n = fleet.shape[1]
        events = [
            (0.1 * i, "t", "matvec", rng.standard_normal(n)) for i in range(7)
        ]
        results = server.replay(events)
        assert len(results) == 7
        assert all(result.status == "served" for result in results)
        assert server.queue.depth == 0

    def test_partial_blocks_dispatch_at_their_deadline(self, fleet, rng):
        server = make_server(fleet)
        n = fleet.shape[1]
        # one lonely request, then a long gap before the next arrival:
        # the first block must dispatch at its coalesce deadline (1.0),
        # not when the second request shows up at t=50.
        events = [
            (0.0, "t", "matvec", rng.standard_normal(n)),
            (50.0, "t", "matvec", rng.standard_normal(n)),
        ]
        server.replay(events)
        assert server.block_log[0].dispatched_at_s == pytest.approx(1.0)
