"""Unit tests for request coalescing.

The queue's release rule (full block OR oldest request past its
coalesce budget) is the latency contract of the whole serving layer —
these tests pin it directly, without a server or a fleet in the loop.
"""

import math

import numpy as np
import pytest

from repro.serving import Request, RequestQueue
from repro.serving.queue import RequestResult


def make_request(id=0, tenant="t", kind="matvec", arrival_s=0.0, n=4):
    return Request(
        id=id,
        tenant=tenant,
        kind=kind,
        vector=np.zeros(n),
        arrival_s=arrival_s,
    )


class TestRequestQueueValidation:
    @pytest.mark.parametrize("bad", [0, -1, 2.5, math.inf, math.nan])
    def test_rejects_bad_block_columns(self, bad):
        with pytest.raises(ValueError, match="block_columns"):
            RequestQueue(bad, coalesce_budget_s=1.0)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_rejects_bad_budget(self, bad):
        with pytest.raises(ValueError, match="coalesce_budget_s"):
            RequestQueue(4, coalesce_budget_s=bad)

    def test_lane_depth_rejects_unknown_kind(self):
        queue = RequestQueue(4, 1.0)
        with pytest.raises(ValueError, match="kind"):
            queue.lane_depth("matmat")


class TestReleaseRule:
    def test_partial_block_not_due_inside_budget(self):
        queue = RequestQueue(4, coalesce_budget_s=1.0)
        queue.push(make_request(0, arrival_s=0.0))
        assert not queue.due("matvec", 0.5)

    def test_full_block_due_immediately(self):
        queue = RequestQueue(2, coalesce_budget_s=100.0)
        queue.push(make_request(0, arrival_s=0.0))
        queue.push(make_request(1, arrival_s=0.0))
        assert queue.due("matvec", 0.0)

    def test_budget_expiry_releases_partial_block(self):
        queue = RequestQueue(4, coalesce_budget_s=1.0)
        queue.push(make_request(0, arrival_s=0.5))
        assert not queue.due("matvec", 1.4)
        assert queue.due("matvec", 1.5)

    def test_zero_budget_dispatches_alone(self):
        queue = RequestQueue(4, coalesce_budget_s=0.0)
        queue.push(make_request(0, arrival_s=2.0))
        assert queue.due("matvec", 2.0)

    def test_lanes_are_independent(self):
        queue = RequestQueue(2, coalesce_budget_s=100.0)
        queue.push(make_request(0, kind="matvec"))
        queue.push(make_request(1, kind="matvec"))
        queue.push(make_request(2, kind="rmatvec"))
        assert queue.due("matvec", 0.0)
        assert not queue.due("rmatvec", 0.0)
        assert queue.lane_depth("matvec") == 2
        assert queue.lane_depth("rmatvec") == 1
        assert queue.depth == 3

    def test_pop_block_is_fifo_and_bounded(self):
        queue = RequestQueue(2, coalesce_budget_s=0.0)
        for i in range(5):
            queue.push(make_request(i))
        block = queue.pop_block("matvec")
        assert [request.id for request in block] == [0, 1]
        assert queue.lane_depth("matvec") == 3

    def test_empty_lane_never_due(self):
        queue = RequestQueue(2, coalesce_budget_s=0.0)
        assert not queue.due("matvec", 1e9)
        assert queue.pop_block("matvec") == []


class TestDeadlines:
    def test_deadline_is_oldest_arrival_plus_budget(self):
        queue = RequestQueue(4, coalesce_budget_s=1.5)
        queue.push(make_request(0, arrival_s=2.0))
        queue.push(make_request(1, arrival_s=3.0))
        assert queue.deadline_s("matvec") == pytest.approx(3.5)

    def test_next_deadline_is_min_across_lanes(self):
        queue = RequestQueue(4, coalesce_budget_s=1.0)
        assert queue.next_deadline_s() is None
        queue.push(make_request(0, kind="rmatvec", arrival_s=5.0))
        queue.push(make_request(1, kind="matvec", arrival_s=4.0))
        assert queue.next_deadline_s() == pytest.approx(5.0)


class TestRequestResult:
    def test_served_latencies_decompose(self):
        result = RequestResult(
            request=make_request(0, arrival_s=1.0),
            value=np.zeros(3),
            dispatched_at_s=2.0,
            completed_at_s=2.5,
            block_id=0,
            slo_s=2.0,
        )
        assert result.queue_latency_s == pytest.approx(1.0)
        assert result.service_latency_s == pytest.approx(0.5)
        assert result.latency_s == pytest.approx(1.5)
        assert result.slo_ok

    def test_no_slo_is_vacuously_met(self):
        result = RequestResult(
            request=make_request(0),
            value=np.zeros(3),
            dispatched_at_s=1e6,
            completed_at_s=2e6,
            block_id=0,
        )
        assert result.slo_ok

    def test_late_result_misses_its_slo(self):
        result = RequestResult(
            request=make_request(0, arrival_s=1.0),
            value=np.zeros(3),
            dispatched_at_s=1.0,
            completed_at_s=3.0,
            block_id=0,
            slo_s=1.5,
        )
        assert result.status == "served"
        assert not result.slo_ok
