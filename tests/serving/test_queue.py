"""Unit tests for request coalescing and admission control.

The queue's release rule (full block OR oldest request past its
coalesce budget) is the latency contract of the whole serving layer —
these tests pin it directly, without a server or a fleet in the loop.
"""

import math

import numpy as np
import pytest

from repro.serving import AdmissionController, Request, RequestQueue
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

    def test_shed_oldest_picks_globally_stalest(self):
        queue = RequestQueue(4, coalesce_budget_s=1.0)
        queue.push(make_request(0, kind="matvec", arrival_s=1.0))
        queue.push(make_request(1, kind="rmatvec", arrival_s=0.5))
        victim = queue.shed_oldest()
        assert victim.id == 1
        assert queue.depth == 1
        assert queue.shed_oldest().id == 0
        assert queue.shed_oldest() is None


class TestAdmissionController:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_depth"):
            AdmissionController(0)
        with pytest.raises(ValueError, match="policy"):
            AdmissionController(4, policy="drop_newest")

    @pytest.mark.parametrize("bad", [2.5, math.inf, math.nan])
    def test_rejects_fractional_depth(self, bad):
        with pytest.raises(ValueError, match="max_depth must be an integer"):
            AdmissionController(bad)

    def test_reject_policy_counts(self):
        queue = RequestQueue(8, 1.0)
        controller = AdmissionController(1, policy="reject")
        assert controller.decide(queue) == "admit"
        queue.push(make_request(0))
        assert controller.decide(queue) == "reject"
        assert (controller.n_admitted, controller.n_rejected) == (1, 1)

    def test_shed_policy_admits_after_eviction(self):
        queue = RequestQueue(8, 1.0)
        controller = AdmissionController(1, policy="shed_oldest")
        queue.push(make_request(0))
        assert controller.decide(queue) == "shed"
        assert controller.n_shed == 1
        assert controller.n_admitted == 1


class TestRequestResult:
    def test_served_latencies_decompose(self):
        result = RequestResult(
            request=make_request(0, arrival_s=1.0),
            status="served",
            value=np.zeros(3),
            dispatched_at_s=2.0,
            completed_at_s=2.5,
            slo_s=2.0,
        )
        assert result.queue_latency_s == pytest.approx(1.0)
        assert result.service_latency_s == pytest.approx(0.5)
        assert result.latency_s == pytest.approx(1.5)
        assert result.slo_ok

    def test_shed_result_has_no_service_latency_and_fails_slo(self):
        result = RequestResult(
            request=make_request(0, arrival_s=1.0),
            status="shed",
            value=None,
            dispatched_at_s=math.nan,
            completed_at_s=1.2,
            slo_s=10.0,
        )
        assert math.isnan(result.queue_latency_s)
        assert math.isnan(result.service_latency_s)
        assert result.latency_s == pytest.approx(0.2)
        assert not result.slo_ok

    def test_no_slo_is_vacuously_met(self):
        result = RequestResult(
            request=make_request(0),
            status="served",
            value=np.zeros(3),
            dispatched_at_s=1e6,
            completed_at_s=2e6,
        )
        assert result.slo_ok
