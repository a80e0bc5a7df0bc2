"""Request coalescing for fleet serving.

A production crossbar fleet is not called with tidy ``(n, B)`` blocks —
it sees a stream of single-vector (or small-batch) requests from many
independent clients.  One array still digitizes ``batch_window`` batch
columns per readout pass, so serving each request as its own dispatch
wastes almost the whole window.  :class:`RequestQueue` closes that gap
with *deadline-bounded batching*: requests accumulate per direction
(``matvec`` forward reads vs ``rmatvec`` transpose reads — the two can
never share a dispatch) and a block is released either when it fills
``block_columns`` columns or when the oldest queued request has waited
its whole ``coalesce_budget_s`` — so batching can add at most the
budget to any request's latency, whatever the traffic looks like.
Every queued request is served: the queue has no overload path.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro._util import check_elapsed, check_in, check_int

__all__ = [
    "Request",
    "RequestQueue",
    "RequestResult",
    "REQUEST_KINDS",
]

#: The two dispatch directions a request can take through the fleet.
REQUEST_KINDS = ("matvec", "rmatvec")


@dataclass(frozen=True)
class Request:
    """One client request: a single vector awaiting a fleet read.

    ``kind="matvec"`` asks for ``A @ x`` (vector of length ``n``),
    ``kind="rmatvec"`` for ``A.T @ z`` (length ``m``).  ``tenant``
    labels the workload for per-tenant accounting.
    """

    id: int
    tenant: str
    kind: str
    vector: np.ndarray = field(repr=False)
    arrival_s: float


@dataclass(frozen=True)
class RequestResult:
    """One served request: its value and its latencies.

    ``value`` holds the request's result column, and ``block_id``
    indexes the coalesced block that carried it in
    :attr:`FleetServer.block_log`.
    """

    request: Request
    value: np.ndarray = field(repr=False)
    dispatched_at_s: float
    completed_at_s: float
    block_id: int
    slo_s: float | None = None

    @property
    def status(self) -> str:
        """Always ``"served"``: only a served request has a result."""
        return "served"

    @property
    def queue_latency_s(self) -> float:
        """Seconds spent queued before the block dispatched."""
        return self.dispatched_at_s - self.request.arrival_s

    @property
    def service_latency_s(self) -> float:
        """Seconds of modelled fleet service time for the block."""
        return self.completed_at_s - self.dispatched_at_s

    @property
    def latency_s(self) -> float:
        """End-to-end seconds from arrival to completion."""
        return self.completed_at_s - self.request.arrival_s

    @property
    def slo_ok(self) -> bool:
        """Whether the request met its latency SLO (vacuously true
        without one)."""
        return self.slo_s is None or self.latency_s <= self.slo_s


class RequestQueue:
    """Per-direction FIFO lanes with deadline-bounded block release.

    Parameters
    ----------
    block_columns:
        Columns per coalesced block — normally the fleet's
        ``batch_window`` (one array readout pass) or a multiple of it.
    coalesce_budget_s:
        Longest a request may wait for co-travellers.  A lane whose
        oldest request has aged past the budget releases a partial
        block immediately; zero disables coalescing (every request
        dispatches alone as soon as the server looks).
    """

    def __init__(self, block_columns: int, coalesce_budget_s: float) -> None:
        self.block_columns = check_int("block_columns", block_columns)
        self.coalesce_budget_s = check_elapsed("coalesce_budget_s", coalesce_budget_s)
        self._lanes: dict[str, deque[Request]] = {
            kind: deque() for kind in REQUEST_KINDS
        }

    @property
    def depth(self) -> int:
        """Total queued requests across both lanes."""
        return sum(len(lane) for lane in self._lanes.values())

    def lane_depth(self, kind: str) -> int:
        check_in("kind", kind, REQUEST_KINDS)
        return len(self._lanes[kind])

    def push(self, request: Request) -> None:
        self._lanes[request.kind].append(request)

    def oldest_arrival_s(self, kind: str) -> float | None:
        """Arrival time of the lane's oldest request (None if empty)."""
        lane = self._lanes[kind]
        return lane[0].arrival_s if lane else None

    def deadline_s(self, kind: str) -> float | None:
        """When the lane's oldest request exhausts its coalesce budget."""
        oldest = self.oldest_arrival_s(kind)
        if oldest is None:
            return None
        return oldest + self.coalesce_budget_s

    def next_deadline_s(self) -> float | None:
        """Earliest coalesce deadline across both lanes (None if idle)."""
        deadlines = [
            deadline
            for deadline in (self.deadline_s(kind) for kind in REQUEST_KINDS)
            if deadline is not None
        ]
        return min(deadlines) if deadlines else None

    def due(self, kind: str, now_s: float) -> bool:
        """Whether the lane should release a block at ``now_s``:
        a full block's worth is waiting, or the oldest request's
        coalesce budget has expired."""
        lane = self._lanes[kind]
        if not lane:
            return False
        if len(lane) >= self.block_columns:
            return True
        return now_s >= lane[0].arrival_s + self.coalesce_budget_s

    def pop_block(self, kind: str) -> list[Request]:
        """Release up to ``block_columns`` requests, FIFO order."""
        lane = self._lanes[kind]
        count = min(len(lane), self.block_columns)
        return [lane.popleft() for _ in range(count)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        depths = {kind: len(lane) for kind, lane in self._lanes.items()}
        return (
            f"RequestQueue(block_columns={self.block_columns}, "
            f"coalesce_budget_s={self.coalesce_budget_s:g}, depths={depths})"
        )

