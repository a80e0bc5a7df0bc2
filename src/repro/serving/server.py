"""The fleet-as-a-service core: coalesce, dispatch, demux, account.

:class:`FleetServer` turns a :class:`~repro.crossbar.ShardedOperator`
from a library call into a long-lived service.  Independent clients
:meth:`submit` single vectors; the server queues them per direction,
coalesces them into blocks of up to the fleet's ``batch_window``
columns under a latency budget (see
:class:`~repro.serving.queue.RequestQueue`), dispatches each block
across the fleet with one ``matmat``/``rmatmat`` call, and
demultiplexes the result columns back to their requests — so a
thousand one-vector clients ride the same windowed, sharded, batched
path a single ``(n, 1000)`` caller would, and the fleet's counters
price the traffic identically.

Time is modelled, not measured: the server reads a clock object
(:class:`~repro.serving.clock.VirtualClock` by default) and charges
each dispatched block ``ceil(B / batch_window) * window_service_s`` of
busy time on a single fleet-wide service line.  Queue latency
(arrival → dispatch), service latency (dispatch → completion) and SLO
conformance therefore come out deterministic for a given arrival
trace — the property the determinism suite pins.  :meth:`advance` moves
the serving clock and the fleet's drift clocks together, so traffic,
drift and maintenance share one time axis.

Tenancy: every request carries a tenant label, and the counter deltas
of each dispatched block are attributed to tenants by their live
columns (largest-remainder split, so per-tenant integer counters sum
*exactly* to the fleet's merged counters).  ``tenant_stats`` hands each
tenant a stats dict that
:meth:`~repro.energy.CrossbarCostModel.energy_from_stats` prices
directly.  A fleet with an attached
:class:`~repro.crossbar.FleetMaintenance` policy is refused: its
reactive sweeps would run inside dispatch and be billed to tenants, so
maintenance is served through a
:class:`~repro.serving.windows.MaintenanceWindow` instead.

Every submitted request is queued, served and counted one way: the
queue is unbounded, and a request leaves it only in a dispatched
block.

An idle server is free: constructing one touches nothing but the
fleet's shape, so a fleet with a server attached but no traffic stays
bitwise identical to a bare fleet (results, counters, maintenance
logs) — pinned by the serving benchmark's neutrality gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro._util import check_elapsed, check_finite, check_in
from repro.energy.crossbar_cost import REQUIRED_STATS_KEYS
from repro.serving.clock import VirtualClock
from repro.serving.queue import REQUEST_KINDS, Request, RequestQueue, RequestResult

__all__ = ["BlockDispatch", "FleetServer"]

# A tenant's request counts before its first submission.
_NO_REQUESTS = {"submitted": 0, "served": 0, "slo_violations": 0}

# Counter keys that tally *logical* per-column reads (dead columns
# included); everything else in a dispatch delta scales with the live
# columns only.
_LOGICAL_KEYS = ("n_matvec", "n_rmatvec")


@dataclass(frozen=True)
class BlockDispatch:
    """One coalesced block the server pushed through the fleet.

    The sequence of these — ids, directions, request membership and
    column order — is the serving layer's scheduling trace: identical
    arrival traces must produce identical block logs (the determinism
    contract), and each :class:`RequestResult` points back to its block
    via ``block_id``.
    """

    block_id: int
    kind: str
    request_ids: tuple[int, ...]
    tenants: tuple[str, ...]
    columns: int
    live_columns: int
    windows: int
    dispatched_at_s: float
    completed_at_s: float


def _largest_remainder(value: int, weights: dict[str, int]) -> dict[str, int]:
    """Split integer ``value`` across keys proportionally to ``weights``.

    Exact by construction: shares sum to ``value``; remainders break
    ties deterministically (largest remainder first, then key order) so
    the split is reproducible run to run.
    """
    total = sum(weights.values())
    shares: dict[str, int] = {}
    remainders: list[tuple[int, str]] = []
    assigned = 0
    for key in sorted(weights):
        quotient, remainder = divmod(value * weights[key], total)
        shares[key] = quotient
        assigned += quotient
        remainders.append((-remainder, key))
    for _, key in sorted(remainders)[: value - assigned]:
        shares[key] += 1
    return shares


class FleetServer:
    """Long-lived serving layer over a sharded crossbar fleet.

    Parameters
    ----------
    fleet:
        The :class:`~repro.crossbar.ShardedOperator` (or any object
        with the ``matmat``/``rmatmat``/``shape``/``stats``/
        ``batch_window`` protocol) that executes coalesced blocks.
        Blocks hold up to ``batch_window`` columns, one full readout
        pass per shard dispatch.  A fleet with an attached maintenance
        policy raises ``ValueError``, here and at every dispatch.
    clock:
        Time source (``now()``/``advance(seconds)``); defaults to a
        fresh :class:`VirtualClock` at 0.
    coalesce_budget_s:
        Longest a request waits for co-travellers before its partial
        block dispatches anyway.
    window_service_s:
        Modelled service time of one ``batch_window``-column readout
        pass; a block of B columns occupies the service line for
        ``ceil(B / batch_window)`` windows' worth.
    slo_s:
        Per-request latency objective in seconds, the same for every
        tenant; must be finite and non-negative.  Purely observational:
        requests are never dropped for missing it, but
        :meth:`latency_summary` reports the violations.
    maintenance:
        Optional :class:`~repro.serving.windows.MaintenanceWindow`;
        when set, every :meth:`step` offers it the server first, so
        maintenance probes/pulses occupy the same service line the
        requests queue for.
    """

    def __init__(
        self,
        fleet,
        clock=None,
        *,
        coalesce_budget_s: float = 1.0,
        window_service_s: float = 1.0,
        slo_s: float | None = None,
        maintenance=None,
    ) -> None:
        self.fleet = fleet
        self._check_detached()
        self.clock = clock if clock is not None else VirtualClock()
        self.window_service_s = check_elapsed("window_service_s", window_service_s)
        self.queue = RequestQueue(fleet.batch_window, coalesce_budget_s)
        if slo_s is not None:
            slo_s = check_elapsed("slo_s", slo_s)
        self.slo_s = slo_s
        self.maintenance = maintenance
        if maintenance is not None:
            maintenance.bind(self)
        self._next_id = 0
        self._busy_until_s = -math.inf
        self.completed: list[RequestResult] = []
        self.block_log: list[BlockDispatch] = []
        self._tenant_counters: dict[str, dict[str, int]] = {}
        self._tenant_requests: dict[str, dict[str, int]] = {}

    def _check_detached(self) -> None:
        """Refuse a fleet whose maintenance policy sweeps inside dispatch.

        An attached policy's probes would land in the counter delta of
        the block that triggered them, split across tenants, and be
        billed again as maintenance.  Checked at construction and before
        each dispatch, since a policy can be attached to the fleet after
        the server is built.
        """
        if getattr(self.fleet, "maintenance", None) is not None:
            raise ValueError(
                "fleet has an attached maintenance policy, whose sweeps "
                "would be billed to tenants; build the policy with "
                "attach=False and pass it to a MaintenanceWindow"
            )

    # -- submission ------------------------------------------------------------
    def submit(
        self, vector: np.ndarray, tenant: str = "default", kind: str = "matvec"
    ) -> Request:
        """Queue one vector for coalesced dispatch; returns its
        :class:`Request`.

        A tenant that is not a ``str`` raises ``TypeError``, and a
        vector of the wrong shape or holding NaN or inf raises
        ``ValueError``, before anything is counted or queued, so one bad
        request can never fail a coalesced block.
        """
        check_in("kind", kind, REQUEST_KINDS)
        if not isinstance(tenant, str):
            raise TypeError(f"tenant must be a str, got {tenant!r}")
        vector = np.asarray(vector, dtype=float)
        m, n = self.fleet.shape
        expected = n if kind == "matvec" else m
        if vector.shape != (expected,):
            raise ValueError(
                f"{kind} request must have shape ({expected},), "
                f"got {vector.shape}"
            )
        check_finite(f"{kind} request", vector)
        if tenant not in self._tenant_requests:
            self._tenant_requests[tenant] = dict(_NO_REQUESTS)
        self._tenant_requests[tenant]["submitted"] += 1
        request = Request(
            id=self._next_id,
            tenant=tenant,
            kind=kind,
            vector=vector,
            arrival_s=self.clock.now(),
        )
        self._next_id += 1
        self.queue.push(request)
        return request

    # -- dispatch --------------------------------------------------------------
    def next_deadline_s(self) -> float | None:
        """Earliest time the queue will release a partial block (the
        coalesce deadline of the oldest queued request), or ``None``
        when nothing is queued.  Replay loops advance the clock here."""
        return self.queue.next_deadline_s()

    def step(self) -> list[RequestResult]:
        """Serve everything due at the current clock time.

        A due maintenance window runs first (its probes and pulses
        seize the service line, delaying the blocks behind it — the
        "maintenance reads are not free" contract), then each lane
        releases blocks while full ones are waiting or its oldest
        request has exhausted the coalesce budget.  Returns the results
        completed by this call, in dispatch order.
        """
        served: list[RequestResult] = []
        if self.maintenance is not None:
            self.maintenance.maybe_run(self)
        now = self.clock.now()
        for kind in REQUEST_KINDS:
            while self.queue.due(kind, now):
                served.extend(self._dispatch_block(kind))
        return served

    def flush(self) -> list[RequestResult]:
        """Dispatch every queued request now, budgets notwithstanding.

        End-of-trace drain; maintenance still gets its look first via
        the normal :meth:`step` path.
        """
        served = self.step()
        for kind in REQUEST_KINDS:
            while self.queue.lane_depth(kind):
                served.extend(self._dispatch_block(kind))
        return served

    def _dispatch_block(self, kind: str) -> list[RequestResult]:
        self._check_detached()
        requests = self.queue.pop_block(kind)
        if not requests:
            return []
        block = np.stack([request.vector for request in requests], axis=1)
        before = dict(self.fleet.stats)
        if kind == "matvec":
            out = self.fleet.matmat(block)
        else:
            out = self.fleet.rmatmat(block)
        after = self.fleet.stats
        delta = {
            key: int(after.get(key, 0)) - int(before.get(key, 0))
            for key in after.keys() | before.keys()
            if after.get(key, 0) != before.get(key, 0)
        }

        now = self.clock.now()
        start = max(now, self._busy_until_s)
        batch = block.shape[1]
        windows = -(-batch // int(self.fleet.batch_window))
        service = windows * self.window_service_s
        self._busy_until_s = start + service
        completed_at = start + service

        live_flags = [bool(np.any(request.vector != 0.0)) for request in requests]
        self._attribute_counters(delta, requests, live_flags)

        block_id = len(self.block_log)
        self.block_log.append(
            BlockDispatch(
                block_id=block_id,
                kind=kind,
                request_ids=tuple(request.id for request in requests),
                tenants=tuple(request.tenant for request in requests),
                columns=batch,
                live_columns=sum(live_flags),
                windows=windows,
                dispatched_at_s=start,
                completed_at_s=completed_at,
            )
        )

        results = []
        for column, request in enumerate(requests):
            result = RequestResult(
                request=request,
                value=out[:, column].copy(),
                dispatched_at_s=start,
                completed_at_s=completed_at,
                block_id=block_id,
                slo_s=self.slo_s,
            )
            entry = self._tenant_requests[request.tenant]
            entry["served"] += 1
            if not result.slo_ok:
                entry["slo_violations"] += 1
            self.completed.append(result)
            results.append(result)
        return results

    def _attribute_counters(self, delta, requests, live_flags) -> None:
        """Split a dispatch's counter delta across its tenants.

        Logical read counts split by each tenant's column count; every
        other counter (conversions, live reads) by its live columns.
        Largest-remainder keeps the split integral and exactly summing
        to the fleet delta, so merged tenant ledgers always equal the
        fleet's own counters for the served traffic.
        """
        column_weights: dict[str, int] = {}
        live_weights: dict[str, int] = {}
        for request, live in zip(requests, live_flags):
            column_weights[request.tenant] = (
                column_weights.get(request.tenant, 0) + 1
            )
            if live:
                live_weights[request.tenant] = (
                    live_weights.get(request.tenant, 0) + 1
                )
        for key, value in delta.items():
            weights = column_weights if key in _LOGICAL_KEYS else live_weights
            if not weights:
                weights = column_weights
            shares = _largest_remainder(value, weights)
            for tenant, share in shares.items():
                if share:
                    ledger = self._tenant_counters.setdefault(tenant, {})
                    ledger[key] = ledger.get(key, 0) + share

    # -- time ------------------------------------------------------------------
    def advance(self, seconds: float) -> float:
        """Advance the serving clock and the fleet's drift clocks in
        lockstep — the simulation's single time axis, so maintenance
        triggers and coalesce deadlines share it.  Returns the new
        time."""
        if hasattr(self.fleet, "advance_time"):
            self.fleet.advance_time(seconds)
        return self.clock.advance(seconds)

    def replay(self, events) -> list[RequestResult]:
        """Drive a whole arrival trace deterministically.

        ``events`` is an iterable of ``(at_s, tenant, kind, vector)``
        with finite, non-decreasing arrival times.  The clock advances
        through every coalesce deadline on the way to each arrival (so
        partial blocks dispatch exactly when their budget expires, not
        when the next request happens to show up), each arrival submits
        and steps, and the tail drains through its deadlines and a final
        flush.  Same trace, same clock start ⇒ same block log, bit for
        bit.  A NaN, infinite or earlier arrival time raises
        ``ValueError`` before the clock moves towards it.
        """
        for at_s, tenant, kind, vector in events:
            at_s = float(at_s)
            if not math.isfinite(at_s):
                raise ValueError(f"event arrival times must be finite, got {at_s!r}")
            if at_s < self.clock.now():
                raise ValueError(
                    "events must arrive in non-decreasing time order; got "
                    f"{at_s:g} after {self.clock.now():g}"
                )
            while True:
                deadline = self.next_deadline_s()
                if deadline is None or deadline > at_s:
                    break
                self.advance(deadline - self.clock.now())
                self.step()
            self.advance(at_s - self.clock.now())
            self.submit(vector, tenant=tenant, kind=kind)
            self.step()
        while True:
            deadline = self.next_deadline_s()
            if deadline is None:
                break
            self.advance(deadline - self.clock.now())
            self.step()
        self.flush()
        return list(self.completed)

    # -- accounting ------------------------------------------------------------
    @property
    def tenants(self) -> tuple[str, ...]:
        """Every tenant that has submitted at least one request."""
        return tuple(sorted(self._tenant_requests))

    def tenant_stats(self, tenant: str) -> dict[str, int]:
        """The tenant's counter ledger, in ``stats`` form.

        Always carries the keys ``energy_from_stats`` requires (zeroed
        before traffic), so a tenant's bill prices like any operator
        run:  ``model.energy_from_stats(server.tenant_stats("amp"))``.
        """
        ledger = {key: 0 for key in REQUIRED_STATS_KEYS}
        ledger.update(self._tenant_counters.get(tenant, {}))
        return ledger

    def tenant_requests(self, tenant: str) -> dict[str, int]:
        """Submitted/served/SLO-violation counts for one tenant (zeros
        for a tenant that never submitted)."""
        return dict(self._tenant_requests.get(tenant, _NO_REQUESTS))

    @property
    def served_counters(self) -> dict[str, int]:
        """Key-wise sum of every tenant ledger — by construction equal
        to the fleet counter delta attributable to served traffic."""
        merged: dict[str, int] = {}
        for ledger in self._tenant_counters.values():
            for key, value in ledger.items():
                merged[key] = merged.get(key, 0) + value
        return merged

    def latency_summary(self, tenant: str | None = None) -> dict[str, float]:
        """Latency and conformance metrics over completed requests.

        ``tenant=None`` aggregates every tenant; a tenant that never
        submitted reports zero served requests.
        """
        rows = [
            result
            for result in self.completed
            if tenant is None or result.request.tenant == tenant
        ]
        out = {
            "n_served": float(len(rows)),
            "slo_violations": float(sum(not row.slo_ok for row in rows)),
        }
        if rows:
            latencies = np.array([row.latency_s for row in rows], dtype=float)
            out.update(
                {
                    "latency_p50_s": float(np.percentile(latencies, 50)),
                    "latency_p99_s": float(np.percentile(latencies, 99)),
                    "latency_max_s": float(latencies.max()),
                    "queue_latency_mean_s": float(
                        np.mean([row.queue_latency_s for row in rows])
                    ),
                    "service_latency_mean_s": float(
                        np.mean([row.service_latency_s for row in rows])
                    ),
                }
            )
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FleetServer(blocks={len(self.block_log)}, "
            f"queued={self.queue.depth}, completed={len(self.completed)}, "
            f"tenants={list(self.tenants)})"
        )
