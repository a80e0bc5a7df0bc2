"""Sharded multi-array fleet scheduler for batched crossbar traffic.

One physical array digitizes at most a fixed number of batch columns per
readout pass — its *batch window*.  Production fleets routinely exceed
that window, so :class:`ShardedOperator` splits an ``(n, B)`` input
block into per-array windows of at most ``batch_window`` columns and
dispatches the windows across one or more operator replicas that share
the same programmed matrix but keep independent device noise and
conversion counters (the ISAAC-style multi-tile serving scenario).

Two scheduling policies are provided:

* ``"round_robin"`` — windows rotate across the shards in arrival
  order (the cursor persists across calls, so successive requests keep
  rotating instead of always starting at shard 0);
* ``"greedy"`` — each window goes to the shard with the least
  *active* (non-zero) columns dispatched so far, which balances real
  device work under skewed traffic where many columns are zero.

Both leave *degenerate* windows — all-zero, carrying no device
work — out of the scheduler state: a dead window is served by whichever
shard the schedule currently favours, without advancing the round-robin
cursor or the load tallies, so dead traffic between two live windows
cannot perturb where the live ones land.

Scheduling is separate from execution.  Window→shard assignment is
always computed serially, under a lock, as a pure function of the block
and the scheduler state (:meth:`ShardedOperator.plan_assignments`
exposes the same decision as a dry run) — but the per-shard
``matmat``/``rmatmat`` calls it produces may execute either one after
another (``parallelism="serial"``, the default) or concurrently on a
thread pool (``parallelism="threads"``).  Shards are independent by
construction and NumPy releases the GIL inside its BLAS and ufunc
kernels, so threaded dispatch scales with cores while window results
are reassembled in submission order.  Every shard of a threaded
crossbar fleet draws read noise from its own generator
(``stream="per_shard"``, which :meth:`ShardedOperator.from_matrix`
requires for threads) and reads its calls in the order a serial fleet
does, so outputs, per-shard counters, generator states, :attr:`loads`
and drift clocks are bit for bit those of serial dispatch, on noisy
backends too (pinned by ``tests/integration/test_parallel_dispatch.py``).

:meth:`fused_sweep` goes one step further for iterative solvers: one
``rmatmat`` → per-column transform → ``matmat`` round trip in which a
forward window is committed the moment the shard owning its transpose
read finishes, instead of after the whole fleet's — so a solver sweep
(e.g. one :func:`~repro.signal.amp_recover_batch` iteration) stops
being a whole-fleet barrier while reproducing the unfused scheduling
trace decision-for-decision.

Fleets age: :meth:`ShardedOperator.advance_time` adds the same elapsed
time to every replica's one drift clock (its ``age_seconds``), so all
shards share one time axis and differ only in when each was last
reprogrammed (:attr:`shard_ages`) or
maintained (:attr:`shard_staleness`); :meth:`gain_dispersion` reports
the resulting spread of per-shard calibration gains — the fleet-level
signature of stale shards serving live traffic.  Attach a
:class:`~repro.crossbar.maintenance.FleetMaintenance` policy to
recalibrate or reprogram shards between dispatch windows; the policy
quiesces the fleet (:meth:`quiesce`) before touching a shard, so
maintenance never overlaps in-flight reads even under threaded or
multi-caller dispatch.

The scheduler preserves the operator protocol — ``matvec``/``rmatvec``,
``matmat``/``rmatmat``, ``shape`` and ``stats`` — so its consumers
(:func:`~repro.signal.amp_recover_batch` and
:class:`~repro.serving.FleetServer`) take a fleet where they would take
one operator.  Two invariants make it safe to
deploy (pinned by ``tests/integration/test_sharding_invariants.py``):

* **result invariance** — every output column depends only on its own
  input column, so on a deterministic backend the sharded result equals
  the unsharded single-array result (bit-for-bit through quantizing
  converters, and to gemm-width rounding on the exact float backend);
* **counter invariance** — conversions are counted per live column, so
  the merged fleet counters equal the single-array counters exactly and
  :meth:`~repro.energy.CrossbarCostModel.energy_from_stats` prices the
  whole fleet from :attr:`ShardedOperator.stats` unchanged.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np

from repro._util import as_rng, check_elapsed, check_finite, check_in, check_int
from repro.crossbar.operator import CrossbarOperator, DenseOperator
from repro.crossbar.tile import split_ranges

__all__ = ["PARALLELISM_MODES", "SHARD_SCHEDULES", "ShardedOperator"]

SHARD_SCHEDULES = ("round_robin", "greedy")
PARALLELISM_MODES = ("serial", "threads")


class ShardedOperator:
    """Window-schedule batched reads across operator replicas.

    Parameters
    ----------
    shards:
        Operator replicas sharing one stored matrix — any objects with
        the ``matvec``/``rmatvec``/``matmat``/``rmatmat``/``shape``/
        ``stats`` protocol (:class:`CrossbarOperator` replicas,
        :class:`DenseOperator` baselines, or a mix for A/B testing).
        All shards must have the same shape.
    batch_window:
        Maximum batch columns one shard digitizes per dispatch — the
        physical readout window of one array.
    schedule:
        ``"round_robin"`` or ``"greedy"`` (see module docstring).
    parallelism:
        ``"serial"`` (default) executes the per-shard calls of one
        dispatch in shard order; ``"threads"`` runs them concurrently
        on a thread pool.  Scheduling decisions are identical in both
        modes; see the module docstring for the determinism contract.
    n_workers:
        Worker threads for ``parallelism="threads"`` (``None`` uses one
        per shard); :meth:`from_matrix` programs a threaded crossbar
        fleet's replicas on as many.  Ignored under serial dispatch.
    """

    def __init__(
        self,
        shards,
        batch_window: int,
        schedule: str = "round_robin",
        parallelism: str = "serial",
        n_workers: int | None = None,
    ) -> None:
        shards = list(shards)
        if not shards:
            raise ValueError("at least one shard is required")
        shape = shards[0].shape
        reference = getattr(shards[0], "matrix", None)
        for shard in shards[1:]:
            if shard.shape != shape:
                raise ValueError(
                    f"all shards must share one shape; got {shard.shape} vs {shape}"
                )
            stored = getattr(shard, "matrix", None)
            if (
                reference is not None
                and stored is not None
                and not np.array_equal(reference, stored)
            ):
                raise ValueError(
                    "all shards must store the same target matrix; the fleet "
                    "contract (result invariance, merged-counter pricing) "
                    "assumes identical replicas"
                )
        batch_window = check_int("batch_window", batch_window)
        check_in("schedule", schedule, SHARD_SCHEDULES)
        check_in("parallelism", parallelism, PARALLELISM_MODES)
        if n_workers is not None:
            n_workers = check_int("n_workers", n_workers)
        self.shards = shards
        self.batch_window = batch_window
        self.schedule = schedule
        self.parallelism = parallelism
        self.n_workers = n_workers if n_workers is not None else len(shards)
        self.maintenance = None
        self._loads = [0] * len(shards)
        self._cursor = 0
        # Retirement: a shard whose reprogram cannot hit the verify
        # target is taken out of rotation.  Retired shards keep their
        # historical counters (merged stats stay the key-wise sums) but
        # receive no new windows, probes or rewrites; the fleet serves
        # at reduced capacity and only errors when nothing remains.
        self._retired = [False] * len(shards)
        # Scheduling stays serial and deterministic under one lock;
        # per-shard locks make each replica's counters and RNG stream
        # single-writer even with concurrent callers; the executor is
        # created lazily on the first threaded dispatch.
        self._scheduler_lock = threading.Lock()
        self._shard_locks = [threading.Lock() for _ in shards]
        self._executor: ThreadPoolExecutor | None = None
        self._executor_lock = threading.Lock()

    @classmethod
    def from_matrix(
        cls,
        matrix: np.ndarray,
        n_shards: int,
        batch_window: int,
        schedule: str = "round_robin",
        parallelism: str = "serial",
        n_workers: int | None = None,
        backend: str = "crossbar",
        stream: str = "shared",
        seed: int | np.random.Generator | None = None,
        **operator_kwargs,
    ) -> "ShardedOperator":
        """Build a fleet of replicas programmed with one matrix.

        ``backend="crossbar"`` programs ``n_shards``
        :class:`CrossbarOperator` replicas from one RNG stream (shared
        target conductances, independent programming/read noise);
        ``backend="exact"`` builds :class:`DenseOperator` baselines.
        ``stream="per_shard"`` instead gives every replica its own
        child RNG stream (spawned from ``seed``), so each shard's noise
        sequence depends only on the calls that shard reads.  A threaded
        crossbar fleet must use it (``ValueError`` otherwise): shards
        sharing one generator would draw in the order their reads
        complete.  Extra keyword arguments go to the crossbar
        constructor.

        A threaded crossbar fleet also programs its replicas
        concurrently, on ``n_workers`` threads of a pool that is joined
        before this returns.  Each replica draws from its own child
        stream only, so every replica, its programming reports and its
        generator state equal a serial build's bit for bit; the first
        replica whose construction raises (in shard order) re-raises
        here, after the pool is joined.  Serial fleets build their
        replicas one after another.
        """
        check_in("backend", backend, ("crossbar", "exact"))
        check_in("stream", stream, ("shared", "per_shard"))
        check_in("parallelism", parallelism, PARALLELISM_MODES)
        n_shards = check_int("n_shards", n_shards)
        if n_workers is not None:
            n_workers = check_int("n_workers", n_workers)
        if backend == "crossbar" and parallelism == "threads" and stream == "shared":
            raise ValueError(
                'a threaded crossbar fleet needs stream="per_shard": shards '
                "sharing one generator draw read noise in completion order"
            )
        if backend == "exact":
            if operator_kwargs or seed is not None or stream != "shared":
                raise ValueError(
                    "seed, stream and operator keyword arguments apply to "
                    "the crossbar backend only"
                )
            shards = [DenseOperator(matrix) for _ in range(n_shards)]
        else:
            rng = as_rng(seed)
            if stream == "per_shard":
                streams = rng.spawn(n_shards)
            else:
                streams = [rng] * n_shards

            def build(child):
                return CrossbarOperator(matrix, seed=child, **operator_kwargs)

            if parallelism == "threads":
                with ThreadPoolExecutor(
                    max_workers=min(n_workers or n_shards, n_shards),
                    thread_name_prefix="shard-build",
                ) as pool:
                    shards = list(pool.map(build, streams))
            else:
                shards = [build(child) for child in streams]
        return cls(
            shards,
            batch_window,
            schedule=schedule,
            parallelism=parallelism,
            n_workers=n_workers,
        )

    # -- introspection ---------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self.shards[0].shape

    @property
    def matrix(self) -> np.ndarray:
        """The shared target matrix (every replica stores the same A)."""
        return self.shards[0].matrix

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def loads(self) -> tuple[int, ...]:
        """Active (non-zero) columns dispatched to each shard so far."""
        return tuple(self._loads)

    @property
    def retired_shards(self) -> tuple[bool, ...]:
        """Per-shard retirement flags, in shard order."""
        return tuple(self._retired)

    @property
    def n_active_shards(self) -> int:
        """Shards still in the dispatch rotation."""
        return len(self.shards) - sum(self._retired)

    def _active_indices(self) -> list[int]:
        return [i for i, retired in enumerate(self._retired) if not retired]

    def retire_shard(self, index: int) -> bool:
        """Take a replica out of the dispatch rotation permanently.

        Subsequent windows rebalance across the remaining shards (the
        fleet degrades to reduced capacity, never a crash — dispatch
        errors only once *zero* shards remain).  The shard keeps its
        counters, so merged :attr:`stats` still equal the per-shard
        sums; it just stops accumulating new work, probes or pulses.
        Returns ``True`` if the shard was live, ``False`` if it was
        already retired (retirement is idempotent).

        Retirement mutates scheduler state (the retired flags the
        candidate lists are built from and the round-robin cursor), so
        it runs under ``_scheduler_lock`` — a retirement can never
        interleave a concurrent ``_assign`` / :meth:`plan_assignments`
        mid-plan.  The round-robin cursor is remapped onto the
        survivors so the shard that was next in the rotation before
        the retirement is still next after it (minus the retiree): the
        cursor indexes the *candidate list*, whose length just changed,
        and without the remap a retirement would silently re-base the
        rotation and skew which survivor serves the next window.
        """
        index = check_int("index", index, minimum=0)
        if index >= len(self.shards):
            raise ValueError(
                f"index must be a shard index in [0, {len(self.shards)}), "
                f"got {index!r}"
            )
        with self._scheduler_lock:
            if self._retired[index]:
                return False
            candidates = self._active_indices()
            survivors = [i for i in candidates if i != index]
            if survivors:
                position = self._cursor % len(candidates)
                upcoming = candidates[position]
                if upcoming == index:
                    upcoming = candidates[(position + 1) % len(candidates)]
                self._cursor = survivors.index(upcoming)
            else:
                self._cursor = 0
            self._retired[index] = True
            return True

    @property
    def shard_ages(self) -> tuple[float, ...]:
        """Per-shard drift clocks: seconds since each replica was
        (re)programmed.  Exact shards have no clock and report 0."""
        return tuple(
            float(getattr(shard, "age_seconds", 0.0)) for shard in self.shards
        )

    @property
    def shard_staleness(self) -> tuple[float, ...]:
        """Per-shard seconds since the last maintenance event."""
        return tuple(
            float(getattr(shard, "staleness_seconds", 0.0))
            for shard in self.shards
        )

    @property
    def shard_gains(self) -> tuple[float, ...]:
        """Per-shard calibrated digital gains (1.0 where not modelled)."""
        return tuple(float(getattr(shard, "gain", 1.0)) for shard in self.shards)

    def gain_dispersion(self) -> dict[str, float]:
        """Fleet-level gain-dispersion stats.

        Stale shards serving live traffic diverge from freshly
        maintained ones; the spread of per-shard calibration gains (and
        the worst staleness behind it) is the fleet-health signal a
        :class:`~repro.crossbar.maintenance.FleetMaintenance` policy
        drives to zero.
        """
        gains = self.shard_gains
        return {
            "gain_min": min(gains),
            "gain_max": max(gains),
            "gain_mean": sum(gains) / len(gains),
            "gain_spread": max(gains) - min(gains),
            "staleness_max_s": max(self.shard_staleness),
        }

    def window_spans(self, batch: int) -> list[tuple[int, int]]:
        """The ``[start, stop)`` column windows a batch splits into."""
        if batch < 0:
            raise ValueError("batch must be non-negative")
        if batch == 0:
            return []
        return split_ranges(batch, self.batch_window)

    # -- scheduling ------------------------------------------------------------
    def _pick_shard(self, active_columns: int) -> int:
        """Choose the shard for one window and record its load.

        Degenerate windows (``active_columns == 0``) carry no device
        work: they are served by whichever shard the schedule currently
        favours, but never advance the round-robin cursor or the load
        tallies, so dead traffic cannot perturb the live schedule.

        Retired shards are out of rotation: the round-robin cycle and
        the greedy argmin run over the surviving shards only (with no
        retirements the candidate list is every shard, so the schedule
        is bit-for-bit what it always was).  A fleet with zero live
        shards cannot serve and raises ``RuntimeError``.
        """
        candidates = self._active_indices()
        if not candidates:
            raise RuntimeError(
                "all shards are retired; the fleet has no serving capacity"
            )
        if self.schedule == "round_robin":
            index = candidates[self._cursor % len(candidates)]
            if active_columns:
                self._cursor += 1
        else:  # greedy-by-active-columns, lowest index breaks ties
            index = min(candidates, key=lambda i: (self._loads[i], i))
        self._loads[index] += active_columns
        return index

    def _assign_windows(self, block: np.ndarray) -> list[tuple[int, int, int]]:
        """``(start, stop, shard)`` per window, advancing scheduler state.

        The assignment sequence is a pure function of the block's
        per-window active-column counts and the scheduler state
        (``loads``, cursor and retirement flags) at call time — no
        clock, RNG or execution-timing input — which is what makes
        serial and threaded dispatch schedule identically.
        """
        plan = []
        for start, stop in self.window_spans(block.shape[1]):
            window = block[:, start:stop]
            active = int(np.count_nonzero(np.any(window != 0.0, axis=0)))
            plan.append((start, stop, self._pick_shard(active)))
        return plan

    def _assign(self, block: np.ndarray) -> list[np.ndarray]:
        """Per-shard column index arrays for one dispatched block."""
        per_shard: list[list[np.ndarray]] = [[] for _ in self.shards]
        for start, stop, shard in self._assign_windows(block):
            per_shard[shard].append(np.arange(start, stop))
        return [
            np.concatenate(columns) if columns else np.empty(0, dtype=int)
            for columns in per_shard
        ]

    def plan_assignments(self, block: np.ndarray) -> list[tuple[int, int, int]]:
        """Dry-run the scheduler: the ``(start, stop, shard)`` plan for
        ``block`` without dispatching it or mutating scheduler state.

        ``block`` is a ``matmat`` or ``rmatmat`` input: its row count
        must be one of the fleet's two dimensions and every entry must
        be finite, so a block that dispatch would reject gets no plan.
        The plan is a pure function of the block and the *current*
        scheduler state — loads, cursor and retirement flags.  Planning
        then dispatching therefore yields the
        identical assignment provided no scheduler input changed in
        between.
        """
        block = np.asarray(block, dtype=float)
        m, n = self.shape
        if block.ndim != 2 or block.shape[0] not in (n, m):
            raise ValueError(
                f"block must be 2-D with {n} (matmat) or {m} (rmatmat) rows, "
                f"got shape {block.shape}"
            )
        check_finite("block", block)
        with self._scheduler_lock:
            loads, cursor = list(self._loads), self._cursor
            try:
                return self._assign_windows(block)
            finally:
                self._loads, self._cursor = loads, cursor

    # -- worker management -----------------------------------------------------
    def _pool(self) -> ThreadPoolExecutor:
        with self._executor_lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.n_workers,
                    thread_name_prefix="shard-dispatch",
                )
            return self._executor

    def shutdown(self) -> None:
        """Join and discard the dispatch thread pool (if one exists).

        Safe to call repeatedly; the next threaded dispatch lazily
        recreates the pool.  Serial fleets never own a pool.
        """
        with self._executor_lock:
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None

    @contextmanager
    def quiesce(self):
        """Hold every shard lock: no dispatch work runs in the block.

        Maintenance uses this before calibrating or reprogramming, so a
        replica is never rewritten while a concurrently dispatched
        window is mid-read.  Locks are taken in shard order (workers
        hold at most one shard lock and never wait for another, so the
        ordering cannot deadlock).
        """
        for lock in self._shard_locks:
            lock.acquire()
        try:
            yield
        finally:
            for lock in reversed(self._shard_locks):
                lock.release()

    def _run_maintenance(self) -> None:
        """Give the attached maintenance policy its between-dispatch slot."""
        if self.maintenance is not None:
            self.maintenance.sweep()

    def _shard_call(self, index: int, method: str, sub_block: np.ndarray, after=None):
        """One shard's whole-dispatch product, under its lock, once the
        future ``after`` (an earlier task of the same shard) is done."""
        if after is not None:
            after.result()
        with self._shard_locks[index]:
            return getattr(self.shards[index], method)(sub_block)

    # -- products --------------------------------------------------------------
    def _dispatch(self, block, in_dim: int, out_dim: int, method: str, name: str):
        block = np.asarray(block, dtype=float)
        if block.ndim != 2 or block.shape[0] != in_dim:
            raise ValueError(f"{name} must have shape ({in_dim}, B), got {block.shape}")
        check_finite(name, block)
        if block.shape[1] == 0:
            return np.zeros((out_dim, 0))
        self._run_maintenance()
        with self._scheduler_lock:
            assignment = self._assign(block)
        # Every column belongs to exactly one window and every window to
        # exactly one shard, so the output block is fully written.
        out = np.empty((out_dim, block.shape[1]))
        if self.parallelism == "serial":
            for index, columns in enumerate(assignment):
                if columns.size:
                    out[:, columns] = self._shard_call(index, method, block[:, columns])
            return out
        pool = self._pool()
        pending = [
            (columns, pool.submit(self._shard_call, index, method, block[:, columns]))
            for index, columns in enumerate(assignment)
            if columns.size
        ]
        # Reassemble in submission order: identical writes to serial
        # dispatch, whatever order the workers finished in.
        for columns, future in pending:
            out[:, columns] = future.result()
        return out

    def matmat(self, x_block: np.ndarray) -> np.ndarray:
        """``A @ X`` with the batch window-scheduled across the fleet.

        Each shard digitizes all of its windows as one contiguous
        dispatch, so a fleet call costs ``O(windows per shard)`` array
        passes instead of one pass per column.  Column results and
        conversion counts are independent of the assignment.
        """
        m, n = self.shape
        return self._dispatch(x_block, n, m, "matmat", "X")

    def rmatmat(self, z_block: np.ndarray) -> np.ndarray:
        """``A.T @ Z`` window-scheduled across the fleet."""
        m, n = self.shape
        return self._dispatch(z_block, m, n, "rmatmat", "Z")

    def fused_sweep(self, z_block: np.ndarray, transform):
        """One pipelined ``rmatmat`` → transform → ``matmat`` round trip.

        ``transform(u_columns, columns)`` maps the transpose-read result
        for ``columns`` (absolute indices into ``z_block``) to the
        forward-product input for the same columns; it must be a pure
        per-column function (it may run concurrently for different
        column sets).  Returns ``(x_block, q_block)`` — the assembled
        transform outputs and ``A @ x_block``.

        The scheduling trace reproduces the unfused
        ``rmatmat(Z)`` … ``matmat(X)`` pair decision-for-decision: all
        transpose windows are assigned up front, then forward windows
        strictly in window order, each as soon as the shard that owns
        its transpose read has delivered — so under threaded dispatch a
        fast shard's forward work starts while slow shards are still on
        their transpose reads, and a solver sweep stops being a
        whole-fleet barrier.  Forward windows dispatch per window
        rather than per shard; conversion counters are per live column,
        so totals are unchanged, and the quantizing converters make the
        results bitwise equal on exact-device backends.

        Under threads, each forward task first waits, before it takes
        the shard lock, for the task submitted before it to the same
        shard in this sweep.  Every shard therefore reads its transpose
        block and then its forward windows in window order, as under
        serial dispatch, and on per-shard noise streams the two modes
        agree bit for bit: outputs, counters and generator states
        (pinned by ``tests/integration/test_parallel_dispatch.py``).
        The pool dequeues in submission order, so the awaited task has
        always started, and no worker count (1 included) can deadlock.
        A shard that owns two forward windows reads them one at a time,
        where ``matmat`` reads a shard's windows as one block, so on a
        noisy fleet the fused and unfused sweeps draw alike only when
        no shard gets two windows of one product.

        One quiesced maintenance slot runs per fused sweep (the unfused
        pair enters dispatch twice, but staleness cannot change between
        the two entries, so the action log is identical).
        """
        z_block = np.asarray(z_block, dtype=float)
        m, n = self.shape
        if z_block.ndim != 2 or z_block.shape[0] != m:
            raise ValueError(f"Z must have shape ({m}, B), got {z_block.shape}")
        check_finite("Z", z_block)
        batch = z_block.shape[1]
        x_out = np.empty((n, batch))
        q_out = np.empty((m, batch))
        if batch == 0:
            return x_out, q_out
        self._run_maintenance()
        with self._scheduler_lock:
            reverse_plan = self._assign_windows(z_block)

        # Column sets per transpose-read owner, in window order.
        owner_columns: list[list[np.ndarray]] = [[] for _ in self.shards]
        for start, stop, owner in reverse_plan:
            owner_columns[owner].append(np.arange(start, stop))
        columns_of = [
            np.concatenate(spans) if spans else np.empty(0, dtype=int)
            for spans in owner_columns
        ]

        def reverse_and_transform(owner: int) -> None:
            columns = columns_of[owner]
            u_columns = self._shard_call(owner, "rmatmat", z_block[:, columns])
            produced = np.asarray(transform(u_columns, columns))
            if produced.shape != (n, columns.size):
                # Without the check an (n,) or (n, 1) return would
                # silently broadcast one column's values across the
                # whole window.
                raise ValueError(
                    "transform must return a block of shape "
                    f"({n}, {columns.size}) for its columns, got "
                    f"{produced.shape}"
                )
            x_out[:, columns] = produced

        serial = self.parallelism == "serial"
        if serial:
            reverse_done: list = [None] * len(self.shards)
            for owner, columns in enumerate(columns_of):
                if columns.size:
                    reverse_and_transform(owner)
        else:
            pool = self._pool()
            reverse_done = [
                pool.submit(reverse_and_transform, owner) if columns.size else None
                for owner, columns in enumerate(columns_of)
            ]

        # Commit forward windows strictly in window order, each as soon
        # as its owner's transpose read (hence its x_out columns) is
        # ready; _pick_shard therefore sees the same state sequence the
        # unfused matmat(X) dispatch would.  ``latest`` holds each
        # shard's last task of this sweep, which its next one awaits.
        forward: list[tuple[int, int]] = []
        latest = list(reverse_done)
        for start, stop, owner in reverse_plan:
            if reverse_done[owner] is not None:
                reverse_done[owner].result()
            window = x_out[:, start:stop]
            active = int(np.count_nonzero(np.any(window != 0.0, axis=0)))
            with self._scheduler_lock:
                index = self._pick_shard(active)
            if serial:
                q_out[:, start:stop] = self._shard_call(index, "matmat", window)
            else:
                latest[index] = pool.submit(
                    self._shard_call, index, "matmat", window, after=latest[index]
                )
                forward.append((start, latest[index]))
        for start, future in forward:
            result = future.result()
            q_out[:, start : start + result.shape[1]] = result
        return x_out, q_out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Single-vector read, scheduled as a width-1 window."""
        x = np.asarray(x, dtype=float)
        m, n = self.shape
        if x.shape != (n,):
            raise ValueError(f"x must have shape ({n},), got {x.shape}")
        check_finite("x", x)
        self._run_maintenance()
        with self._scheduler_lock:
            index = self._pick_shard(int(np.any(x != 0.0)))
        with self._shard_locks[index]:
            return self.shards[index].matvec(x)

    def rmatvec(self, z: np.ndarray) -> np.ndarray:
        """Single-vector transpose read, scheduled as a width-1 window."""
        z = np.asarray(z, dtype=float)
        m, n = self.shape
        if z.shape != (m,):
            raise ValueError(f"z must have shape ({m},), got {z.shape}")
        check_finite("z", z)
        self._run_maintenance()
        with self._scheduler_lock:
            index = self._pick_shard(int(np.any(z != 0.0)))
        with self._shard_locks[index]:
            return self.shards[index].rmatvec(z)

    # -- maintenance -----------------------------------------------------------
    def advance_time(self, seconds: float) -> None:
        """Drift every replica that models drift (exact shards don't).

        The whole fleet ages in lockstep, so shard clocks differ only by
        when each shard was last reprogrammed or calibrated.
        ``seconds`` is validated (finite, non-negative) before any
        shard ages, so a bad value never leaves the fleet's drift
        clocks partially advanced or NaN-poisoned.
        """
        seconds = check_elapsed("seconds", seconds)
        for index, replica in enumerate(self.shards):
            if hasattr(replica, "advance_time"):
                with self._shard_locks[index]:
                    replica.advance_time(seconds)

    # -- accounting ------------------------------------------------------------
    @property
    def shard_stats(self) -> list[dict[str, int]]:
        """Per-replica counter dictionaries, in shard order."""
        return [dict(shard.stats) for shard in self.shards]

    @property
    def stats(self) -> dict[str, int]:
        """Merged fleet counters (key-wise sums over the replicas).

        Conversions are counted per live column on every shard, so the
        merged DAC/ADC/live-read totals equal what one array running the
        whole batch would have counted — ``energy_from_stats`` prices
        the fleet without knowing it was sharded.  (Capacity keys such
        as ``n_devices``/``n_tiles`` sum too, and report the fleet's
        total silicon.)
        """
        merged: dict[str, int] = {}
        for shard in self.shards:
            for key, value in shard.stats.items():
                merged[key] = merged.get(key, 0) + value
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedOperator(shape={self.shape}, shards={self.n_shards}, "
            f"batch_window={self.batch_window}, schedule={self.schedule!r}, "
            f"parallelism={self.parallelism!r})"
        )
