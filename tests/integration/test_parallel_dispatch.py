"""Concurrency-determinism suite for parallel cross-shard dispatch.

PRs 1-5 pinned every fleet invariant under serial execution; this suite
pins that ``parallelism="threads"`` changes *nothing observable*.
Across a seeded ``(shards, batch_window, B, workers)`` grid:

* raw products — threaded ``matmat``/``rmatmat`` are bitwise identical
  to serial dispatch on the quantizing ideal-device crossbar and the
  float-exact dense backend, with equal per-shard counters, merged
  counters and :attr:`loads`;
* noisy replay — on per-shard noise streams, threaded ``matmat``,
  ``rmatmat`` and ``fused_sweep`` equal serial dispatch bit for bit,
  generator states included, with both schedules, shards that read two
  or more forward windows per sweep and one worker; each shard reads its
  calls in serial order, and a threaded recovery replays exactly;
* consumers — AMP (through the pipelined ``fused_sweep`` path)
  produces identical outputs and iteration histories through a
  threaded fleet;
* lifecycle — drift clocks, staleness, gains and the maintenance action
  log evolve identically under both execution modes;
* races — concurrent callers hammering one fleet (high worker count,
  per-shard RNG streams) lose no counter updates: per-shard stats sum
  to merged stats and to the dispatched totals;
* schedule purity — for every schedule, the window→shard assignment is
  a pure function of the block's live-column pattern and prior
  scheduler state, identical under both execution modes;
* validation & degenerates — bad ``parallelism``/``n_workers`` reject
  with clear errors, and B=0 / all-zero blocks behave identically (and
  bill nothing) under threaded dispatch.
"""

import threading
import time

import numpy as np
import pytest

from repro.crossbar import (
    PARALLELISM_MODES,
    SHARD_SCHEDULES,
    DenseOperator,
    ShardedOperator,
)
from repro.crossbar.maintenance import FleetMaintenance
from repro.devices import PcmDevice
from repro.signal import CsProblem, amp_recover_batch, soft_threshold

COUNTER_KEYS = (
    "n_matvec",
    "n_rmatvec",
    "n_live_matvec",
    "n_live_rmatvec",
    "dac_conversions",
    "adc_conversions",
)

# (shards, batch_window, B, workers): even windows, ragged last windows,
# more shards than windows, B < batch_window, and worker counts below,
# at, and above the shard count.
GRID = [
    (1, 4, 8, 1),
    (2, 3, 8, 2),
    (2, 4, 8, 4),
    (3, 5, 4, 2),
    (4, 2, 7, 8),
]


def counters(operator):
    stats = operator.stats
    return {key: stats[key] for key in COUNTER_KEYS if key in stats}


def make_mode_pair(
    matrix, shards, window, schedule="round_robin", workers=None,
    backend="crossbar", device=None,
):
    """Twin fleets differing only in execution mode.

    Crossbar twins draw from per-shard streams (a threaded crossbar
    fleet must), on ideal devices unless ``device`` says otherwise.
    Ideal-device replicas are deterministic, so any observable
    divergence between the twins is attributable to threading alone.
    """
    kwargs = dict(
        n_shards=shards,
        batch_window=window,
        schedule=schedule,
        backend=backend,
    )
    if backend == "crossbar":
        kwargs.update(device=device or PcmDevice.ideal(), stream="per_shard", seed=0)
    serial = ShardedOperator.from_matrix(matrix, parallelism="serial", **kwargs)
    threaded = ShardedOperator.from_matrix(
        matrix, parallelism="threads", n_workers=workers, **kwargs
    )
    return serial, threaded


def assert_fleets_identical(serial, threaded):
    """Full observable-state identity: counters, loads, clocks, gains."""
    assert counters(serial) == counters(threaded)
    assert serial.stats == threaded.stats
    assert serial.shard_stats == threaded.shard_stats
    assert serial.loads == threaded.loads
    assert serial.shard_ages == threaded.shard_ages
    assert serial.shard_staleness == threaded.shard_staleness
    assert serial.gain_dispersion() == threaded.gain_dispersion()


class TestRawProductEquivalence:
    @pytest.mark.parametrize("shards,window,batch,workers", GRID)
    def test_crossbar_products_bitwise(self, shards, window, batch, workers, rng):
        matrix = rng.standard_normal((18, 30))
        x_block = rng.standard_normal((30, batch))
        x_block[:, batch // 2] = 0.0  # a dead column in some window
        z_block = rng.standard_normal((18, batch))
        serial, threaded = make_mode_pair(matrix, shards, window, workers=workers)
        assert np.array_equal(serial.matmat(x_block), threaded.matmat(x_block))
        assert np.array_equal(serial.rmatmat(z_block), threaded.rmatmat(z_block))
        assert_fleets_identical(serial, threaded)
        threaded.shutdown()

    @pytest.mark.parametrize("shards,window,batch,workers", GRID)
    def test_exact_products_bitwise(self, shards, window, batch, workers, rng):
        """Dense shards run the same gemm widths in both modes, so even
        the float backend is bitwise — not merely close."""
        matrix = rng.standard_normal((18, 30))
        x_block = rng.standard_normal((30, batch))
        serial, threaded = make_mode_pair(
            matrix, shards, window, workers=workers, backend="exact"
        )
        assert np.array_equal(serial.matmat(x_block), threaded.matmat(x_block))
        assert_fleets_identical(serial, threaded)

    def test_interleaved_traffic_keeps_identical_state(self, rng):
        """Scheduler state (cursor, loads) stays in lockstep across a
        mixed matmat/rmatmat call sequence with dead windows."""
        matrix = rng.standard_normal((18, 30))
        serial, threaded = make_mode_pair(matrix, 3, 4, schedule="greedy", workers=2)
        for step in range(5):
            x_block = rng.standard_normal((30, 6 + step))
            x_block[:, : step % 3] = 0.0
            z_block = rng.standard_normal((18, 9 - step))
            assert np.array_equal(serial.matmat(x_block), threaded.matmat(x_block))
            assert serial.loads == threaded.loads
            assert np.array_equal(serial.rmatmat(z_block), threaded.rmatmat(z_block))
            assert serial.loads == threaded.loads
        assert_fleets_identical(serial, threaded)


# (shards, batch_window, B, workers) where some shard reads two or more
# forward windows in every fused sweep, with one worker and with more
# workers than shards.
MULTI_WINDOW_GRID = [(2, 1, 6, 1), (3, 2, 12, 1), (2, 1, 6, 6), (3, 2, 13, 8)]


def generator_states(fleet):
    """Each shard's noise-stream state (every tile of a shard draws from
    the shard's one generator)."""
    return [shard._tiles[(0, 0)]._rng.bit_generator.state for shard in fleet.shards]


def thresholded(tau):
    """A per-column soft threshold, the transform AMP's fused sweep runs."""
    return lambda u, cols: soft_threshold(u, tau[cols])


def assert_noisy_replay(serial, threaded, rng, sweeps=3):
    """``matmat``, ``rmatmat`` and ``sweeps`` fused sweeps on both twins
    equal bit for bit, as do their counters, loads and noise streams."""
    m, n = serial.shape
    for sweep in range(sweeps):
        batch = 6 + 3 * sweep
        x_block = rng.standard_normal((n, batch))
        x_block[:, batch // 2] = 0.0  # a dead column in some window
        z_block = rng.standard_normal((m, batch))
        transform = thresholded(np.abs(rng.standard_normal(batch)))
        assert np.array_equal(serial.matmat(x_block), threaded.matmat(x_block))
        assert np.array_equal(serial.rmatmat(z_block), threaded.rmatmat(z_block))
        for a, b in zip(
            serial.fused_sweep(z_block, transform),
            threaded.fused_sweep(z_block, transform),
        ):
            assert np.array_equal(a, b)
    assert serial.shard_stats == threaded.shard_stats
    assert serial.loads == threaded.loads
    assert generator_states(serial) == generator_states(threaded)


class _RecordingShard(DenseOperator):
    """A dense replica that logs the columns of every product it reads.

    Inputs carry their column index in row 0 (see
    ``test_each_shard_reads_in_serial_order``).  Every read takes a
    millisecond, so a shard's later windows queue on its lock while an
    earlier read runs.
    """

    def __init__(self, matrix):
        super().__init__(matrix)
        self.calls = []

    def _log(self, method, block):
        self.calls.append((method, tuple(block[0].astype(int))))
        time.sleep(1e-3)

    def rmatmat(self, z_block):
        self._log("rmatmat", z_block)
        return super().rmatmat(z_block)

    def matmat(self, x_block):
        self._log("matmat", x_block)
        return super().matmat(x_block)


class TestNoisyReplay:
    """Threaded dispatch replays serial dispatch bit for bit on noisy
    per-shard fleets: each shard draws from its own generator and reads
    its transpose block, then its forward windows in window order."""

    @pytest.mark.parametrize("schedule", SHARD_SCHEDULES)
    @pytest.mark.parametrize("shards,window,batch,workers", GRID)
    def test_products_and_sweeps_bitwise(
        self, shards, window, batch, workers, schedule, rng
    ):
        matrix = rng.standard_normal((18, 30))
        serial, threaded = make_mode_pair(
            matrix, shards, window, schedule, workers, device=PcmDevice()
        )
        assert_noisy_replay(serial, threaded, rng)
        threaded.shutdown()

    @pytest.mark.parametrize("schedule", SHARD_SCHEDULES)
    @pytest.mark.parametrize("shards,window,batch,workers", MULTI_WINDOW_GRID)
    def test_shards_with_several_forward_windows(
        self, shards, window, batch, workers, schedule, rng
    ):
        matrix = rng.standard_normal((18, 30))
        serial, threaded = make_mode_pair(
            matrix, shards, window, schedule, workers, device=PcmDevice()
        )
        z_block = rng.standard_normal((18, batch))
        transform = thresholded(np.full(batch, 0.1))
        for _ in range(5):
            for a, b in zip(
                serial.fused_sweep(z_block, transform),
                threaded.fused_sweep(z_block, transform),
            ):
                assert np.array_equal(a, b)
        assert serial.shard_stats == threaded.shard_stats
        assert serial.loads == threaded.loads
        assert generator_states(serial) == generator_states(threaded)
        threaded.shutdown()

    @pytest.mark.parametrize("shards,window,batch,workers", MULTI_WINDOW_GRID)
    def test_each_shard_reads_in_serial_order(self, shards, window, batch, workers):
        """Per shard: the transpose block first, then every forward
        window in window order, the calls a serial fleet makes."""
        n, sweeps = 5, 10
        z_block = np.tile(np.arange(1.0, batch + 1), (3, 1))

        def tag_columns(u, cols):
            return np.tile(cols + 1.0, (n, 1))

        logs = {}
        for parallelism in PARALLELISM_MODES:
            fleet = ShardedOperator(
                [_RecordingShard(np.ones((3, n))) for _ in range(shards)],
                batch_window=window,
                parallelism=parallelism,
                n_workers=workers,
            )
            for _ in range(sweeps):
                fleet.fused_sweep(z_block, tag_columns)
            fleet.shutdown()
            logs[parallelism] = [shard.calls for shard in fleet.shards]
        assert logs["threads"] == logs["serial"]
        first_sweep = [calls[: len(calls) // sweeps] for calls in logs["serial"]]
        assert max(
            sum(method == "matmat" for method, _ in calls) for calls in first_sweep
        ) >= 2

    def test_threaded_recovery_replays(self):
        """Six builds of one threaded noisy recovery, where a shard reads
        two forward windows in some sweeps (3 shards, window 2, B=7),
        give the same estimates, histories, counters, loads and noise
        streams; the first build runs on one worker."""
        problem = CsProblem.generate_batch(n=128, m=64, k=6, batch=7, seed=0)
        runs = []
        for workers in (1, None, None, None, None, None):
            fleet = ShardedOperator.from_matrix(
                problem.matrix, n_shards=3, batch_window=2, stream="per_shard",
                parallelism="threads", n_workers=workers, seed=4,
            )
            result = amp_recover_batch(
                problem.measurements, fleet, problem.n, iterations=10,
                ground_truth=problem.signals,
            )
            fleet.shutdown()
            runs.append(
                (result, fleet.shard_stats, fleet.loads, generator_states(fleet))
            )
        first, *rebuilds = runs
        for result, shard_stats, loads, states in rebuilds:
            assert np.array_equal(result.estimates, first[0].estimates)
            assert np.array_equal(result.iterations, first[0].iterations)
            assert result.residual_norms == first[0].residual_norms
            assert result.thresholds == first[0].thresholds
            assert result.nmse_histories == first[0].nmse_histories
            assert result.active_counts == first[0].active_counts
            assert (shard_stats, loads, states) == first[1:]

    def test_recovery_matches_serial_when_each_shard_reads_one_window(self):
        """With one window per shard and product (cs_fleet's layout),
        the pipelined threaded recovery equals the serial one bit for
        bit.  Where a shard reads two windows of one product, serial
        ``matmat`` reads them as one block and the draws differ."""
        problem = CsProblem.generate_batch(n=96, m=48, k=4, batch=8, seed=13)
        serial, threaded = make_mode_pair(
            problem.matrix, 4, 2, workers=2, device=PcmDevice()
        )
        kwargs = dict(iterations=12, ground_truth=problem.signals)
        a = amp_recover_batch(problem.measurements, serial, problem.n, **kwargs)
        b = amp_recover_batch(problem.measurements, threaded, problem.n, **kwargs)
        assert np.array_equal(a.estimates, b.estimates)
        assert a.residual_norms == b.residual_norms
        assert a.nmse_histories == b.nmse_histories
        assert serial.shard_stats == threaded.shard_stats
        assert serial.loads == threaded.loads
        assert generator_states(serial) == generator_states(threaded)
        threaded.shutdown()


def programmed_state(fleet):
    """Per shard: every tile member's conductances and error history, in
    tile order, and the shard's generator state."""
    return [
        (
            [
                (member.programming_report.conductance,
                 member.programming_report.rms_error_history)
                for pair in shard._tiles.values()
                for member in (pair.positive, pair.negative)
            ],
            shard._tiles[(0, 0)]._rng.bit_generator.state,
        )
        for shard in fleet.shards
    ]


def build_threads():
    """Live threads of ``from_matrix``'s build pool."""
    return [t for t in threading.enumerate() if t.name.startswith("shard-build")]


class TestConcurrentBuild:
    """A threaded crossbar fleet programs its replicas concurrently, and
    every replica equals the serial build's bit for bit."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_threaded_build_equals_serial_build(self, workers, rng):
        # Two tiles per replica: each shard's tiles share its generator.
        matrix = rng.standard_normal((24, 40))
        kwargs = dict(n_shards=4, batch_window=4, stream="per_shard",
                      tile_shape=(32, 32), seed=41)
        serial = ShardedOperator.from_matrix(matrix, **kwargs)
        threaded = ShardedOperator.from_matrix(
            matrix, parallelism="threads", n_workers=workers, **kwargs
        )
        assert not build_threads() and threaded._executor is None
        assert threaded.shards[0].n_tiles == 2
        for (members, state), (twins, twin_state) in zip(
            programmed_state(serial), programmed_state(threaded), strict=True
        ):
            assert state == twin_state
            for (conductance, history), (twin, twin_history) in zip(
                members, twins, strict=True
            ):
                np.testing.assert_array_equal(conductance, twin, strict=True)
                assert conductance.strides == twin.strides
                assert history == twin_history
        x_block = rng.standard_normal((40, 16))
        assert np.array_equal(serial.matmat(x_block), threaded.matmat(x_block))
        assert generator_states(serial) == generator_states(threaded)
        assert serial.shard_stats == threaded.shard_stats
        threaded.shutdown()

    def test_a_failing_replica_raises_and_leaves_no_worker(self, monkeypatch, rng):
        """The third replica's construction raises: its ValueError
        surfaces from from_matrix, and the build pool is joined."""
        import repro.crossbar.sharding as sharding

        def construct(matrix, seed, **kwargs):
            if seed.bit_generator.seed_seq.spawn_key[-1] == 2:
                raise ValueError("replica 2 failed to program")
            return sharding_operator(matrix, seed=seed, **kwargs)

        sharding_operator = sharding.CrossbarOperator
        monkeypatch.setattr(sharding, "CrossbarOperator", construct)
        with pytest.raises(ValueError, match="replica 2 failed to program"):
            ShardedOperator.from_matrix(
                rng.standard_normal((6, 8)), n_shards=4, batch_window=2,
                parallelism="threads", n_workers=2, stream="per_shard", seed=42,
            )
        assert not build_threads()

    def test_a_bad_matrix_raises_from_the_workers(self, rng):
        matrix = rng.standard_normal((6, 8))
        matrix[2, 3] = np.nan
        with pytest.raises(ValueError, match="matrix must be finite"):
            ShardedOperator.from_matrix(
                matrix, n_shards=3, batch_window=2, parallelism="threads",
                stream="per_shard", seed=43,
            )
        assert not build_threads()


class TestConsumers:
    @pytest.mark.parametrize("shards,window,batch,workers", GRID)
    def test_amp_recovery_identical(self, shards, window, batch, workers):
        """The threaded fleet takes the pipelined fused_sweep path, so
        this also pins fused == unfused sweeps, trajectory for
        trajectory."""
        problem = CsProblem.generate_batch(n=48, m=24, k=3, batch=batch, seed=11)
        serial, threaded = make_mode_pair(problem.matrix, shards, window, workers=workers)
        kwargs = dict(iterations=12, ground_truth=problem.signals)
        a = amp_recover_batch(problem.measurements, serial, problem.n, **kwargs)
        b = amp_recover_batch(problem.measurements, threaded, problem.n, **kwargs)
        assert np.array_equal(a.estimates, b.estimates)
        assert np.array_equal(a.iterations, b.iterations)
        assert np.array_equal(a.converged, b.converged)
        assert a.active_counts == b.active_counts
        assert a.residual_norms == b.residual_norms
        assert a.thresholds == b.thresholds
        assert a.nmse_histories == b.nmse_histories
        assert_fleets_identical(serial, threaded)
        threaded.shutdown()

    @pytest.mark.parametrize("device", ["ideal", "noisy"])
    @pytest.mark.parametrize("with_truth", [False, True])
    def test_amp_working_set_matches_gather_scatter(
        self, gather_scatter_amp, device, with_truth
    ):
        """Through fused_sweep, AMP's contiguous working set reproduces a
        gather/scatter sweep loop bit for bit, retirements included.  The
        ideal fleet gives a shard several forward windows per sweep; the
        noisy fleet gives each shard at most one, so its per-shard draw
        order does not depend on thread timing."""
        problem = CsProblem.generate_batch(n=96, m=48, k=4, batch=7, seed=12)
        if device == "ideal":
            kwargs = dict(
                n_shards=2, device=PcmDevice.ideal(), stream="per_shard", seed=0
            )
        else:
            kwargs = dict(n_shards=4, stream="per_shard", seed=3)
        truth = {"ground_truth": problem.signals} if with_truth else {}
        result = gather_scatter_amp(
            lambda: ShardedOperator.from_matrix(
                problem.matrix, batch_window=2, parallelism="threads",
                n_workers=2, **kwargs,
            ),
            problem.measurements, problem.n, iterations=30, stagnation_window=3,
            **truth,
        )
        assert 1 < len(set(result.active_counts))


class TestLifecycleIdentity:
    @pytest.mark.parametrize("schedule", SHARD_SCHEDULES)
    def test_maintained_aging_fleet_identical(self, schedule):
        """Drift clocks, staleness, gains and the maintenance action log
        evolve identically under serial and threaded dispatch."""
        problem = CsProblem.generate_batch(n=48, m=24, k=3, batch=6, seed=41)
        serial, threaded = make_mode_pair(
            problem.matrix, 3, 4, schedule=schedule, workers=3
        )
        for fleet in (serial, threaded):
            FleetMaintenance(
                fleet,
                recalibrate_after_s=50.0,
                reprogram_after_s=500.0,
                gain_error_threshold=0.5,
                seed=5,
            )
        for epoch in range(3):
            for fleet in (serial, threaded):
                fleet.advance_time(40.0)
                if epoch == 1:
                    fleet.shards[0].reprogram()  # heterogeneous shard ages
            a = amp_recover_batch(problem.measurements, serial, problem.n, iterations=4)
            b = amp_recover_batch(problem.measurements, threaded, problem.n, iterations=4)
            assert np.array_equal(a.estimates, b.estimates)
            assert serial.shard_ages == threaded.shard_ages
            assert serial.shard_staleness == threaded.shard_staleness
        assert serial.maintenance.actions == threaded.maintenance.actions
        assert serial.maintenance.stats == threaded.maintenance.stats
        assert_fleets_identical(serial, threaded)
        threaded.shutdown()


class TestConcurrentCallers:
    def test_no_counter_updates_lost_under_contention(self):
        """Many caller threads hammer one noisy threaded fleet: every
        dispatched column must land in exactly one shard's ledger, so
        the per-shard stats sum to the merged stats and to the known
        dispatched totals."""
        rng = np.random.default_rng(51)
        matrix = rng.standard_normal((12, 16))
        fleet = ShardedOperator.from_matrix(
            matrix,
            n_shards=4,
            batch_window=3,
            parallelism="threads",
            n_workers=16,  # far more workers than shards, to force overlap
            stream="per_shard",
            seed=6,
        )
        n_callers, calls_each, batch = 8, 6, 10
        blocks = rng.standard_normal((n_callers, 16, batch))
        errors = []

        def hammer(caller):
            try:
                for _ in range(calls_each):
                    fleet.matmat(blocks[caller])
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(caller,))
            for caller in range(n_callers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        total_columns = n_callers * calls_each * batch
        merged = fleet.stats
        assert merged["n_matvec"] == total_columns
        assert merged["n_live_matvec"] == total_columns  # gaussian blocks: all live
        assert sum(fleet.loads) == total_columns
        summed = {}
        for shard_stats in fleet.shard_stats:
            for key, value in shard_stats.items():
                summed[key] = summed.get(key, 0) + value
        assert summed == merged
        fleet.shutdown()

    def test_per_shard_streams_are_independent_generators(self, rng):
        matrix = rng.standard_normal((12, 16))
        shared = ShardedOperator.from_matrix(
            matrix, n_shards=3, batch_window=4, seed=7
        )
        split = ShardedOperator.from_matrix(
            matrix, n_shards=3, batch_window=4, seed=7, stream="per_shard"
        )
        def generator_ids(fleet):
            return {
                id(shard._tiles[(0, 0)].positive._rng) for shard in fleet.shards
            }

        assert len(generator_ids(shared)) == 1  # one generator serves the fleet
        assert len(generator_ids(split)) == 3  # one child stream per replica


class TestRetirementRaces:
    def test_retire_during_concurrent_dispatch_loses_nothing(self):
        """Regression: ``retire_shard`` used to flip ``_retired``
        outside ``_scheduler_lock``, racing the
        ``_assign``/``plan_assignments`` readers of concurrent
        dispatches.  Under the lock, a retirement mid-traffic must leave
        every dispatched column in exactly one shard's ledger and the
        retired shard out of every subsequently planned window."""
        rng = np.random.default_rng(71)
        matrix = rng.standard_normal((12, 16))
        fleet = ShardedOperator.from_matrix(
            matrix,
            n_shards=4,
            batch_window=3,
            parallelism="threads",
            n_workers=8,
            stream="per_shard",
            seed=8,
        )
        n_callers, calls_each, batch = 6, 8, 9
        blocks = rng.standard_normal((n_callers, 16, batch))
        errors = []
        started = threading.Barrier(n_callers + 1)

        def hammer(caller):
            try:
                started.wait()
                for _ in range(calls_each):
                    fleet.matmat(blocks[caller])
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(caller,))
            for caller in range(n_callers)
        ]
        for thread in threads:
            thread.start()
        started.wait()
        assert fleet.retire_shard(2) is True  # mid-traffic retirement
        for thread in threads:
            thread.join()
        assert not errors
        assert fleet.retired_shards == (False, False, True, False)
        total_columns = n_callers * calls_each * batch
        merged = fleet.stats
        assert merged["n_matvec"] == total_columns
        assert sum(fleet.loads) == total_columns
        summed = {}
        for shard_stats in fleet.shard_stats:
            for key, value in shard_stats.items():
                summed[key] = summed.get(key, 0) + value
        assert summed == merged
        # After the retirement settles, no new window plans onto shard 2.
        plan = fleet.plan_assignments(rng.standard_normal((16, 12)))
        assert all(owner != 2 for _, _, owner in plan)
        fleet.shutdown()

    def test_concurrent_retire_calls_retire_once(self):
        rng = np.random.default_rng(72)
        fleet = ShardedOperator.from_matrix(
            rng.standard_normal((6, 8)), n_shards=3, batch_window=2,
            backend="exact",
        )
        outcomes = []
        started = threading.Barrier(4)

        def retire():
            started.wait()
            outcomes.append(fleet.retire_shard(1))

        threads = [threading.Thread(target=retire) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(outcomes) == [False, False, False, True]
        assert fleet.retired_shards == (False, True, False)


class _SlowFakeShard:
    """Calibratable shard with a service delay wide enough that two
    unserialized sweepers reliably overlap inside the service pass."""

    def __init__(self):
        self.staleness_seconds = 100.0
        self.stats = {}
        self.calibrations = 0

    def calibrate(self, n_probes, seed):
        import time

        time.sleep(0.05)  # hold both racers inside the service window
        self.calibrations += 1
        self.staleness_seconds = 0.0
        return 1.0

    def reprogram(self, **kwargs):  # pragma: no cover
        raise AssertionError("sweep must not escalate in this test")


class _BareFleet:
    """Minimal fleet protocol: shards only — no quiesce, no retirement.

    ``FleetMaintenance`` explicitly supports such fleets (``quiesce`` is
    looked up with ``getattr``), so sweep serialization cannot lean on
    the shard locks a ``ShardedOperator`` happens to have."""

    def __init__(self, shards):
        self.shards = shards


class TestSweepSerialization:
    def test_racing_sweeps_cannot_double_service_a_shard(self):
        """Regression: two concurrent dispatchers could both pass the
        lock-free due pre-check in ``FleetMaintenance.sweep`` and both
        service (and double-log, and double-bill) the same shard.  The
        sweep lock + due re-check lets exactly one through."""
        shard = _SlowFakeShard()
        policy = FleetMaintenance(
            _BareFleet([shard]), recalibrate_after_s=50.0, attach=False
        )
        started = threading.Barrier(2)
        performed = []

        def sweep():
            started.wait()
            performed.append(policy.sweep())

        threads = [threading.Thread(target=sweep) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert shard.calibrations == 1
        assert len(policy.actions) == 1
        # one sweeper did the work, the other observed nothing due
        assert sorted(len(actions) for actions in performed) == [0, 1]

    def test_racing_dispatchers_on_a_real_fleet_log_each_action_once(self):
        problem_rng = np.random.default_rng(73)
        matrix = problem_rng.standard_normal((12, 16))
        fleet = ShardedOperator.from_matrix(
            matrix,
            n_shards=3,
            batch_window=4,
            parallelism="threads",
            stream="per_shard",
            seed=9,
        )
        policy = FleetMaintenance(fleet, recalibrate_after_s=10.0, seed=10)
        fleet.advance_time(50.0)  # every shard due at the next dispatch
        blocks = problem_rng.standard_normal((4, 16, 8))
        started = threading.Barrier(4)
        errors = []

        def dispatch(caller):
            try:
                started.wait()
                fleet.matmat(blocks[caller])
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=dispatch, args=(caller,))
            for caller in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        serviced = [action.shard for action in policy.actions]
        assert sorted(serviced) == [0, 1, 2]  # once each, never twice
        fleet.shutdown()


class TestFusedSweepTransformValidation:
    @pytest.mark.parametrize("parallelism", PARALLELISM_MODES)
    def test_column_vector_return_is_rejected(self, parallelism, rng):
        """Regression: an (n, 1) transform return silently broadcast one
        column's values across the whole window via fancy-index
        assignment; fused_sweep now validates the block shape."""
        matrix = rng.standard_normal((18, 30))
        fleet = ShardedOperator.from_matrix(
            matrix, n_shards=2, batch_window=3, backend="exact",
            parallelism=parallelism,
        )
        z_block = rng.standard_normal((18, 6))
        with pytest.raises(ValueError, match="transform must return"):
            fleet.fused_sweep(z_block, lambda u, cols: u[:, :1])
        fleet.shutdown()

    def test_flat_vector_return_is_rejected(self, rng):
        matrix = rng.standard_normal((18, 30))
        fleet = ShardedOperator.from_matrix(
            matrix, n_shards=1, batch_window=30, backend="exact"
        )
        # columns.size == n here, so the 1-D return would broadcast
        # without erroring at the numpy layer — exactly the silent case.
        z_block = rng.standard_normal((18, 30))
        with pytest.raises(ValueError, match="transform must return"):
            fleet.fused_sweep(z_block, lambda u, cols: np.zeros(30))

    def test_valid_transform_still_round_trips(self, rng):
        matrix = rng.standard_normal((18, 30))
        fleet = ShardedOperator.from_matrix(
            matrix, n_shards=2, batch_window=4, backend="exact"
        )
        z_block = rng.standard_normal((18, 6))
        x_out, q_out = fleet.fused_sweep(z_block, lambda u, cols: u)
        assert np.array_equal(x_out, matrix.T @ z_block)
        assert np.allclose(q_out, matrix @ x_out)

    def test_misshapen_z_block_is_rejected_before_dispatch(self, rng):
        matrix = rng.standard_normal((18, 30))
        fleet = ShardedOperator.from_matrix(
            matrix, n_shards=2, batch_window=4, backend="exact"
        )
        # a matmat-shaped block, and a bare vector, are not Z blocks
        for bad in (np.zeros((30, 4)), np.zeros(18)):
            with pytest.raises(ValueError, match="Z must have shape"):
                fleet.fused_sweep(bad, lambda u, cols: u)
        assert fleet.stats["n_rmatvec"] == fleet.stats["n_matvec"] == 0
        assert fleet.loads == (0, 0)


class TestSchedulePurity:
    @pytest.mark.parametrize("schedule", SHARD_SCHEDULES)
    def test_assignment_is_pure_function_of_block_and_state(self, schedule, rng):
        """plan_assignments neither consumes scheduler state nor depends
        on execution mode, and dispatching realizes exactly the plan."""
        matrix = rng.standard_normal((18, 30))
        serial, threaded = make_mode_pair(
            matrix, 3, 4, schedule=schedule, workers=2, backend="exact"
        )
        for step in range(4):
            block = rng.standard_normal((30, 7 + step))
            block[:, step % 2 :: 3] = 0.0  # dead windows in the mix
            plan = serial.plan_assignments(block)
            assert plan == serial.plan_assignments(block)  # planning is idempotent
            assert plan == threaded.plan_assignments(block)  # mode-independent
            # A block with the same live-column pattern but different
            # values plans identically: only the pattern enters.
            rescaled = block * 3.7
            assert plan == serial.plan_assignments(rescaled)
            serial.matmat(block)
            threaded.matmat(block)
            assert serial.loads == threaded.loads

    @pytest.mark.parametrize("schedule", SHARD_SCHEDULES)
    def test_dispatch_realizes_the_plan(self, schedule, rng):
        matrix = rng.standard_normal((18, 30))
        fleet = ShardedOperator.from_matrix(
            matrix, n_shards=3, batch_window=4, schedule=schedule, backend="exact"
        )
        block = rng.standard_normal((30, 10))
        block[:, 5] = 0.0
        plan = fleet.plan_assignments(block)
        loads_before = fleet.loads
        assert fleet.loads == loads_before  # dry run did not mutate
        fleet.matmat(block)
        expected = list(loads_before)
        for start, stop, shard in plan:
            expected[shard] += int(
                np.count_nonzero(np.any(block[:, start:stop] != 0.0, axis=0))
            )
        assert fleet.loads == tuple(expected)

    def test_plan_rejects_non_blocks(self, rng):
        fleet = ShardedOperator.from_matrix(
            rng.standard_normal((6, 8)), n_shards=2, batch_window=2, backend="exact"
        )
        with pytest.raises(ValueError, match="2-D"):
            fleet.plan_assignments(np.zeros(8))
        # a block dispatch would reject gets no plan: wrong row count
        # (neither matmat's 8 nor rmatmat's 6) or a non-finite entry
        with pytest.raises(ValueError, match="rows"):
            fleet.plan_assignments(np.ones((3, 5)))
        with pytest.raises(ValueError, match="finite"):
            fleet.plan_assignments(np.full((8, 5), np.nan))
        # rmatmat-shaped blocks plan like matmat-shaped ones
        assert fleet.plan_assignments(np.ones((6, 5))) == [
            (0, 2, 0),
            (2, 4, 1),
            (4, 5, 0),
        ]


class TestValidationAndDegenerates:
    def test_unknown_parallelism_rejected(self, rng):
        matrix = rng.standard_normal((6, 8))
        with pytest.raises(ValueError, match="parallelism"):
            ShardedOperator.from_matrix(
                matrix, n_shards=2, batch_window=2, backend="exact",
                parallelism="processes",
            )
        assert "serial" in PARALLELISM_MODES and "threads" in PARALLELISM_MODES

    @pytest.mark.parametrize("flag", [True, np.True_])
    def test_boolean_shard_counts_rejected(self, flag, rng):
        """``n_shards=True`` used to build a one-shard fleet."""
        matrix = rng.standard_normal((6, 8))
        for backend in ("exact", "crossbar"):
            with pytest.raises(ValueError, match="n_shards must be an integer"):
                ShardedOperator.from_matrix(
                    matrix, n_shards=flag, batch_window=2, backend=backend
                )

    @pytest.mark.parametrize("bad", [0, -1, 1.5, float("inf"), float("nan"), True])
    def test_bad_worker_counts_rejected(self, bad, rng):
        matrix = rng.standard_normal((6, 8))
        with pytest.raises(ValueError, match="n_workers"):
            ShardedOperator.from_matrix(
                matrix, n_shards=2, batch_window=2, backend="exact",
                parallelism="threads", n_workers=bad,
            )

    def test_stream_validation(self, rng):
        matrix = rng.standard_normal((6, 8))
        with pytest.raises(ValueError, match="stream"):
            ShardedOperator.from_matrix(
                matrix, n_shards=2, batch_window=2, stream="per_tile"
            )
        with pytest.raises(ValueError, match="crossbar backend"):
            ShardedOperator.from_matrix(
                matrix, n_shards=2, batch_window=2, backend="exact",
                stream="per_shard",
            )

    @pytest.mark.parametrize(
        "device", [PcmDevice(), PcmDevice.ideal()], ids=["noisy", "ideal"]
    )
    def test_threaded_crossbar_fleet_needs_per_shard_streams(self, device, rng):
        """Shards sharing one generator would draw read noise in the
        order their reads complete."""
        matrix = rng.standard_normal((6, 8))
        with pytest.raises(ValueError, match='stream="per_shard"'):
            ShardedOperator.from_matrix(
                matrix, n_shards=2, batch_window=2, parallelism="threads",
                device=device,
            )
        # serial crossbar fleets may share one stream; exact ones draw none
        ShardedOperator.from_matrix(matrix, n_shards=2, batch_window=2, device=device)
        ShardedOperator.from_matrix(
            matrix, n_shards=2, batch_window=2, parallelism="threads",
            backend="exact",
        ).shutdown()

    def test_empty_batch_under_threads(self, rng):
        matrix = rng.standard_normal((18, 30))
        serial, threaded = make_mode_pair(matrix, 2, 3, workers=4)
        assert threaded.matmat(np.zeros((30, 0))).shape == (18, 0)
        assert threaded.rmatmat(np.zeros((18, 0))).shape == (30, 0)
        x_out, q_out = threaded.fused_sweep(
            np.zeros((18, 0)), lambda u, cols: u
        )
        assert x_out.shape == (30, 0) and q_out.shape == (18, 0)
        assert_fleets_identical(serial, threaded)
        # An empty batch never spins up the executor.
        assert threaded._executor is None

    def test_all_zero_blocks_bill_nothing_under_threads(self, rng):
        matrix = rng.standard_normal((18, 30))
        serial, threaded = make_mode_pair(matrix, 2, 3, workers=4)
        assert np.array_equal(
            serial.matmat(np.zeros((30, 5))), threaded.matmat(np.zeros((30, 5)))
        )
        merged = threaded.stats
        assert merged["n_matvec"] == 5  # logical reads counted
        assert merged["n_live_matvec"] == 0  # but nothing touched hardware
        assert merged["dac_conversions"] == 0
        assert merged["adc_conversions"] == 0
        assert threaded.loads == (0, 0)  # dead windows carry no load
        assert_fleets_identical(serial, threaded)
        threaded.shutdown()

    def test_shutdown_is_idempotent_and_recoverable(self, rng):
        matrix = rng.standard_normal((18, 30))
        _, threaded = make_mode_pair(matrix, 2, 3, workers=2)
        block = rng.standard_normal((30, 6))
        first = threaded.matmat(block)
        threaded.shutdown()
        threaded.shutdown()  # safe to repeat
        assert np.array_equal(threaded.matmat(block), first)  # pool came back
        threaded.shutdown()
