"""Unit tests of the sharded fleet scheduler (window logic, policies).

The cross-layer equivalence invariants live in
``tests/integration/test_sharding_invariants.py``; this file pins the
scheduler mechanics: window splitting, round-robin rotation,
greedy-by-active-columns balancing, protocol validation and counter
merging.
"""

import numpy as np
import pytest

from repro.crossbar import CrossbarOperator, DenseOperator, ShardedOperator
from repro.devices import PcmDevice


class TestConstruction:
    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError, match="at least one shard"):
            ShardedOperator([], batch_window=4)

    def test_rejects_mismatched_shapes(self, rng):
        a = DenseOperator(rng.standard_normal((4, 6)))
        b = DenseOperator(rng.standard_normal((4, 7)))
        with pytest.raises(ValueError, match="share one shape"):
            ShardedOperator([a, b], batch_window=4)

    @pytest.mark.parametrize("bad", [0, -1, 2.5, float("inf"), float("nan")])
    def test_rejects_bad_window(self, bad, rng):
        shard = DenseOperator(rng.standard_normal((4, 6)))
        with pytest.raises(ValueError, match="batch_window"):
            ShardedOperator([shard], batch_window=bad)

    def test_rejects_bad_schedule(self, rng):
        shard = DenseOperator(rng.standard_normal((4, 6)))
        with pytest.raises(ValueError, match="schedule"):
            ShardedOperator([shard], batch_window=2, schedule="random")

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_from_matrix_rejects_non_finite_shard_counts(self, bad, small_matrix):
        with pytest.raises(ValueError, match="n_shards"):
            ShardedOperator.from_matrix(small_matrix, n_shards=bad, batch_window=4)

    @pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
    def test_from_matrix_rejects_non_finite_matrix_before_programming(
        self, bad, small_matrix
    ):
        matrix = small_matrix.copy()
        matrix[-1, 0] = bad
        rng = np.random.default_rng(8)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="matrix must be finite"):
            ShardedOperator.from_matrix(matrix, n_shards=3, batch_window=4, seed=rng)
        assert rng.bit_generator.state == state

    def test_from_matrix_validation(self, small_matrix):
        with pytest.raises(ValueError, match="n_shards"):
            ShardedOperator.from_matrix(small_matrix, n_shards=0, batch_window=4)
        with pytest.raises(ValueError, match="backend"):
            ShardedOperator.from_matrix(
                small_matrix, n_shards=1, batch_window=4, backend="gpu"
            )
        with pytest.raises(ValueError, match="crossbar backend"):
            ShardedOperator.from_matrix(
                small_matrix, n_shards=1, batch_window=4, backend="exact", seed=3,
                dac_bits=4,
            )

    def test_exposes_shape_matrix_and_shard_count(self, small_matrix):
        fleet = ShardedOperator.from_matrix(
            small_matrix, n_shards=3, batch_window=4, backend="exact"
        )
        assert fleet.shape == small_matrix.shape
        assert fleet.n_shards == 3
        np.testing.assert_array_equal(fleet.matrix, small_matrix)


class TestWindows:
    def test_window_spans_even_ragged_and_degenerate(self, small_matrix):
        fleet = ShardedOperator.from_matrix(
            small_matrix, n_shards=2, batch_window=3, backend="exact"
        )
        assert fleet.window_spans(6) == [(0, 3), (3, 6)]
        assert fleet.window_spans(8) == [(0, 3), (3, 6), (6, 8)]  # ragged
        assert fleet.window_spans(2) == [(0, 2)]  # B < batch_window
        assert fleet.window_spans(0) == []
        with pytest.raises(ValueError):
            fleet.window_spans(-1)


class TestScheduling:
    def test_round_robin_rotates_across_calls(self, small_matrix, rng):
        fleet = ShardedOperator.from_matrix(
            small_matrix, n_shards=2, batch_window=2, backend="exact"
        )
        n = small_matrix.shape[1]
        fleet.matmat(rng.standard_normal((n, 4)))  # windows 0, 1
        assert [s.n_matvec for s in fleet.shards] == [2, 2]
        fleet.matmat(rng.standard_normal((n, 2)))  # cursor continues at 2
        assert [s.n_matvec for s in fleet.shards] == [4, 2]
        fleet.matmat(rng.standard_normal((n, 2)))
        assert [s.n_matvec for s in fleet.shards] == [4, 4]

    def test_greedy_balances_by_active_columns(self, small_matrix):
        """Zero columns carry no device work: the greedy policy must
        route subsequent windows to the shard that has done the least
        *live* work, not the least windows."""
        fleet = ShardedOperator.from_matrix(
            small_matrix, n_shards=2, batch_window=2, schedule="greedy",
            backend="exact",
        )
        n = small_matrix.shape[1]
        block = np.ones((n, 6))
        block[:, 0:2] = 0.0  # window 0 is all dead
        fleet.matmat(block)
        # window 0 (0 live) -> shard 0 without recording load; window 1
        # (2 live) -> shard 0 (loads tied at 0, lowest index wins);
        # window 2 (2 live) -> shard 1 (load 0 < 2).
        assert fleet.loads == (2, 2)
        assert [s.n_matvec for s in fleet.shards] == [4, 2]

    @pytest.mark.parametrize("schedule", ["round_robin", "greedy"])
    def test_load_schedules_ignore_shard_clocks(self, small_matrix, schedule):
        """Round-robin and greedy route by cursor and live-column load
        alone: a stale shard moves no window."""
        fresh, aged = (
            ShardedOperator.from_matrix(
                small_matrix,
                n_shards=3,
                batch_window=2,
                schedule=schedule,
                device=PcmDevice.ideal(),
                seed=0,
            )
            for _ in range(2)
        )
        # shard clocks differ by when each shard was last reprogrammed
        aged.advance_time(1e6)
        aged.shards[1].reprogram()
        aged.advance_time(3e3)
        aged.shards[2].reprogram()
        assert aged.shard_ages == (1e6 + 3e3, 3e3, 0.0)
        stream = np.random.default_rng(4)
        n = small_matrix.shape[1]
        for width in (5, 3, 8):
            block = stream.standard_normal((n, width))
            block[:, 1] = 0.0  # dead columns in the mix
            assert aged.plan_assignments(block) == fresh.plan_assignments(block)
            aged.matmat(block)
            fresh.matmat(block)
        assert aged.loads == fresh.loads
        assert [s.n_matvec for s in aged.shards] == [
            s.n_matvec for s in fresh.shards
        ]

    def test_matvec_routes_like_a_width_one_window(self, small_matrix, rng):
        fleet = ShardedOperator.from_matrix(
            small_matrix, n_shards=2, batch_window=4, backend="exact"
        )
        m, n = small_matrix.shape
        x = rng.standard_normal(n)
        z = rng.standard_normal(m)
        np.testing.assert_allclose(fleet.matvec(x), small_matrix @ x)
        np.testing.assert_allclose(fleet.rmatvec(z), small_matrix.T @ z)
        assert [s.n_matvec for s in fleet.shards] == [1, 0]
        assert [s.n_rmatvec for s in fleet.shards] == [0, 1]
        with pytest.raises(ValueError):
            fleet.matvec(np.zeros(n + 1))
        with pytest.raises(ValueError):
            fleet.rmatvec(np.zeros(m + 1))

    def test_dispatch_validates_blocks(self, small_matrix):
        fleet = ShardedOperator.from_matrix(
            small_matrix, n_shards=2, batch_window=4, backend="exact"
        )
        m, n = small_matrix.shape
        with pytest.raises(ValueError, match="X"):
            fleet.matmat(np.zeros((n + 1, 3)))
        with pytest.raises(ValueError, match="Z"):
            fleet.rmatmat(np.zeros((m + 1, 3)))
        with pytest.raises(ValueError, match="X"):
            fleet.matmat(np.zeros(n))


class TestAccounting:
    def test_stats_merge_sums_every_key(self, small_matrix, rng):
        fleet = ShardedOperator.from_matrix(
            small_matrix,
            n_shards=2,
            batch_window=2,
            device=PcmDevice.ideal(),
            seed=0,
        )
        n = small_matrix.shape[1]
        fleet.matmat(rng.standard_normal((n, 4)))
        merged = fleet.stats
        per_shard = fleet.shard_stats
        for key in merged:
            assert merged[key] == sum(stats[key] for stats in per_shard)
        # capacity keys report the fleet total
        assert merged["n_devices"] == 2 * 2 * small_matrix.size

    def test_replicas_share_programming_but_not_noise(self, rng):
        """Noisy replicas store the same target matrix but independent
        programming-noise realizations — physically distinct arrays."""
        matrix = rng.standard_normal((10, 12))
        fleet = ShardedOperator.from_matrix(
            matrix, n_shards=2, batch_window=4, seed=7
        )
        a, b = fleet.shards
        np.testing.assert_array_equal(a.matrix, b.matrix)
        g_a = a._tiles[(0, 0)].positive._g_programmed
        g_b = b._tiles[(0, 0)].positive._g_programmed
        assert not np.array_equal(g_a, g_b)

    def test_advance_time_reaches_every_replica(self, rng):
        matrix = rng.standard_normal((8, 8))
        fleet = ShardedOperator.from_matrix(
            matrix, n_shards=2, batch_window=4, seed=0
        )
        fleet.advance_time(1e5)
        for shard in fleet.shards:
            assert shard.age_seconds == 1e5
        # exact shards have no clock; advance_time must still be safe
        dense = ShardedOperator.from_matrix(
            matrix, n_shards=2, batch_window=4, backend="exact"
        )
        dense.advance_time(1e5)

    def test_exact_fleet_reports_neutral_lifecycle_state(self, small_matrix):
        fleet = ShardedOperator.from_matrix(
            small_matrix, n_shards=2, batch_window=2, backend="exact"
        )
        assert fleet.shard_ages == (0.0, 0.0)
        assert fleet.shard_gains == (1.0, 1.0)
        dispersion = fleet.gain_dispersion()
        assert dispersion["gain_spread"] == 0.0
        assert dispersion["staleness_max_s"] == 0.0

    def test_mixed_shard_kinds_are_allowed(self, rng):
        """The protocol is duck-typed: a dense baseline can ride along
        a crossbar replica for A/B comparison."""
        matrix = rng.standard_normal((8, 10))
        fleet = ShardedOperator(
            [
                DenseOperator(matrix),
                CrossbarOperator(matrix, device=PcmDevice.ideal(), seed=0),
            ],
            batch_window=2,
        )
        result = fleet.matmat(rng.standard_normal((10, 4)))
        assert result.shape == (8, 4)
        assert fleet.stats["n_matvec"] == 4


class TestReplicaConsistency:
    def test_rejects_shards_with_different_matrices(self, rng):
        a = DenseOperator(rng.standard_normal((4, 6)))
        b = DenseOperator(rng.standard_normal((4, 6)))
        with pytest.raises(ValueError, match="same target matrix"):
            ShardedOperator([a, b], batch_window=2)

    def test_exact_backend_rejects_stray_seed(self, small_matrix):
        with pytest.raises(ValueError, match="crossbar backend"):
            ShardedOperator.from_matrix(
                small_matrix, n_shards=2, batch_window=4, backend="exact",
                seed=5,
            )


class TestDegenerateWindows:
    """Dead (all-zero) traffic must not perturb the schedule — the
    regression behind PR-4's zero-conversion billing rule: billing
    nothing is not enough, the *cursor and loads* must stay put too."""

    def test_zero_matvec_does_not_advance_the_round_robin_cursor(
        self, small_matrix, rng
    ):
        fleet = ShardedOperator.from_matrix(
            small_matrix, n_shards=2, batch_window=4, backend="exact"
        )
        n = small_matrix.shape[1]
        fleet.matvec(np.zeros(n))  # dead: served by shard 0, no rotation
        fleet.matvec(rng.standard_normal(n))  # live: still shard 0's turn
        assert [s.n_matvec for s in fleet.shards] == [2, 0]
        fleet.matvec(rng.standard_normal(n))  # rotation resumes normally
        assert [s.n_matvec for s in fleet.shards] == [2, 1]

    def test_dead_window_does_not_shift_live_round_robin_windows(
        self, small_matrix, rng
    ):
        """A dead window in the middle of a batch must leave the live
        windows exactly where they would have landed without it."""
        n = small_matrix.shape[1]
        live = rng.standard_normal((n, 4))
        with_dead = np.concatenate([live[:, :2], np.zeros((n, 2)), live[:, 2:]],
                                   axis=1)
        plain = ShardedOperator.from_matrix(
            small_matrix, n_shards=2, batch_window=2, backend="exact"
        )
        padded = ShardedOperator.from_matrix(
            small_matrix, n_shards=2, batch_window=2, backend="exact"
        )
        plain.matmat(live)
        padded.matmat(with_dead)
        assert plain.loads == padded.loads
        # live windows 1 and 2 landed on the same shards in both runs
        # (the dead window rode along on the shard whose turn it was)
        assert plain._cursor == padded._cursor

    def test_dead_windows_leave_greedy_loads_untouched(self, small_matrix):
        fleet = ShardedOperator.from_matrix(
            small_matrix, n_shards=2, batch_window=3, schedule="greedy",
            backend="exact",
        )
        n = small_matrix.shape[1]
        fleet.matmat(np.zeros((n, 6)))
        assert fleet.loads == (0, 0)
        assert fleet.shards[0].n_matvec == 6  # logical reads still counted

    def test_greedy_ties_break_toward_the_lowest_index(self, small_matrix):
        fleet = ShardedOperator.from_matrix(
            small_matrix, n_shards=3, batch_window=2, schedule="greedy",
            backend="exact",
        )
        n = small_matrix.shape[1]
        fleet.matmat(np.ones((n, 2)))  # all loads tied at 0 -> shard 0
        assert fleet.loads == (2, 0, 0)
        fleet.matmat(np.ones((n, 2)))  # 1 and 2 tied -> shard 1
        assert fleet.loads == (2, 2, 0)


class TestRetirement:
    def exact_fleet(self, small_matrix, n=3):
        return ShardedOperator.from_matrix(
            small_matrix, n_shards=n, batch_window=2, backend="exact"
        )

    def test_fresh_fleet_has_no_retirements(self, small_matrix):
        fleet = self.exact_fleet(small_matrix)
        assert fleet.retired_shards == (False, False, False)
        assert fleet.n_active_shards == 3

    def test_retire_is_idempotent(self, small_matrix):
        fleet = self.exact_fleet(small_matrix)
        assert fleet.retire_shard(1) is True
        assert fleet.retire_shard(1) is False
        assert fleet.retired_shards == (False, True, False)
        assert fleet.n_active_shards == 2

    @pytest.mark.parametrize("bad", [-1, 3, 1.5, float("inf"), float("nan")])
    def test_retire_validates_the_index(self, bad, small_matrix):
        fleet = self.exact_fleet(small_matrix)
        with pytest.raises(ValueError, match="index must be"):
            fleet.retire_shard(bad)

    def test_round_robin_skips_retired_shards(self, small_matrix, rng):
        fleet = self.exact_fleet(small_matrix)
        fleet.retire_shard(1)
        block = rng.standard_normal((small_matrix.shape[1], 8))
        plan = fleet.plan_assignments(block)
        owners = [owner for _, _, owner in plan]
        assert 1 not in owners
        assert set(owners) == {0, 2}

    def test_greedy_rebalances_onto_survivors(self, small_matrix, rng):
        fleet = ShardedOperator.from_matrix(
            small_matrix, n_shards=3, batch_window=2, backend="exact",
            schedule="greedy",
        )
        fleet.retire_shard(0)
        block = rng.standard_normal((small_matrix.shape[1], 8))
        fleet.matmat(block)
        assert fleet.loads[0] == 0
        assert fleet.loads[1] > 0 and fleet.loads[2] > 0

    def test_retired_result_matches_the_full_fleet(self, small_matrix, rng):
        block = rng.standard_normal((small_matrix.shape[1], 6))
        full = self.exact_fleet(small_matrix)
        degraded = self.exact_fleet(small_matrix)
        degraded.retire_shard(2)
        assert np.allclose(full.matmat(block), degraded.matmat(block))

    def test_all_retired_raises_only_then(self, small_matrix, rng):
        fleet = self.exact_fleet(small_matrix, n=2)
        block = rng.standard_normal((small_matrix.shape[1], 4))
        fleet.retire_shard(0)
        fleet.matmat(block)  # one survivor still serves
        fleet.retire_shard(1)
        with pytest.raises(RuntimeError, match="no serving capacity"):
            fleet.matmat(block)

    def test_round_robin_rotation_survives_a_retirement(self, small_matrix, rng):
        """Regression: the cursor indexes the candidate list, so a
        retirement used to re-base ``cursor % len(candidates)`` and skew
        which survivor got the next window.  The cursor is now remapped:
        whoever was next before the retirement is still next after it."""
        fleet = ShardedOperator.from_matrix(
            small_matrix, n_shards=4, batch_window=1, backend="exact"
        )
        block = rng.standard_normal((small_matrix.shape[1], 5))
        fleet.matmat(block)  # windows -> shards 0,1,2,3,0; cursor = 5
        single = rng.standard_normal((small_matrix.shape[1], 1))
        assert fleet.plan_assignments(single) == [(0, 1, 1)]  # shard 1 is next
        fleet.retire_shard(3)  # not the next shard: rotation must not move
        assert fleet.plan_assignments(single) == [(0, 1, 1)]
        served = []
        for _ in range(6):
            served.append(fleet.plan_assignments(single)[0][2])
            fleet.matmat(single)
        assert served == [1, 2, 0, 1, 2, 0]  # rotation order over survivors

    def test_retiring_the_next_shard_advances_to_its_successor(
        self, small_matrix, rng
    ):
        fleet = ShardedOperator.from_matrix(
            small_matrix, n_shards=3, batch_window=1, backend="exact"
        )
        single = rng.standard_normal((small_matrix.shape[1], 1))
        fleet.matmat(single)  # shard 0 served; shard 1 is next
        fleet.retire_shard(1)
        served = []
        for _ in range(4):
            served.append(fleet.plan_assignments(single)[0][2])
            fleet.matmat(single)
        assert served == [2, 0, 2, 0]

    def test_retiring_the_last_survivor_resets_the_cursor(self, small_matrix):
        fleet = ShardedOperator.from_matrix(
            small_matrix, n_shards=2, batch_window=1, backend="exact"
        )
        fleet.retire_shard(0)
        fleet.retire_shard(1)
        assert fleet._cursor == 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_advance_time_validates_before_any_shard_ages(self, bad, rng):
        matrix = rng.standard_normal((4, 6))
        shards = [
            CrossbarOperator(matrix, device=PcmDevice.ideal(), seed=i)
            for i in range(2)
        ]
        fleet = ShardedOperator(shards, batch_window=2)
        with pytest.raises(ValueError, match="finite non-negative"):
            fleet.advance_time(bad)
        # validation happened before the loop: no shard aged at all
        assert fleet.shard_ages == (0.0, 0.0)
        # one operator rejects the value the same way
        with pytest.raises(ValueError, match="finite non-negative"):
            shards[0].advance_time(bad)
        assert shards[0].age_seconds == 0.0
