"""Cross-layer invariants of the placement-optimized schedule.

The CI invariant suite for ``schedule="optimized"``: the two
contracts that make the optimizer safe to deploy on a serving fleet.

* **homogeneous reduction** — on a fleet with uniform gains and
  staleness the optimizer's labeling is the greedy argmin exactly
  (tie-sets included), so the optimized schedule is bitwise greedy in
  results, loads and merged counters, serial and threaded alike;
* **bounded suboptimality** — on real drifted-fleet states the
  heuristic solver stays within a tested optimality gap of the exact
  branch-and-bound, and the optimized schedule never prices worse than
  greedy under the optimizer's own cost model.
"""

import numpy as np
import pytest

from repro.crossbar import PlacementOptimizer, ShardedOperator
from repro.devices import PcmDevice


def make_fleet(matrix, schedule, **kwargs):
    return ShardedOperator.from_matrix(
        matrix,
        n_shards=3,
        batch_window=3,
        schedule=schedule,
        device=PcmDevice.ideal(),
        seed=17,
        **kwargs,
    )


class TestHomogeneousReduction:
    @pytest.mark.parametrize("parallelism", ["serial", "threads"])
    def test_optimized_is_bitwise_greedy(self, rng, parallelism):
        matrix = rng.standard_normal((12, 20))
        greedy = make_fleet(matrix, "greedy")
        optimized = make_fleet(matrix, "optimized", parallelism=parallelism)
        stream = np.random.default_rng(31)
        try:
            for width in (8, 3, 7, 1, 5):
                block = stream.standard_normal((20, width))
                block[:, width % 3 :: 4] = 0.0  # dead windows in the mix
                assert optimized.plan_assignments(
                    block
                ) == greedy.plan_assignments(block)
                np.testing.assert_array_equal(
                    optimized.matmat(block), greedy.matmat(block)
                )
            z = stream.standard_normal((12, 6))
            np.testing.assert_array_equal(
                optimized.rmatmat(z), greedy.rmatmat(z)
            )
            assert optimized.loads == greedy.loads
            assert optimized.stats == greedy.stats
            assert optimized.shard_stats == greedy.shard_stats
        finally:
            optimized.shutdown()

    def test_uniformly_aged_fleet_stays_greedy(self, rng):
        """Homogeneous means uniform state, not only fresh state."""
        matrix = rng.standard_normal((12, 20))
        greedy = make_fleet(matrix, "greedy")
        optimized = make_fleet(matrix, "optimized")
        for fleet in (greedy, optimized):
            fleet.advance_time(3e5)
        stream = np.random.default_rng(31)
        for _ in range(3):
            block = stream.standard_normal((20, 7))
            np.testing.assert_array_equal(
                optimized.matmat(block), greedy.matmat(block)
            )
        assert optimized.loads == greedy.loads


class TestBoundedSuboptimality:
    def drifted_states(self, rng, ages):
        matrix = rng.standard_normal((12, 20))
        fleet = ShardedOperator.from_matrix(
            matrix,
            n_shards=len(ages),
            batch_window=3,
            schedule="optimized",
            device=PcmDevice.ideal(),
            seed=17,
        )
        for shard, age in enumerate(ages):
            if age:
                fleet.advance_time(age, shard=shard)
        return fleet._shard_states()

    def test_heuristic_within_gap_of_exact_on_fleet_states(self, rng):
        optimizer = PlacementOptimizer()
        stream = np.random.default_rng(47)
        for ages in ([0.0, 5e5, 2e6], [1e6, 1e4, 0.0, 3e5]):
            shards = self.drifted_states(rng, ages)
            weights = [int(w) for w in stream.integers(0, 6, size=7)]
            exact = optimizer.optimize(weights, shards, solver="exact")
            heuristic = optimizer.optimize(weights, shards, solver="heuristic")
            assert heuristic.cost <= 1.2 * exact.cost + 1e-12

    def test_optimized_never_prices_worse_than_greedy(self, rng):
        """Under the optimizer's own cost model, the assignment the
        optimized schedule plans for a heterogeneous fleet costs no
        more than what greedy would have planned from the same state."""
        matrix = rng.standard_normal((12, 20))
        pair = {}
        for schedule in ("greedy", "optimized"):
            fleet = make_fleet(matrix, schedule)
            fleet.advance_time(4e6, shard=0)
            fleet.advance_time(1e6, shard=1)
            pair[schedule] = fleet
        block = rng.standard_normal((20, 12))
        optimizer = pair["optimized"].optimizer
        states = pair["optimized"]._shard_states()
        weights = [active for _, _, active in pair["optimized"]._window_actives(block)]
        costs = {}
        for schedule, fleet in pair.items():
            assignment = [shard for _, _, shard in fleet.plan_assignments(block)]
            costs[schedule] = optimizer.evaluate(assignment, weights, states)[
                "cost"
            ]
        assert costs["optimized"] <= costs["greedy"] + 1e-12
