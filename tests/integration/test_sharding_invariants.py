"""Cross-layer invariants of the sharded fleet scheduler.

The contract that makes :class:`~repro.crossbar.ShardedOperator` safe to
drop into every batched consumer is pinned here, on *exact* (noise-free,
deterministic) backends, across a seeded grid of
``(shards, batch_window, B)`` including ragged last windows and
``B < batch_window`` degenerate cases:

* results — the sharded fleet computes what the unsharded single array
  computes: bit-for-bit on the quantized ideal-device crossbar (the
  converters absorb gemm-width rounding), and to <= 1e-10 per column on
  the float-exact dense backend;
* counters — the merged fleet DAC/ADC/live-read counters equal the
  single-array counters exactly, so ``energy_from_stats`` prices a
  sharded run identically;
* consumers — ``amp_recover_batch`` produces identical outputs and
  iteration histories through a sharded fleet;
* k-bank readout — ``batch_readout(banks=1)`` and ``banks=B`` reproduce
  the serial/parallel schedules bit-for-bit.
"""

import numpy as np
import pytest

from repro.crossbar import (
    CrossbarOperator,
    DenseOperator,
    ShardedOperator,
)
from repro.devices import PcmDevice
from repro.energy import CrossbarCostModel
from repro.signal import CsProblem, amp_recover_batch

COUNTER_KEYS = (
    "n_matvec",
    "n_rmatvec",
    "n_live_matvec",
    "n_live_rmatvec",
    "dac_conversions",
    "adc_conversions",
)

# (shards, batch_window, B): even windows, ragged last windows, more
# shards than windows, and the B < batch_window degenerate case.
GRID = [
    (1, 4, 8),
    (2, 3, 8),
    (2, 4, 8),
    (3, 5, 4),
    (4, 2, 7),
]


def counters(operator):
    stats = operator.stats
    return {key: stats[key] for key in COUNTER_KEYS if key in stats}


def make_crossbar_pair(matrix, shards, window, schedule="round_robin"):
    """A sharded ideal-device fleet and its unsharded single-array twin.

    The ideal device has zero programming/read noise, so every replica
    stores identical conductances and all reads are deterministic; the
    default 8-bit converters stay on, which makes the comparison a
    *quantized* bit-for-bit one.
    """
    sharded = ShardedOperator.from_matrix(
        matrix,
        n_shards=shards,
        batch_window=window,
        schedule=schedule,
        device=PcmDevice.ideal(),
        seed=0,
    )
    single = CrossbarOperator(matrix, device=PcmDevice.ideal(), seed=1)
    return sharded, single


class TestRawProducts:
    @pytest.mark.parametrize("shards,window,batch", GRID)
    def test_crossbar_matmat_bitwise_and_counters(self, shards, window, batch, rng):
        matrix = rng.standard_normal((18, 30))
        x_block = rng.standard_normal((30, batch))
        x_block[:, batch // 2] = 0.0  # a dead column in some window
        z_block = rng.standard_normal((18, batch))
        sharded, single = make_crossbar_pair(matrix, shards, window)
        assert np.array_equal(sharded.matmat(x_block), single.matmat(x_block))
        assert np.array_equal(sharded.rmatmat(z_block), single.rmatmat(z_block))
        assert counters(sharded) == counters(single)

    @pytest.mark.parametrize("shards,window,batch", GRID)
    def test_dense_matmat_column_equivalence(self, shards, window, batch, rng):
        matrix = rng.standard_normal((18, 30))
        x_block = rng.standard_normal((30, batch))
        sharded = ShardedOperator.from_matrix(
            matrix, n_shards=shards, batch_window=window, backend="exact"
        )
        single = DenseOperator(matrix)
        result, reference = sharded.matmat(x_block), single.matmat(x_block)
        scale = np.linalg.norm(reference, axis=0)
        assert (np.linalg.norm(result - reference, axis=0) <= 1e-10 * scale).all()
        assert sharded.stats == single.stats

    def test_greedy_schedule_same_results_and_counters(self, rng):
        matrix = rng.standard_normal((18, 30))
        x_block = rng.standard_normal((30, 8))
        robin, single = make_crossbar_pair(matrix, 2, 3, schedule="round_robin")
        greedy, _ = make_crossbar_pair(matrix, 2, 3, schedule="greedy")
        reference = single.matmat(x_block)
        assert np.array_equal(robin.matmat(x_block), reference)
        assert np.array_equal(greedy.matmat(x_block), reference)
        assert counters(robin) == counters(greedy) == counters(single)

    def test_empty_and_all_zero_batches_bill_nothing(self, rng):
        matrix = rng.standard_normal((18, 30))
        sharded, single = make_crossbar_pair(matrix, 2, 3)
        assert sharded.matmat(np.zeros((30, 0))).shape == (18, 0)
        assert sharded.rmatmat(np.zeros((18, 0))).shape == (30, 0)
        assert np.array_equal(
            sharded.matmat(np.zeros((30, 5))), single.matmat(np.zeros((30, 5)))
        )
        merged = sharded.stats
        assert merged["n_matvec"] == 5  # logical reads counted
        assert merged["n_live_matvec"] == 0  # but nothing touched hardware
        assert merged["dac_conversions"] == 0
        assert merged["adc_conversions"] == 0
        assert counters(sharded) == counters(single)


class TestAmpConsumer:
    @pytest.mark.parametrize("shards,window,batch", GRID)
    def test_fleet_recovery_identical(self, shards, window, batch):
        fleet = CsProblem.generate_batch(n=48, m=24, k=3, batch=batch, seed=11)
        sharded, single = make_crossbar_pair(fleet.matrix, shards, window)
        kwargs = dict(iterations=12, ground_truth=fleet.signals)
        a = amp_recover_batch(fleet.measurements, sharded, fleet.n, **kwargs)
        b = amp_recover_batch(fleet.measurements, single, fleet.n, **kwargs)
        assert np.array_equal(a.estimates, b.estimates)
        assert np.array_equal(a.iterations, b.iterations)
        assert np.array_equal(a.converged, b.converged)
        assert a.active_counts == b.active_counts
        assert a.residual_norms == b.residual_norms
        assert a.thresholds == b.thresholds
        assert a.nmse_histories == b.nmse_histories
        assert counters(sharded) == counters(single)

    def test_merged_counters_price_identically(self):
        fleet = CsProblem.generate_batch(n=48, m=24, k=3, batch=8, seed=12)
        sharded, single = make_crossbar_pair(fleet.matrix, 2, 3)
        amp_recover_batch(fleet.measurements, sharded, fleet.n, iterations=10)
        amp_recover_batch(fleet.measurements, single, fleet.n, iterations=10)
        model = CrossbarCostModel(rows=48, cols=24, devices_per_cell=2)
        assert model.energy_from_stats(sharded.stats) == model.energy_from_stats(
            single.stats
        )

    def test_zero_measurement_fleet_bills_zero(self):
        """A fleet that is converged at t = 0 (y = 0) never fires a
        converter on either path."""
        rng = np.random.default_rng(13)
        matrix = rng.standard_normal((24, 48))
        sharded, single = make_crossbar_pair(matrix, 2, 3)
        for operator in (sharded, single):
            result = amp_recover_batch(
                np.zeros((24, 6)), operator, 48, iterations=10
            )
            assert result.all_converged
            assert np.array_equal(result.iterations, np.ones(6, dtype=int))
            assert np.array_equal(result.estimates, np.zeros((48, 6)))
            stats = operator.stats
            assert stats["dac_conversions"] == 0
            assert stats["adc_conversions"] == 0
            assert stats["n_live_matvec"] == 0 and stats["n_live_rmatvec"] == 0
        model = CrossbarCostModel(rows=48, cols=24, devices_per_cell=2)
        assert model.energy_from_stats(sharded.stats)["total_energy_j"] == 0.0


class TestBankEndpoints:
    """banks=1 / banks=B reproduce the named schedules bit-for-bit."""

    @pytest.mark.parametrize("batch", [1, 2, 8, 64])
    def test_banks_1_is_serial(self, batch):
        model = CrossbarCostModel()
        assert model.batch_readout(batch, banks=1) == model.batch_readout(
            batch, "serial"
        )
        assert model.matmat_energy_j(batch, banks=1) == model.matmat_energy_j(
            batch, "serial"
        )
        assert model.matmat_latency_s(batch, banks=1) == model.matmat_latency_s(
            batch, "serial"
        )

    @pytest.mark.parametrize("batch", [2, 8, 64])
    def test_banks_b_is_parallel(self, batch):
        model = CrossbarCostModel()
        assert model.batch_readout(batch, banks=batch) == model.batch_readout(
            batch, "parallel"
        )
        assert model.matmat_energy_j(batch, banks=batch) == model.matmat_energy_j(
            batch, "parallel"
        )
        assert model.matmat_latency_s(batch, banks=batch) == model.matmat_latency_s(
            batch, "parallel"
        )

    def test_serial_b1_anchor_survives(self):
        model = CrossbarCostModel()
        assert model.matmat_energy_j(1, banks=1) == model.mvm_energy_j
        assert model.mvm_energy_j == pytest.approx(222e-9, rel=0.01)

    def test_b1_schedules_differ_only_in_label(self):
        """At B = 1 the two named schedules are physically the same
        one-bank, one-cycle readout; banks=1 canonically reports it as
        serial."""
        import dataclasses

        model = CrossbarCostModel()
        banked = model.batch_readout(1, banks=1)
        parallel = model.batch_readout(1, "parallel")
        assert banked.schedule == "serial"
        assert dataclasses.replace(parallel, schedule="serial") == banked
