"""Tests of the high-level crossbar operator."""

import numpy as np
import pytest

from repro.crossbar import CrossbarOperator, DenseOperator
from repro.devices import PcmDevice


def relative_error(estimate, reference):
    return np.linalg.norm(estimate - reference) / np.linalg.norm(reference)


class TestDenseOperator:
    def test_matvec_rmatvec(self, small_matrix, rng):
        op = DenseOperator(small_matrix)
        x = rng.standard_normal(small_matrix.shape[1])
        z = rng.standard_normal(small_matrix.shape[0])
        assert np.allclose(op.matvec(x), small_matrix @ x)
        assert np.allclose(op.rmatvec(z), small_matrix.T @ z)
        assert op.n_matvec == 1 and op.n_rmatvec == 1

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            DenseOperator(np.ones(4))

    def test_matmat_rmatmat(self, small_matrix, rng):
        op = DenseOperator(small_matrix)
        x_block = rng.standard_normal((small_matrix.shape[1], 3))
        z_block = rng.standard_normal((small_matrix.shape[0], 4))
        assert np.allclose(op.matmat(x_block), small_matrix @ x_block)
        assert np.allclose(op.rmatmat(z_block), small_matrix.T @ z_block)
        # one logical read per input vector, as on the crossbar
        assert op.n_matvec == 3 and op.n_rmatvec == 4
        assert op.stats == {"n_matvec": 3, "n_rmatvec": 4}

    def test_matmat_validation(self, small_matrix):
        op = DenseOperator(small_matrix)
        m, n = small_matrix.shape
        with pytest.raises(ValueError):
            op.matmat(np.zeros(n))  # 1-D belongs to matvec
        with pytest.raises(ValueError):
            op.matmat(np.zeros((m, 2)))  # wrong feature dimension
        with pytest.raises(ValueError):
            op.rmatmat(np.zeros((n, 2)))

    def test_vector_products_reject_blocks_before_counting(self):
        """``matvec``/``rmatvec`` take one vector, as on the crossbar: a
        block used to come back as an ``(m, B)`` product counted as one
        read."""
        op = DenseOperator(np.arange(12.0).reshape(3, 4))
        for read, bad in (
            (op.matvec, np.ones((4, 2))),
            (op.matvec, np.ones(3)),
            (op.rmatvec, np.ones((3, 2))),
            (op.rmatvec, np.ones(4)),
        ):
            with pytest.raises(ValueError, match="shape"):
                read(bad)
        assert op.stats == {"n_matvec": 0, "n_rmatvec": 0}

    def test_empty_batch_returns_empty_and_counts_nothing(self, small_matrix):
        """B = 0 is a legal degenerate fleet: empty result, zero reads."""
        op = DenseOperator(small_matrix)
        m, n = small_matrix.shape
        assert op.matmat(np.zeros((n, 0))).shape == (m, 0)
        assert op.rmatmat(np.zeros((m, 0))).shape == (n, 0)
        assert op.stats == {"n_matvec": 0, "n_rmatvec": 0}


class TestIdealCrossbar:
    def test_matvec_exact_with_ideal_device(self, small_matrix, rng):
        op = CrossbarOperator(
            small_matrix, device=PcmDevice.ideal(), dac_bits=None, adc_bits=None, seed=0
        )
        x = rng.standard_normal(small_matrix.shape[1])
        assert relative_error(op.matvec(x), small_matrix @ x) < 1e-10

    def test_rmatvec_exact_with_ideal_device(self, small_matrix, rng):
        op = CrossbarOperator(
            small_matrix, device=PcmDevice.ideal(), dac_bits=None, adc_bits=None, seed=0
        )
        z = rng.standard_normal(small_matrix.shape[0])
        assert relative_error(op.rmatvec(z), small_matrix.T @ z) < 1e-10

    def test_zero_vector_returns_zero(self, small_matrix):
        op = CrossbarOperator(small_matrix, device=PcmDevice.ideal(), seed=0)
        assert np.array_equal(op.matvec(np.zeros(small_matrix.shape[1])), np.zeros(small_matrix.shape[0]))

    def test_linearity_in_scale(self, small_matrix, rng):
        """Per-call input normalization must preserve scaling."""
        op = CrossbarOperator(
            small_matrix, device=PcmDevice.ideal(), dac_bits=None, adc_bits=None, seed=0
        )
        x = rng.standard_normal(small_matrix.shape[1])
        assert np.allclose(op.matvec(3.0 * x), 3.0 * op.matvec(x), rtol=1e-9)


class TestRealisticCrossbar:
    def test_error_within_pcm_regime(self, rng):
        matrix = rng.standard_normal((64, 96))
        op = CrossbarOperator(matrix, seed=1)
        x = rng.standard_normal(96)
        err = relative_error(op.matvec(x), matrix @ x)
        assert err < 0.15  # PCM MVM literature reports a few percent

    def test_tiling_matches_untiled(self, rng):
        matrix = rng.standard_normal((40, 56))
        x = rng.standard_normal(56)
        whole = CrossbarOperator(
            matrix, device=PcmDevice.ideal(), dac_bits=None, adc_bits=None, seed=0
        )
        tiled = CrossbarOperator(
            matrix,
            device=PcmDevice.ideal(),
            dac_bits=None,
            adc_bits=None,
            tile_shape=(16, 16),
            seed=0,
        )
        # stored as A.T: ceil(56/16) row blocks x ceil(40/16) col blocks
        assert tiled.n_tiles == 12
        assert np.allclose(whole.matvec(x), tiled.matvec(x), atol=1e-9)

    def test_more_adc_bits_less_error(self, rng):
        matrix = rng.standard_normal((32, 48))
        x = rng.standard_normal(48)
        device = PcmDevice.ideal()
        errs = {}
        for bits in (4, 8):
            op = CrossbarOperator(matrix, device=device, dac_bits=None, adc_bits=bits, seed=2)
            errs[bits] = relative_error(op.matvec(x), matrix @ x)
        assert errs[8] < errs[4]

    def test_drift_degrades_accuracy(self, rng):
        matrix = rng.standard_normal((32, 32))
        x = rng.standard_normal(32)
        op = CrossbarOperator(
            matrix,
            device=PcmDevice(prog_noise_sigma=0.0, read_noise_sigma=0.0),
            dac_bits=None,
            adc_bits=None,
            seed=3,
        )
        fresh = relative_error(op.matvec(x), matrix @ x)
        op.advance_time(1e6)
        aged = relative_error(op.matvec(x), matrix @ x)
        assert aged > fresh

    def test_stats_counters(self, small_matrix, rng):
        op = CrossbarOperator(small_matrix, seed=4)
        op.matvec(rng.standard_normal(small_matrix.shape[1]))
        op.rmatvec(rng.standard_normal(small_matrix.shape[0]))
        stats = op.stats
        assert stats["n_matvec"] == 1
        assert stats["n_rmatvec"] == 1
        assert stats["adc_conversions"] > 0
        assert stats["n_devices"] == 2 * small_matrix.size

    def test_shape_validation(self, small_matrix):
        op = CrossbarOperator(small_matrix, seed=5)
        with pytest.raises(ValueError):
            op.matvec(np.zeros(small_matrix.shape[0]))
        with pytest.raises(ValueError):
            op.rmatvec(np.zeros(small_matrix.shape[1]))

    def test_rejects_bad_full_scale_mode(self, small_matrix):
        with pytest.raises(ValueError):
            CrossbarOperator(small_matrix, full_scale_mode="bogus")


class TestTileMaintenance:
    """Per-tile staleness clocks, read heat and tile-scoped rewrites."""

    def make_tiled(self, rng):
        # A is (8, 10): stored as A.T -> 2 row spans over n=10 (input
        # side of matvec) x 2 col spans over m=8 = 4 tiles.
        matrix = rng.standard_normal((8, 10))
        return CrossbarOperator(
            matrix, device=PcmDevice.ideal(), tile_shape=(5, 4), seed=3
        )

    def test_fresh_operator_has_cold_zeroed_tiles(self, rng):
        op = self.make_tiled(rng)
        assert op.n_tiles == 4
        assert set(op.tile_staleness) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert all(value == 0.0 for value in op.tile_staleness.values())
        assert all(value == 0 for value in op.tile_read_counts.values())
        assert op.stale_hot_tiles() == []

    def test_forward_reads_heat_row_spans_only(self, rng):
        op = self.make_tiled(rng)
        block = np.zeros((10, 3))
        block[:5, :] = rng.standard_normal((5, 3))  # live in row span 0 only
        block[:, 2] = 0.0  # a dead column heats nothing
        op.matmat(block)
        counts = op.tile_read_counts
        assert counts[(0, 0)] == counts[(0, 1)] == 2
        assert counts[(1, 0)] == counts[(1, 1)] == 0

    def test_transpose_reads_heat_col_spans_only(self, rng):
        op = self.make_tiled(rng)
        z_block = np.zeros((8, 4))
        z_block[4:, :] = rng.standard_normal((4, 4))  # live in col span 1
        op.rmatmat(z_block)
        counts = op.tile_read_counts
        assert counts[(0, 1)] == counts[(1, 1)] == 4
        assert counts[(0, 0)] == counts[(1, 0)] == 0

    def test_single_vector_reads_count_too(self, rng):
        op = self.make_tiled(rng)
        op.matvec(rng.standard_normal(10))
        op.rmatvec(rng.standard_normal(8))
        counts = op.tile_read_counts
        assert all(value == 2 for value in counts.values())

    def test_whole_operator_maintenance_resets_every_clock(self, rng):
        op = self.make_tiled(rng)
        op.advance_time(500.0)
        assert all(value == 500.0 for value in op.tile_staleness.values())
        op.calibrate(n_probes=4, seed=7)
        assert all(value == 0.0 for value in op.tile_staleness.values())
        assert op.age_seconds == 500.0  # calibration does not reset drift
        op.advance_time(100.0)
        op.reprogram()
        assert all(value == 0.0 for value in op.tile_staleness.values())
        assert op.age_seconds == 0.0  # reprogramming does

    def test_reprogram_tiles_is_tile_scoped(self, rng):
        op = self.make_tiled(rng)
        op.advance_time(100.0)
        pulses = op.reprogram_tiles([(0, 0), (1, 1)])
        assert pulses > 0
        staleness = op.tile_staleness
        assert staleness[(0, 0)] == staleness[(1, 1)] == 0.0
        assert staleness[(0, 1)] == staleness[(1, 0)] == 100.0
        # the operator-level clock records the maintenance event...
        assert op.staleness_seconds == 0.0
        # ...but age (device drift) and the digital gain are untouched
        assert op.age_seconds == 100.0
        assert op.n_tile_reprograms == 2
        assert op.stats["n_tile_reprograms"] == 2

    def test_reprogram_tiles_edge_cases(self, rng):
        op = self.make_tiled(rng)
        assert op.reprogram_tiles([]) == 0
        assert op.n_tile_reprograms == 0
        op.reprogram_tiles([(0, 0), (0, 0)])  # duplicates rewrite once
        assert op.n_tile_reprograms == 1
        with pytest.raises(ValueError, match="unknown tile"):
            op.reprogram_tiles([(5, 0)])

    def test_stale_hot_tiles_ranks_by_heat_then_key(self, rng):
        op = self.make_tiled(rng)
        block = np.zeros((10, 3))
        block[:5, :] = rng.standard_normal((5, 3))  # heats row span 0
        op.matmat(block)
        z_block = np.zeros((8, 2))
        z_block[:4, :] = rng.standard_normal((4, 2))  # heats col span 0
        op.rmatmat(z_block)
        op.advance_time(100.0)  # uniformly stale; heat decides the order
        # heat: (0,0)=3+2=5, (0,1)=3, (1,0)=2, (1,1)=0; tie-free here
        assert op.stale_hot_tiles() == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert op.stale_hot_tiles(budget=2) == [(0, 0), (0, 1)]
        with pytest.raises(ValueError, match="budget"):
            op.stale_hot_tiles(budget=0)

    def test_stale_hot_tiles_prefers_ancient_idle_over_fresh_hot(self, rng):
        op = self.make_tiled(rng)
        op.advance_time(1000.0)
        op.reprogram_tiles([(0, 0)])  # (0,0) fresh again
        op.advance_time(1.0)
        block = rng.standard_normal((10, 5))
        op.matmat(block)  # heats every row span, (0,0) included
        ranked = op.stale_hot_tiles()
        # (0,0) is hot but nearly fresh (1 s); the 1001 s tiles lead
        assert ranked[-1] == (0, 0)
        assert set(ranked[:3]) == {(0, 1), (1, 0), (1, 1)}
