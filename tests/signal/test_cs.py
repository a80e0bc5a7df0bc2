"""Tests of the compressed-sensing problem setup."""

import numpy as np
import pytest

from repro.signal import CsProblem, CsProblemBatch
from repro.workloads.signals import (
    gaussian_measurement_matrix,
    measure,
    sparse_signal,
    sparse_signal_batch,
)


class TestSparseSignal:
    def test_sparsity(self):
        x = sparse_signal(100, 7, seed=0)
        assert np.count_nonzero(x) == 7

    def test_rademacher_amplitudes(self):
        x = sparse_signal(50, 10, amplitude="rademacher", seed=1)
        assert set(np.unique(x[x != 0])) <= {-1.0, 1.0}

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            sparse_signal(10, 0)
        with pytest.raises(ValueError):
            sparse_signal(10, 11)

    def test_rejects_bad_amplitude(self):
        with pytest.raises(ValueError):
            sparse_signal(10, 2, amplitude="cauchy")


class TestMeasurementMatrix:
    def test_column_normalization(self):
        a = gaussian_measurement_matrix(200, 400, seed=2)
        norms = np.linalg.norm(a, axis=0)
        assert np.mean(norms) == pytest.approx(1.0, rel=0.05)

    def test_measure_noiseless(self):
        a = gaussian_measurement_matrix(4, 8, seed=3)
        x = sparse_signal(8, 2, seed=4)
        assert np.allclose(measure(a, x), a @ x)

    def test_measure_noise_level(self):
        a = np.zeros((2000, 10))
        y = measure(a, np.zeros(10), noise_std=0.1, seed=5)
        assert np.std(y) == pytest.approx(0.1, rel=0.1)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            measure(np.eye(2), np.ones(2), noise_std=-1)


class TestCsProblem:
    def test_generate_consistent(self):
        problem = CsProblem.generate(n=128, m=64, k=8, seed=6)
        assert problem.n == 128 and problem.m == 64
        assert problem.sparsity == 8
        assert problem.undersampling == pytest.approx(0.5)
        assert np.allclose(problem.measurements, problem.matrix @ problem.signal)

    def test_rejects_overdetermined(self):
        with pytest.raises(ValueError, match="M < N"):
            CsProblem(
                matrix=np.eye(4),
                signal=np.ones(4),
                measurements=np.ones(4),
                noise_std=0.0,
            )

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            CsProblem(
                matrix=np.zeros((2, 4)),
                signal=np.ones(3),
                measurements=np.ones(2),
                noise_std=0.0,
            )

    def test_measurement_length_validated(self):
        with pytest.raises(ValueError, match="measurement length"):
            CsProblem(
                matrix=np.zeros((2, 4)),
                signal=np.ones(4),
                measurements=np.ones(3),
                noise_std=0.0,
            )

    def test_recovery_nmse(self):
        problem = CsProblem.generate(n=64, m=32, k=4, seed=7)
        assert problem.recovery_nmse(problem.signal) == 0.0
        assert problem.recovery_nmse(np.zeros(64)) == pytest.approx(1.0)


class TestSparseSignalBatch:
    def test_shape_and_per_column_sparsity(self):
        block = sparse_signal_batch(100, 7, 5, seed=0)
        assert block.shape == (100, 5)
        assert np.all(np.count_nonzero(block, axis=0) == 7)

    def test_columns_follow_the_sequential_stream(self):
        rng_a = np.random.default_rng(1)
        block = sparse_signal_batch(50, 4, 3, seed=rng_a)
        rng_b = np.random.default_rng(1)
        for b in range(3):
            np.testing.assert_array_equal(
                block[:, b], sparse_signal(50, 4, seed=rng_b)
            )

    def test_columns_have_distinct_supports(self):
        block = sparse_signal_batch(200, 5, 4, seed=2)
        supports = {tuple(np.flatnonzero(block[:, b])) for b in range(4)}
        assert len(supports) > 1

    def test_rejects_bad_batch(self):
        with pytest.raises(ValueError):
            sparse_signal_batch(10, 2, 0)


class TestCsProblemBatch:
    def test_generate_consistent(self):
        fleet = CsProblem.generate_batch(n=128, m=64, k=8, batch=5, seed=3)
        assert isinstance(fleet, CsProblemBatch)
        assert fleet.n == 128 and fleet.m == 64 and fleet.batch == 5
        assert fleet.undersampling == pytest.approx(0.5)
        assert np.all(fleet.sparsity == 8)
        assert np.allclose(fleet.measurements, fleet.matrix @ fleet.signals)

    def test_noise_level(self):
        fleet = CsProblemBatch.generate(
            n=128, m=64, k=8, batch=20, noise_std=0.1, seed=4
        )
        residual = fleet.measurements - fleet.matrix @ fleet.signals
        assert np.std(residual) == pytest.approx(0.1, rel=0.1)

    def test_problem_view_round_trips(self):
        fleet = CsProblem.generate_batch(n=64, m=32, k=4, batch=3, seed=5)
        problem = fleet.problem(1)
        assert isinstance(problem, CsProblem)
        np.testing.assert_array_equal(problem.signal, fleet.signals[:, 1])
        np.testing.assert_array_equal(
            problem.measurements, fleet.measurements[:, 1]
        )
        assert problem.matrix is fleet.matrix
        with pytest.raises(IndexError):
            fleet.problem(3)

    def test_recovery_nmse_rejects_a_zero_energy_signal(self):
        fleet = CsProblemBatch(
            matrix=np.ones((2, 4)),
            signals=np.zeros((4, 2)),
            measurements=np.zeros((2, 2)),
            noise_std=0.0,
        )
        with pytest.raises(ValueError, match="zero energy"):
            fleet.recovery_nmse(np.zeros((4, 2)))

    def test_recovery_nmse_per_column(self):
        fleet = CsProblem.generate_batch(n=64, m=32, k=4, batch=3, seed=6)
        perfect = fleet.recovery_nmse(fleet.signals)
        np.testing.assert_array_equal(perfect, np.zeros(3))
        zeros = fleet.recovery_nmse(np.zeros((64, 3)))
        np.testing.assert_allclose(zeros, np.ones(3))
        # agrees with the single-problem metric column for column
        estimates = fleet.signals + 0.1
        for b in range(3):
            assert fleet.recovery_nmse(estimates)[b] == pytest.approx(
                fleet.problem(b).recovery_nmse(estimates[:, b])
            )
        with pytest.raises(ValueError):
            fleet.recovery_nmse(np.zeros((64, 2)))

    def test_validation(self):
        matrix = np.zeros((2, 4))
        with pytest.raises(ValueError, match=r"\(n, B\)"):
            CsProblemBatch(
                matrix=matrix,
                signals=np.ones(4),
                measurements=np.ones((2, 1)),
                noise_std=0.0,
            )
        with pytest.raises(ValueError, match=r"\(m, B\)"):
            CsProblemBatch(
                matrix=matrix,
                signals=np.ones((4, 2)),
                measurements=np.ones((2, 3)),
                noise_std=0.0,
            )
        with pytest.raises(ValueError, match="M < N"):
            CsProblemBatch(
                matrix=np.eye(4),
                signals=np.ones((4, 2)),
                measurements=np.ones((4, 2)),
                noise_std=0.0,
            )
        with pytest.raises(ValueError, match="at least one"):
            CsProblemBatch(
                matrix=matrix,
                signals=np.ones((4, 0)),
                measurements=np.ones((2, 0)),
                noise_std=0.0,
            )
