"""Tests of mixed-precision in-memory computing (ref [22])."""

import numpy as np
import pytest

from repro.crossbar import (
    CrossbarOperator,
    MixedPrecisionSolver,
    spd_test_system,
)
from repro.devices import PcmDevice


class TestTestSystem:
    def test_spd_and_diagonally_dominant(self):
        a, b = spd_test_system(32, seed=0)
        assert np.allclose(a, a.T)
        assert np.all(np.linalg.eigvalsh(a) > 0)
        assert b.shape == (32,)

    def test_validation(self):
        with pytest.raises(ValueError):
            spd_test_system(0)
        with pytest.raises(ValueError):
            spd_test_system(4, off_diagonal=1.0)


class TestExactBackend:
    def test_converges_to_tolerance(self):
        a, b = spd_test_system(48, seed=1)
        solver = MixedPrecisionSolver(a)
        result = solver.solve(b, tolerance=1e-12)
        assert result.converged
        assert np.allclose(a @ result.solution, b, atol=1e-9)

    def test_residual_monotone(self):
        a, b = spd_test_system(48, seed=2)
        result = MixedPrecisionSolver(a).solve(b)
        history = result.residual_history
        assert all(later < earlier for earlier, later in zip(history, history[1:]))

    def test_zero_rhs(self):
        a, _ = spd_test_system(8, seed=3)
        result = MixedPrecisionSolver(a).solve(np.zeros(8))
        assert result.converged
        assert np.array_equal(result.solution, np.zeros(8))

    def test_validation(self):
        a, b = spd_test_system(8, seed=4)
        with pytest.raises(ValueError):
            MixedPrecisionSolver(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            MixedPrecisionSolver(a, inner_iterations=0)
        with pytest.raises(ValueError):
            MixedPrecisionSolver(a).solve(np.zeros(9))
        with pytest.raises(ValueError):
            MixedPrecisionSolver(a).solve(b, outer_iterations=0)

    def test_analog_only_solve_validates_the_rhs(self):
        a, _ = spd_test_system(8, seed=4)
        with pytest.raises(ValueError, match="b must have shape"):
            MixedPrecisionSolver(a).analog_only_solve(np.zeros(9))


class TestCrossbarBackend:
    def test_refinement_beats_noise_floor(self):
        """The headline of [22]: exact residual + noisy inner solver
        reaches digital accuracy; the analog-only loop cannot."""
        a, b = spd_test_system(64, seed=5)
        operator = CrossbarOperator(a, seed=6)
        solver = MixedPrecisionSolver(a, operator=operator, inner_iterations=8)

        mixed = solver.solve(b, outer_iterations=40, tolerance=1e-9)
        analog_only = solver.analog_only_solve(b, iterations=80)

        assert mixed.converged
        assert mixed.final_residual < 1e-9
        assert analog_only.final_residual > 1e-3  # stalls at device noise
        assert mixed.final_residual < analog_only.final_residual / 1e4

    def test_solution_matches_numpy(self):
        a, b = spd_test_system(48, seed=7)
        operator = CrossbarOperator(a, seed=8)
        result = MixedPrecisionSolver(a, operator=operator).solve(
            b, outer_iterations=50, tolerance=1e-10
        )
        assert np.allclose(result.solution, np.linalg.solve(a, b), atol=1e-7)

    def test_most_work_is_analog(self):
        """All inner-iteration MVMs run on the crossbar."""
        a, b = spd_test_system(32, seed=9)
        operator = CrossbarOperator(a, seed=10)
        solver = MixedPrecisionSolver(a, operator=operator, inner_iterations=6)
        result = solver.solve(b, outer_iterations=20)
        assert operator.n_matvec == result.iterations * 6 or (
            result.converged
            and operator.n_matvec == (result.iterations - 1) * 6
        )

    def test_final_residual_requires_iterations(self):
        from repro.crossbar import SolveResult

        with pytest.raises(ValueError):
            _ = SolveResult(solution=np.zeros(2)).final_residual


class TestBatchSolve:
    """Multi-RHS refinement through the matmat path."""

    def make_rhs(self, n, batch, seed):
        return np.random.default_rng(seed).standard_normal((n, batch))

    def test_exact_backend_matches_per_column_solve(self):
        a, _ = spd_test_system(48, seed=11)
        rhs = self.make_rhs(48, 5, 12)
        rhs[:, 3] = 0.0  # zero column: solved by the zero vector
        solver = MixedPrecisionSolver(a)
        result = solver.solve_batch(rhs, tolerance=1e-12)
        assert result.all_converged
        for b in range(5):
            single = solver.solve(rhs[:, b], tolerance=1e-12)
            np.testing.assert_allclose(
                result.solutions[:, b], single.solution, atol=1e-12
            )
            assert result.iterations[b] == single.iterations
            assert bool(result.converged[b]) == single.converged
            np.testing.assert_allclose(
                result.residual_histories[b], single.residual_history,
                rtol=1e-7, atol=1e-15,
            )
        assert result.iterations[3] == 0
        assert result.final_residuals[3] == 0.0

    def test_crossbar_backend_reaches_digital_accuracy(self):
        a, _ = spd_test_system(64, seed=13)
        rhs = self.make_rhs(64, 4, 14)
        operator = CrossbarOperator(a, seed=15)
        solver = MixedPrecisionSolver(a, operator=operator, inner_iterations=8)
        result = solver.solve_batch(rhs, outer_iterations=40, tolerance=1e-9)
        assert result.all_converged
        assert result.final_residuals.max() < 1e-9
        np.testing.assert_allclose(
            result.solutions, np.linalg.solve(a, rhs), atol=1e-6
        )

    def test_all_inner_work_goes_through_matmat(self):
        """Every inner Richardson step is one crossbar matmat over the
        working set; the counters tally one logical read per column."""
        a, _ = spd_test_system(32, seed=16)
        rhs = self.make_rhs(32, 3, 17)
        operator = CrossbarOperator(a, seed=18)
        solver = MixedPrecisionSolver(a, operator=operator, inner_iterations=6)
        result = solver.solve_batch(rhs, outer_iterations=20)
        # each column's refinement rounds (minus the final converged
        # check) ran inner_iterations analog reads
        expected = int(
            sum(
                (rounds - 1 if converged else rounds) * 6
                for rounds, converged in zip(result.iterations, result.converged)
            )
        )
        assert operator.n_matvec == expected

    def test_masked_counters_match_looped_on_deterministic_twins(self):
        """With deterministic reads the batched and looped solves take
        identical trajectories, so the conversion counters agree even
        though converged columns leave the working set."""
        a, _ = spd_test_system(32, seed=19)
        rhs = self.make_rhs(32, 4, 20)
        quiet = PcmDevice(read_noise_sigma=0.0)
        batched_op = CrossbarOperator(a, device=quiet, seed=21)
        batched = MixedPrecisionSolver(
            a, operator=batched_op, inner_iterations=5
        ).solve_batch(rhs, outer_iterations=30, tolerance=1e-9)
        looped_op = CrossbarOperator(a, device=quiet, seed=21)
        looped = MixedPrecisionSolver(a, operator=looped_op, inner_iterations=5)
        for b in range(4):
            single = looped.solve(rhs[:, b], outer_iterations=30, tolerance=1e-9)
            np.testing.assert_allclose(
                batched.solutions[:, b], single.solution, atol=1e-9
            )
        assert batched_op.stats == looped_op.stats

    def test_all_zero_block_runs_no_rounds(self):
        a, _ = spd_test_system(8, seed=25)
        operator = CrossbarOperator(a, seed=26)
        solver = MixedPrecisionSolver(a, operator=operator)
        result = solver.solve_batch(np.zeros((8, 3)))
        assert result.all_converged
        assert np.array_equal(result.iterations, np.zeros(3, dtype=int))
        assert np.array_equal(result.solutions, np.zeros((8, 3)))
        assert operator.n_matvec == 0  # no analog read at all

    def test_column_result_round_trip(self):
        a, _ = spd_test_system(16, seed=22)
        rhs = self.make_rhs(16, 2, 23)
        result = MixedPrecisionSolver(a).solve_batch(rhs)
        view = result.column_result(0)
        assert view.iterations == result.iterations[0]
        np.testing.assert_array_equal(view.solution, result.solutions[:, 0])
        with pytest.raises(IndexError):
            result.column_result(2)

    def test_validation(self):
        a, _ = spd_test_system(8, seed=24)
        solver = MixedPrecisionSolver(a)
        with pytest.raises(ValueError):
            solver.solve_batch(np.zeros(8))  # 1-D belongs to solve
        with pytest.raises(ValueError):
            solver.solve_batch(np.zeros((9, 2)))
        with pytest.raises(ValueError):
            solver.solve_batch(np.zeros((8, 0)))
        with pytest.raises(ValueError):
            solver.solve_batch(np.zeros((8, 2)), outer_iterations=0)
