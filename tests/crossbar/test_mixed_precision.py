"""Tests of mixed-precision in-memory computing (ref [22])."""

import numpy as np
import pytest

from repro.crossbar import (
    CrossbarOperator,
    MixedPrecisionSolver,
    spd_test_system,
)


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
        with pytest.raises(ValueError, match="inner_iterations"):
            MixedPrecisionSolver(a, inner_iterations=2.5)
        with pytest.raises(ValueError, match="outer_iterations"):
            MixedPrecisionSolver(a).solve(b, outer_iterations=float("nan"))
        for tolerance in (float("nan"), -1.0):
            with pytest.raises(ValueError, match="tolerance"):
                MixedPrecisionSolver(a).solve(b, tolerance=tolerance)
        with pytest.raises(ValueError, match="iterations"):
            MixedPrecisionSolver(a).analog_only_solve(b, iterations=2.5)

    @pytest.mark.parametrize("name", ["inner_iterations", "outer_iterations"])
    def test_integral_float_counts_run_like_ints(self, name):
        a, b = spd_test_system(16, seed=5)
        counts = {"inner_iterations": 4, "outer_iterations": 6}
        reference = MixedPrecisionSolver(a, inner_iterations=4).solve(
            b, outer_iterations=6, tolerance=0.0
        )
        counts[name] = float(counts[name])
        result = MixedPrecisionSolver(
            a, inner_iterations=counts["inner_iterations"]
        ).solve(b, outer_iterations=counts["outer_iterations"], tolerance=0.0)
        np.testing.assert_array_equal(result.solution, reference.solution)
        assert result.residual_history == reference.residual_history
        assert result.iterations == 6

    def test_analog_only_solve_takes_an_integral_float_count(self):
        a, b = spd_test_system(8, seed=4)
        solver = MixedPrecisionSolver(a)
        result = solver.analog_only_solve(b, iterations=7.0)
        reference = solver.analog_only_solve(b, iterations=7)
        assert result.iterations == 7
        assert result.residual_history == reference.residual_history

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
