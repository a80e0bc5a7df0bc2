"""Tests of AMP recovery on exact and crossbar back-ends."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crossbar import CrossbarOperator, DenseOperator
from repro.signal import CsProblem, amp_recover, soft_threshold


class TestSoftThreshold:
    def test_shrinks_toward_zero(self):
        out = soft_threshold(np.array([-3.0, -0.5, 0.0, 0.5, 3.0]), 1.0)
        assert np.allclose(out, [-2.0, 0.0, 0.0, 0.0, 2.0])

    def test_zero_tau_is_identity(self):
        x = np.array([1.0, -2.0])
        assert np.array_equal(soft_threshold(x, 0.0), x)

    def test_rejects_negative_tau(self):
        with pytest.raises(ValueError):
            soft_threshold(np.zeros(2), -0.1)

    @given(st.floats(0.0, 5.0), st.floats(-10.0, 10.0))
    def test_odd_and_contractive(self, tau, v):
        value = soft_threshold(np.array([v]), tau)[0]
        mirrored = soft_threshold(np.array([-v]), tau)[0]
        assert value == pytest.approx(-mirrored)
        assert abs(value) <= abs(v)

    def test_per_column_tau_vector(self):
        """A length-B tau applies one threshold per column of a block."""
        block = np.array([[3.0, 3.0], [-1.0, -1.0]])
        out = soft_threshold(block, np.array([1.0, 2.0]))
        assert np.allclose(out, [[2.0, 1.0], [0.0, 0.0]])

    def test_tau_vector_matches_columnwise_scalar_calls(self):
        rng = np.random.default_rng(0)
        block = rng.standard_normal((16, 4))
        tau = rng.uniform(0.0, 1.0, 4)
        out = soft_threshold(block, tau)
        for b in range(4):
            np.testing.assert_array_equal(
                out[:, b], soft_threshold(block[:, b], float(tau[b]))
            )

    def test_rejects_negative_tau_element(self):
        with pytest.raises(ValueError):
            soft_threshold(np.zeros((3, 2)), np.array([0.5, -0.1]))

    @pytest.mark.parametrize(
        "values, tau",
        [(np.ones(3), float("nan")), (np.ones((3, 2)), np.array([0.5, np.nan]))],
    )
    def test_rejects_a_nan_threshold(self, values, tau):
        """NaN compares false against zero, so a ``tau < 0`` test lets it
        through and every output turns NaN."""
        with pytest.raises(ValueError, match="tau"):
            soft_threshold(values, tau)


class TestExactRecovery:
    def test_noiseless_recovery_to_machine_precision(self):
        problem = CsProblem.generate(n=256, m=128, k=12, seed=0)
        result = amp_recover(
            problem.measurements,
            DenseOperator(problem.matrix),
            problem.n,
            iterations=50,
            ground_truth=problem.signal,
        )
        assert result.final_nmse < 1e-10

    def test_noisy_recovery_reaches_noise_floor(self):
        problem = CsProblem.generate(n=256, m=128, k=12, noise_std=0.01, seed=1)
        result = amp_recover(
            problem.measurements,
            DenseOperator(problem.matrix),
            problem.n,
            iterations=40,
            ground_truth=problem.signal,
        )
        assert result.final_nmse < 5e-3

    def test_nmse_monotone_trend(self):
        problem = CsProblem.generate(n=256, m=128, k=12, seed=2)
        result = amp_recover(
            problem.measurements,
            DenseOperator(problem.matrix),
            problem.n,
            iterations=25,
            ground_truth=problem.signal,
        )
        history = result.nmse_history
        assert history[-1] < history[0] / 100

    def test_histories_aligned(self):
        problem = CsProblem.generate(n=128, m=64, k=6, seed=3)
        result = amp_recover(
            problem.measurements,
            DenseOperator(problem.matrix),
            problem.n,
            iterations=10,
            ground_truth=problem.signal,
        )
        assert len(result.residual_norms) == len(result.thresholds)
        assert len(result.nmse_history) == result.iterations

    def test_final_nmse_requires_ground_truth(self):
        problem = CsProblem.generate(n=64, m=32, k=4, seed=4)
        result = amp_recover(
            problem.measurements, DenseOperator(problem.matrix), problem.n, iterations=5
        )
        with pytest.raises(ValueError):
            _ = result.final_nmse

    def test_too_sparse_measurement_fails_gracefully(self):
        """Far above the phase transition AMP cannot recover; NMSE
        stays high but nothing blows up."""
        problem = CsProblem.generate(n=256, m=32, k=30, seed=5)
        result = amp_recover(
            problem.measurements,
            DenseOperator(problem.matrix),
            problem.n,
            iterations=30,
            ground_truth=problem.signal,
        )
        assert np.isfinite(result.final_nmse)
        assert result.final_nmse > 0.1

    def test_zero_measurements_converge_at_zero_fixed_point(self):
        """Regression: ``y = 0`` keeps the estimate at exactly zero, so
        ``delta == 0`` with zero scale — this must count as converged
        instead of looping to the iteration cap."""
        problem = CsProblem.generate(n=64, m=32, k=4, seed=11)
        result = amp_recover(
            np.zeros(problem.m), DenseOperator(problem.matrix), problem.n
        )
        assert result.converged
        assert result.iterations == 1
        assert np.array_equal(result.estimate, np.zeros(problem.n))

    def test_overaggressive_threshold_terminates_immediately(self):
        """A threshold that zeroes every coefficient leaves the estimate
        exactly unchanged (``delta == 0`` at the zero fixed point), so
        the solver stops at once instead of spinning to the cap."""
        problem = CsProblem.generate(n=64, m=32, k=4, seed=12)
        result = amp_recover(
            problem.measurements,
            DenseOperator(problem.matrix),
            problem.n,
            iterations=200,
            threshold_factor=1e6,
        )
        assert result.converged
        assert result.iterations == 1
        assert np.array_equal(result.estimate, np.zeros(problem.n))

    @pytest.mark.parametrize(
        "bad",
        [
            {"iterations": 0},
            {"threshold_factor": 0.0},
            {"iterations": 2.5},
            {"iterations": float("nan")},
            {"n": float("nan")},
            {"threshold_factor": float("nan")},
            {"threshold_factor": float("inf")},
            {"tolerance": float("nan")},
            {"tolerance": -1.0},
        ],
    )
    def test_parameter_validation(self, bad):
        """Each bad value raises a ValueError naming its parameter."""
        problem = CsProblem.generate(n=64, m=32, k=4, seed=6)
        arguments = {"n": problem.n, **bad}
        with pytest.raises(ValueError, match=next(iter(bad))):
            amp_recover(
                problem.measurements,
                DenseOperator(problem.matrix),
                **arguments,
            )

    @pytest.mark.parametrize(
        "name, value", [("iterations", 20.0), ("n", 64.0), ("stagnation_window", 3.0)]
    )
    def test_integral_float_counts_run_like_ints(self, name, value):
        problem = CsProblem.generate(n=64, m=32, k=4, seed=6)
        arguments = {"n": problem.n, "iterations": 20, "stagnation_window": 3}
        reference = amp_recover(
            problem.measurements, DenseOperator(problem.matrix), **arguments
        )
        arguments[name] = value
        result = amp_recover(
            problem.measurements, DenseOperator(problem.matrix), **arguments
        )
        np.testing.assert_array_equal(result.estimate, reference.estimate)
        assert result.iterations == reference.iterations > 3

    def test_rejects_an_empty_signal_dimension(self):
        problem = CsProblem.generate(n=64, m=32, k=4, seed=6)
        with pytest.raises(ValueError, match="dimensions"):
            amp_recover(problem.measurements, DenseOperator(problem.matrix), 0)


class TestBoundaryChecks:
    """Bad measurements or ground truth raise before the operator is
    read: no read counter or conversion counter moves."""

    @pytest.fixture
    def problem(self):
        return CsProblem.generate(n=64, m=32, k=4, seed=5)

    def assert_rejected_unread(self, problem, match, measurements=None, **kwargs):
        operator = CrossbarOperator(problem.matrix, seed=1)
        before = operator.stats
        if measurements is None:
            measurements = problem.measurements
        with pytest.raises(ValueError, match=match):
            amp_recover(measurements, operator, problem.n, **kwargs)
        assert operator.stats == before

    @pytest.mark.parametrize(
        "truth",
        [
            lambda x0: x0[:, None],  # broadcast to (64, 64) against (64,)
            lambda x0: x0[:10],
            lambda x0: x0[None, :],
            lambda x0: np.stack([x0, x0], axis=1),
        ],
        ids=["column", "short", "row", "block"],
    )
    def test_rejects_a_mis_shaped_ground_truth(self, problem, truth):
        self.assert_rejected_unread(
            problem, r"ground_truth must have shape \(64,\)",
            ground_truth=truth(problem.signal),
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_ground_truth(self, problem, bad):
        truth = problem.signal.copy()
        truth[7] = bad
        self.assert_rejected_unread(
            problem, "ground_truth must be finite", ground_truth=truth
        )

    def test_rejects_a_zero_energy_ground_truth(self, problem):
        self.assert_rejected_unread(
            problem, "zero energy", ground_truth=np.zeros(problem.n)
        )

    @pytest.mark.parametrize("columns", [1, 3])
    def test_points_a_measurement_block_to_the_batch_solver(self, problem, columns):
        block = np.repeat(problem.measurements[:, None], columns, axis=1)
        self.assert_rejected_unread(problem, "amp_recover_batch", measurements=block)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_measurements(self, problem, bad):
        measurements = problem.measurements.copy()
        measurements[3] = bad
        self.assert_rejected_unread(
            problem, "measurements must be finite", measurements=measurements
        )

    def test_a_well_shaped_ground_truth_tracks_the_true_nmse(self, problem):
        result = amp_recover(
            problem.measurements, CrossbarOperator(problem.matrix, seed=1),
            problem.n, ground_truth=problem.signal,
        )
        assert result.final_nmse == pytest.approx(
            problem.recovery_nmse(result.estimate), rel=1e-12
        )
        assert result.final_nmse < 0.05


class TestCrossbarRecovery:
    def test_recovery_close_to_exact(self):
        """Fig. 6: the same AMP loop with crossbar MVMs still recovers,
        to within the device-noise floor."""
        problem = CsProblem.generate(n=256, m=128, k=12, seed=7)
        operator = CrossbarOperator(problem.matrix, seed=8)
        result = amp_recover(
            problem.measurements,
            operator,
            problem.n,
            iterations=30,
            ground_truth=problem.signal,
        )
        assert result.final_nmse < 5e-2
        assert operator.n_matvec == operator.n_rmatvec == result.iterations

    def test_same_array_serves_both_directions(self):
        problem = CsProblem.generate(n=128, m=64, k=6, seed=9)
        operator = CrossbarOperator(problem.matrix, seed=10)
        amp_recover(problem.measurements, operator, problem.n, iterations=5)
        stats = operator.stats
        assert stats["n_matvec"] == 5 and stats["n_rmatvec"] == 5


class TestStagnationRule:
    """Residual-stagnation stopping (the device-noise-floor detector)."""

    def test_noisy_recovery_retires_before_the_cap(self):
        """On a noisy crossbar the iterate-change rule never fires —
        with the stagnation rule the run stops once the residual level
        plateaus, at unchanged recovery quality."""
        problem = CsProblem.generate(n=128, m=64, k=6, noise_std=0.0, seed=0)
        baseline = amp_recover(
            problem.measurements,
            CrossbarOperator(problem.matrix, seed=1),
            problem.n,
            iterations=30,
            ground_truth=problem.signal,
        )
        assert not baseline.converged
        assert baseline.iterations == 30
        ruled = amp_recover(
            problem.measurements,
            CrossbarOperator(problem.matrix, seed=1),
            problem.n,
            iterations=30,
            ground_truth=problem.signal,
            stagnation_window=4,
        )
        assert ruled.converged
        assert ruled.iterations < 30
        assert ruled.final_nmse < 5e-2

    def test_rule_is_off_by_default(self):
        """Without a window the signature addition must not change any
        trajectory: identical runs with and without the defaults."""
        problem = CsProblem.generate(n=64, m=32, k=4, noise_std=0.0, seed=2)
        plain = amp_recover(
            problem.measurements, DenseOperator(problem.matrix), problem.n,
            iterations=20,
        )
        explicit = amp_recover(
            problem.measurements, DenseOperator(problem.matrix), problem.n,
            iterations=20, stagnation_window=None, stagnation_tolerance=0.05,
        )
        np.testing.assert_array_equal(plain.estimate, explicit.estimate)
        assert plain.iterations == explicit.iterations

    def test_worsening_residual_counts_as_stalled(self):
        """The rule compares against the residual a window ago, so a
        residual that got *worse* (pure jitter) also stops the run."""
        problem = CsProblem.generate(n=128, m=64, k=6, noise_std=0.0, seed=3)
        ruled = amp_recover(
            problem.measurements,
            CrossbarOperator(problem.matrix, seed=4),
            problem.n,
            iterations=30,
            stagnation_window=3,
            stagnation_tolerance=0.0,  # only a strict worsening stops
        )
        assert ruled.converged
        assert ruled.iterations < 30

    @pytest.mark.parametrize(
        "bad",
        [
            {"stagnation_window": 0},
            {"stagnation_window": 2.5},
            {"stagnation_window": -3},
            {"stagnation_tolerance": -0.1},
            {"stagnation_window": float("inf")},
            {"stagnation_window": float("nan")},
            {"stagnation_tolerance": float("nan")},
        ],
    )
    def test_parameter_validation(self, bad):
        problem = CsProblem.generate(n=32, m=16, k=2, noise_std=0.0, seed=5)
        with pytest.raises(ValueError, match="stagnation"):
            amp_recover(
                problem.measurements, DenseOperator(problem.matrix), problem.n,
                **bad,
            )
