"""Tests of batched AMP recovery (``amp_recover_batch``).

The batched solver must be the looped solver, run B times at once: on
an exact backend every column follows the looped trajectory, stops at
the same iteration (active-set masking), and the operator counters
total exactly the looped run's.  On a deterministic crossbar the two
paths agree to rounding; on a noisy crossbar they are two read-noise
realizations of the same computation.  Fixed-seed goldens pin the
estimates on both backends against silent drift, and the contiguous
working set is pinned bit for bit against a gather/scatter sweep loop.
"""

import numpy as np
import pytest

from repro.crossbar import CrossbarOperator, DenseOperator, ShardedOperator
from repro.devices import PcmDevice
from repro.signal import CsProblem, CsProblemBatch, amp_recover, amp_recover_batch


def looped_recoveries(fleet, make_operator, **kwargs):
    """Per-column amp_recover runs, one fresh operator per column."""
    return [
        amp_recover(
            fleet.measurements[:, b],
            make_operator(),
            fleet.n,
            ground_truth=fleet.signals[:, b],
            **kwargs,
        )
        for b in range(fleet.batch)
    ]


class TestExactLoopEquivalence:
    """DenseOperator: batched == looped, column for column."""

    @pytest.fixture(scope="class")
    def fleet(self):
        return CsProblem.generate_batch(n=128, m=64, k=6, batch=5, seed=0)

    def test_columns_match_looped_solver(self, fleet):
        batched = amp_recover_batch(
            fleet.measurements,
            DenseOperator(fleet.matrix),
            fleet.n,
            iterations=60,
            ground_truth=fleet.signals,
        )
        singles = looped_recoveries(
            fleet, lambda: DenseOperator(fleet.matrix), iterations=60
        )
        for b, single in enumerate(singles):
            reference = np.linalg.norm(single.estimate)
            error = np.linalg.norm(batched.estimates[:, b] - single.estimate)
            assert error <= 1e-10 * reference
            assert batched.iterations[b] == single.iterations
            assert bool(batched.converged[b]) == single.converged
            # histories decay to machine-precision floors where gemm vs
            # gemv summation order dominates relatively — compare with
            # absolute floors far below any meaningful level
            np.testing.assert_allclose(
                batched.residual_norms[b], single.residual_norms,
                rtol=1e-10, atol=1e-14,
            )
            np.testing.assert_allclose(
                batched.thresholds[b], single.thresholds,
                rtol=1e-10, atol=1e-14,
            )
            np.testing.assert_allclose(
                batched.nmse_histories[b], single.nmse_history,
                rtol=1e-7, atol=1e-12,
            )

    def test_counter_totals_match_looped_run(self, fleet):
        shared = DenseOperator(fleet.matrix)
        batched = amp_recover_batch(
            fleet.measurements, shared, fleet.n, iterations=60
        )
        looped_op = DenseOperator(fleet.matrix)
        for b in range(fleet.batch):
            amp_recover(
                fleet.measurements[:, b], looped_op, fleet.n, iterations=60
            )
        assert shared.stats == looped_op.stats
        assert shared.n_matvec == int(batched.iterations.sum())

    def test_masking_shrinks_the_working_set(self, fleet):
        result = amp_recover_batch(
            fleet.measurements, DenseOperator(fleet.matrix), fleet.n,
            iterations=60,
        )
        assert result.all_converged
        assert len(set(result.iterations.tolist())) > 1  # heterogeneous stops
        counts = result.active_counts
        assert counts[0] == fleet.batch
        assert counts[-1] < fleet.batch  # the set actually narrowed
        assert all(a >= b for a, b in zip(counts, counts[1:]))  # monotone
        assert result.sweeps == int(result.iterations.max())

    def test_masking_does_not_perturb_unconverged_columns(self, fleet):
        """A column that converges early and leaves the working set must
        not change what the surviving columns compute: each survivor
        still matches its own looped run over the full horizon."""
        zero_fleet = CsProblemBatch(
            matrix=fleet.matrix,
            signals=fleet.signals,
            measurements=fleet.measurements.copy(),
            noise_std=0.0,
        )
        zero_fleet.measurements[:, 2] = 0.0  # converges at sweep 1
        batched = amp_recover_batch(
            zero_fleet.measurements, DenseOperator(fleet.matrix), fleet.n,
            iterations=40,
        )
        assert batched.converged[2]
        assert batched.iterations[2] == 1
        assert np.array_equal(batched.estimates[:, 2], np.zeros(fleet.n))
        for b in (0, 1, 3, 4):
            single = amp_recover(
                zero_fleet.measurements[:, b],
                DenseOperator(fleet.matrix),
                fleet.n,
                iterations=40,
            )
            reference = np.linalg.norm(single.estimate)
            error = np.linalg.norm(batched.estimates[:, b] - single.estimate)
            assert error <= 1e-10 * reference
            assert batched.iterations[b] == single.iterations

    def test_readout_cycles_follow_active_counts(self, fleet):
        result = amp_recover_batch(
            fleet.measurements, DenseOperator(fleet.matrix), fleet.n,
            iterations=60,
        )
        assert result.readout_cycles("serial") == 2 * sum(result.active_counts)
        assert result.readout_cycles("parallel") == 2 * result.sweeps
        assert result.readout_cycles("serial") < 2 * result.sweeps * fleet.batch
        with pytest.raises(ValueError):
            result.readout_cycles("pipelined")


class TestCrossbarBackend:
    def test_deterministic_twins_match_looped(self):
        """With deterministic reads the batched path reproduces looped
        per-column runs on identically seeded operator twins."""
        fleet = CsProblem.generate_batch(n=64, m=32, k=4, batch=4, seed=1)
        quiet = PcmDevice(read_noise_sigma=0.0)
        batched_op = CrossbarOperator(fleet.matrix, device=quiet, seed=3)
        batched = amp_recover_batch(
            fleet.measurements, batched_op, fleet.n, iterations=12
        )
        looped_op = CrossbarOperator(fleet.matrix, device=quiet, seed=3)
        for b in range(fleet.batch):
            single = amp_recover(
                fleet.measurements[:, b], looped_op, fleet.n, iterations=12
            )
            np.testing.assert_allclose(
                batched.estimates[:, b], single.estimate, atol=1e-12
            )

    def test_noisy_fleet_recovers_to_device_floor(self):
        fleet = CsProblem.generate_batch(n=256, m=128, k=12, batch=6, seed=2)
        operator = CrossbarOperator(fleet.matrix, seed=4)
        result = amp_recover_batch(
            fleet.measurements,
            operator,
            fleet.n,
            iterations=30,
            ground_truth=fleet.signals,
        )
        assert result.final_nmse.max() < 5e-2
        assert fleet.recovery_nmse(result.estimates).max() < 5e-2

    def test_counters_equal_looped_run_under_noise(self):
        """Even with noise the conversion counters are loop-equivalent
        (neither path converges before the cap)."""
        fleet = CsProblem.generate_batch(n=64, m=32, k=4, batch=4, seed=3)
        batched_op = CrossbarOperator(fleet.matrix, seed=5)
        amp_recover_batch(fleet.measurements, batched_op, fleet.n, iterations=8)
        looped_op = CrossbarOperator(fleet.matrix, seed=5)
        for b in range(fleet.batch):
            amp_recover(
                fleet.measurements[:, b], looped_op, fleet.n, iterations=8
            )
        assert batched_op.stats == looped_op.stats


class TestValidation:
    def test_rejects_non_block_measurements(self):
        fleet = CsProblem.generate_batch(n=64, m=32, k=4, batch=2, seed=6)
        with pytest.raises(ValueError, match="amp_recover"):
            amp_recover_batch(
                fleet.measurements[:, 0], DenseOperator(fleet.matrix), 64
            )

    def test_rejects_empty_batch(self):
        fleet = CsProblem.generate_batch(n=64, m=32, k=4, batch=2, seed=6)
        with pytest.raises(ValueError):
            amp_recover_batch(
                np.zeros((32, 0)), DenseOperator(fleet.matrix), 64
            )

    def test_rejects_mismatched_ground_truth(self):
        fleet = CsProblem.generate_batch(n=64, m=32, k=4, batch=2, seed=6)
        with pytest.raises(ValueError, match="ground_truth"):
            amp_recover_batch(
                fleet.measurements,
                DenseOperator(fleet.matrix),
                64,
                ground_truth=fleet.signals[:, :1],
            )

    def test_rejects_a_zero_energy_ground_truth_column(self):
        fleet = CsProblem.generate_batch(n=64, m=32, k=4, batch=2, seed=6)
        truth = fleet.signals.copy()
        truth[:, 1] = 0.0
        operator = DenseOperator(fleet.matrix)
        with pytest.raises(ValueError, match="zero energy"):
            amp_recover_batch(fleet.measurements, operator, 64, ground_truth=truth)
        assert operator.n_matvec == operator.n_rmatvec == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_a_non_finite_ground_truth(self, bad):
        """A NaN column would otherwise yield a NaN NMSE history."""
        fleet = CsProblem.generate_batch(n=64, m=32, k=4, batch=2, seed=6)
        truth = fleet.signals.copy()
        truth[3, 1] = bad
        operator = DenseOperator(fleet.matrix)
        with pytest.raises(ValueError, match="ground_truth must be finite"):
            amp_recover_batch(fleet.measurements, operator, 64, ground_truth=truth)
        assert operator.n_matvec == operator.n_rmatvec == 0

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
            {"stagnation_tolerance": float("nan")},
        ],
    )
    def test_parameter_validation(self, bad):
        """Each bad value raises a ValueError naming its parameter."""
        fleet = CsProblem.generate_batch(n=64, m=32, k=4, batch=2, seed=6)
        arguments = {"n": 64, **bad}
        with pytest.raises(ValueError, match=next(iter(bad))):
            amp_recover_batch(
                fleet.measurements, DenseOperator(fleet.matrix), **arguments
            )

    @pytest.mark.parametrize(
        "name, value", [("iterations", 20.0), ("n", 64.0), ("stagnation_window", 3.0)]
    )
    def test_integral_float_counts_run_like_ints(self, name, value):
        fleet = CsProblem.generate_batch(n=64, m=32, k=4, batch=2, seed=6)
        arguments = {"n": 64, "iterations": 20, "stagnation_window": 3}
        reference = amp_recover_batch(
            fleet.measurements, DenseOperator(fleet.matrix), **arguments
        )
        arguments[name] = value
        result = amp_recover_batch(
            fleet.measurements, DenseOperator(fleet.matrix), **arguments
        )
        np.testing.assert_array_equal(result.estimates, reference.estimates)
        assert np.array_equal(result.iterations, reference.iterations)
        assert reference.iterations.min() > 3

    def test_final_nmse_requires_ground_truth(self):
        fleet = CsProblem.generate_batch(n=64, m=32, k=4, batch=2, seed=6)
        result = amp_recover_batch(
            fleet.measurements, DenseOperator(fleet.matrix), 64, iterations=5
        )
        with pytest.raises(ValueError):
            _ = result.final_nmse


# Fixed-seed pins (captured from this implementation): the exact run of
# CsProblem.generate_batch(n=64, m=32, k=4, batch=3, seed=5) at 60
# iterations, and the crossbar run (default device, seed=7) at 8
# iterations.  Any RNG-order or iteration-shape change shifts these.
GOLDEN_EXACT_ITERATIONS = [38, 55, 51]
GOLDEN_EXACT_COL0_SUPPORT = [4, 5, 34, 52]
GOLDEN_EXACT_COL0_VALUES = np.array(
    [
        -0.6975635122120184,
        -0.2963641077811142,
        -0.07282564402501654,
        -0.8781379102292867,
    ]
)
GOLDEN_ANALOG_COL1_STRIDED = np.array(
    [
        -0.0,
        -0.0,
        0.0,
        -0.04926236668183587,
        0.0,
    ]
)
GOLDEN_ANALOG_TAU_COL2 = [
    0.6444458578745368,
    0.5337485650287689,
    0.32964931939998343,
]


class TestGoldenBatch:
    def test_exact_backend_pins(self):
        fleet = CsProblem.generate_batch(n=64, m=32, k=4, batch=3, seed=5)
        result = amp_recover_batch(
            fleet.measurements, DenseOperator(fleet.matrix), 64, iterations=60
        )
        assert result.iterations.tolist() == GOLDEN_EXACT_ITERATIONS
        assert result.all_converged
        support = np.flatnonzero(fleet.signals[:, 0])
        assert support.tolist() == GOLDEN_EXACT_COL0_SUPPORT
        np.testing.assert_allclose(
            result.estimates[support, 0], GOLDEN_EXACT_COL0_VALUES, rtol=1e-7
        )

    def test_crossbar_backend_pins(self):
        fleet = CsProblem.generate_batch(n=64, m=32, k=4, batch=3, seed=5)
        operator = CrossbarOperator(fleet.matrix, seed=7)
        result = amp_recover_batch(
            fleet.measurements, operator, 64, iterations=8
        )
        np.testing.assert_allclose(
            result.estimates[::13, 1], GOLDEN_ANALOG_COL1_STRIDED,
            rtol=1e-7, atol=1e-12,
        )
        np.testing.assert_allclose(
            result.thresholds[2][:3], GOLDEN_ANALOG_TAU_COL2, rtol=1e-7
        )
        assert operator.stats["dac_conversions"] == 2304
        assert operator.stats["adc_conversions"] == 2304

    def test_goldens_are_in_the_plausible_range(self):
        """The pinned exact estimates must be the true signal values to
        recovery accuracy, so a regenerated golden can't encode a
        broken solver."""
        fleet = CsProblem.generate_batch(n=64, m=32, k=4, batch=3, seed=5)
        truth = fleet.signals[GOLDEN_EXACT_COL0_SUPPORT, 0]
        np.testing.assert_allclose(GOLDEN_EXACT_COL0_VALUES, truth, rtol=1e-6)


class TestStagnationRule:
    """Fleet-level residual-stagnation stopping (ROADMAP follow-up)."""

    def test_noisy_fleet_retires_columns_before_the_cap(self):
        fleet = CsProblem.generate_batch(n=128, m=64, k=6, batch=5, seed=8)
        baseline_op = CrossbarOperator(fleet.matrix, seed=9)
        baseline = amp_recover_batch(
            fleet.measurements, baseline_op, fleet.n, iterations=30,
            ground_truth=fleet.signals,
        )
        assert not baseline.converged.any()
        assert (baseline.iterations == 30).all()
        ruled_op = CrossbarOperator(fleet.matrix, seed=9)
        ruled = amp_recover_batch(
            fleet.measurements, ruled_op, fleet.n, iterations=30,
            ground_truth=fleet.signals, stagnation_window=4,
        )
        assert ruled.all_converged
        assert (ruled.iterations < 30).all()
        assert ruled.final_nmse.max() < 5e-2
        # early retirement saves real analog work
        assert ruled_op.stats["adc_conversions"] < (
            baseline_op.stats["adc_conversions"]
        )
        assert sum(ruled.active_counts) < sum(baseline.active_counts)

    def test_rule_matches_looped_solver_on_deterministic_twins(self):
        """The stagnation rule is applied per column from the column's
        own history, so batched and looped runs still stop at the same
        iteration on a deterministic backend."""
        fleet = CsProblem.generate_batch(n=64, m=32, k=4, batch=4, seed=10)
        quiet = PcmDevice(read_noise_sigma=0.0)
        batched = amp_recover_batch(
            fleet.measurements,
            CrossbarOperator(fleet.matrix, device=quiet, seed=11),
            fleet.n,
            iterations=25,
            stagnation_window=3,
        )
        looped_op = CrossbarOperator(fleet.matrix, device=quiet, seed=11)
        for b in range(fleet.batch):
            single = amp_recover(
                fleet.measurements[:, b], looped_op, fleet.n, iterations=25,
                stagnation_window=3,
            )
            assert batched.iterations[b] == single.iterations
            assert bool(batched.converged[b]) == single.converged
            np.testing.assert_allclose(
                batched.estimates[:, b], single.estimate, atol=1e-12
            )


class TestDegenerateFleets:
    """Counter accounting for fleets that never touch the hardware."""

    def test_zero_measurement_fleet_bills_zero_conversions(self):
        """y = 0 converges at the zero fixed point on sweep one: every
        read is all-zero, so the converters never fire and the
        counter-driven energy is exactly zero."""
        rng = np.random.default_rng(14)
        matrix = rng.standard_normal((32, 64))
        operator = CrossbarOperator(matrix, seed=15)
        result = amp_recover_batch(np.zeros((32, 3)), operator, 64, iterations=10)
        assert result.all_converged
        assert result.iterations.tolist() == [1, 1, 1]
        assert np.array_equal(result.estimates, np.zeros((64, 3)))
        stats = operator.stats
        assert stats["n_matvec"] == 3 and stats["n_rmatvec"] == 3
        assert stats["n_live_matvec"] == 0 and stats["n_live_rmatvec"] == 0
        assert stats["dac_conversions"] == 0
        assert stats["adc_conversions"] == 0

    def test_mixed_fleet_bills_only_live_columns(self):
        """A zero column inside a live fleet counts logical reads but
        no conversions for itself."""
        fleet = CsProblem.generate_batch(n=64, m=32, k=4, batch=3, seed=16)
        measurements = fleet.measurements.copy()
        measurements[:, 1] = 0.0
        shared = CrossbarOperator(fleet.matrix, seed=17)
        amp_recover_batch(measurements, shared, fleet.n, iterations=6)
        twin = CrossbarOperator(fleet.matrix, seed=17)
        amp_recover_batch(
            np.delete(measurements, 1, axis=1), twin, fleet.n, iterations=6
        )
        # the dead column adds logical reads only; conversions match the
        # two-column fleet exactly
        assert shared.stats["dac_conversions"] == twin.stats["dac_conversions"]
        assert shared.stats["adc_conversions"] == twin.stats["adc_conversions"]
        assert shared.stats["n_live_matvec"] == twin.stats["n_live_matvec"]


WORKING_SET_BACKENDS = {
    "dense": lambda matrix: DenseOperator(matrix),
    "crossbar": lambda matrix: CrossbarOperator(matrix, seed=3),
    "sharded": lambda matrix: ShardedOperator.from_matrix(
        matrix, n_shards=3, batch_window=2, stream="per_shard", seed=4
    ),
}
WORKING_SET_RULES = {
    "tolerance": {"iterations": 60},
    "stagnation": {"iterations": 30, "stagnation_window": 3},
}


class TestContiguousWorkingSet:
    """The working set (active columns of y, z and x in contiguous
    blocks, compacted when columns retire) reproduces a gather/scatter
    sweep loop bit for bit: estimates, histories, counters and RNG."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("with_truth", [False, True])
    @pytest.mark.parametrize("rule", sorted(WORKING_SET_RULES))
    @pytest.mark.parametrize("backend", sorted(WORKING_SET_BACKENDS))
    def test_matches_gather_scatter_loop(
        self, gather_scatter_amp, backend, rule, with_truth, order
    ):
        fleet = CsProblem.generate_batch(n=128, m=64, k=6, batch=7, seed=0)
        kwargs = dict(WORKING_SET_RULES[rule])
        if with_truth:
            kwargs["ground_truth"] = fleet.signals
        result = gather_scatter_amp(
            lambda: WORKING_SET_BACKENDS[backend](fleet.matrix),
            np.array(fleet.measurements, order=order),
            fleet.n,
            **kwargs,
        )
        # Exact columns retire by the tolerance rule, noisy ones only by
        # the stagnation rule; noisy columns under the tolerance rule are
        # all still active when the loop ends.
        retires = backend == "dense" or rule == "stagnation"
        assert result.converged.any() == retires
        assert (len(set(result.active_counts)) > 1) == retires

    def test_single_column(self, gather_scatter_amp):
        fleet = CsProblem.generate_batch(n=128, m=64, k=6, batch=1, seed=1)
        result = gather_scatter_amp(
            lambda: CrossbarOperator(fleet.matrix, seed=3),
            fleet.measurements, fleet.n, iterations=30, stagnation_window=3,
            ground_truth=fleet.signals,
        )
        assert result.converged[0] and result.iterations[0] < 30

    def test_zero_column_retires_on_the_first_sweep(self, gather_scatter_amp):
        fleet = CsProblem.generate_batch(n=128, m=64, k=6, batch=5, seed=2)
        measurements = fleet.measurements.copy()
        measurements[:, 1] = 0.0
        result = gather_scatter_amp(
            lambda: CrossbarOperator(fleet.matrix, seed=3),
            measurements, fleet.n, iterations=20, stagnation_window=3,
        )
        assert result.iterations[1] == 1
        assert result.active_counts[:2] == [5, 4]
