"""Tests of the physical crossbar array."""

import numpy as np
import pytest

from repro.crossbar import CrossbarArray, apply_stuck_faults
from repro.devices import PcmDevice


def ideal_array(g):
    return CrossbarArray(g, device=PcmDevice.ideal(), seed=0)


class TestConstruction:
    def test_shape_properties(self):
        array = ideal_array(np.full((3, 5), 1e-6))
        assert array.shape == (3, 5)
        assert array.rows == 3 and array.cols == 5

    def test_rejects_negative_conductance(self):
        with pytest.raises(ValueError, match="non-negative"):
            CrossbarArray(np.array([[-1e-6]]))

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            CrossbarArray(np.ones(4) * 1e-6)

    def test_programming_report_attached(self):
        array = CrossbarArray(np.full((2, 2), 5e-6), seed=1)
        assert array.programming_report.iterations >= 1


class TestMvm:
    def test_mvm_is_kirchhoff_sum(self):
        g = np.array([[1e-6, 2e-6], [3e-6, 4e-6]])
        array = ideal_array(g)
        v = np.array([0.1, 0.2])
        assert np.allclose(array.mvm(v), v @ g)

    def test_mvm_t_is_transpose_read(self):
        g = np.array([[1e-6, 2e-6], [3e-6, 4e-6]])
        array = ideal_array(g)
        v = np.array([0.1, 0.2])
        assert np.allclose(array.mvm_t(v), g @ v)

    def test_shape_validation(self):
        array = ideal_array(np.full((3, 5), 1e-6))
        with pytest.raises(ValueError):
            array.mvm(np.zeros(5))
        with pytest.raises(ValueError):
            array.mvm_t(np.zeros(3))

    def test_read_counters(self):
        array = ideal_array(np.full((2, 2), 1e-6))
        array.mvm(np.zeros(2))
        array.mvm(np.zeros(2))
        array.mvm_t(np.zeros(2))
        assert array.n_col_reads == 2
        assert array.n_row_reads == 1

    def test_read_noise_perturbs_results(self):
        g = np.full((16, 16), 10e-6)
        array = CrossbarArray(g, device=PcmDevice(read_noise_sigma=0.05), seed=2)
        v = np.full(16, 0.2)
        first = array.mvm(v)
        second = array.mvm(v)
        assert not np.allclose(first, second)


class TestLifecycle:
    def test_reprogram_counts_pulses(self):
        array = CrossbarArray(np.full((3, 4), 5e-6), seed=3)
        assert array.n_reprograms == 0
        assert array.n_program_pulses == 0  # deployment is not maintenance
        assert array.programming_report.n_pulses == 5 * 12
        report = array.reprogram()
        assert array.n_reprograms == 1
        assert array.n_program_pulses == 5 * 12
        assert report is array.programming_report
        # every session runs program_and_verify's five rounds
        array.reprogram()
        assert array.n_reprograms == 2
        assert array.n_program_pulses == 2 * 5 * 12


class TestStuckFaultPersistence:
    def test_faults_survive_reprogram(self):
        array = CrossbarArray(np.full((8, 8), 5e-6), seed=11)
        mask = array.inject_stuck_faults(0.3, seed=12)
        stuck_before = array._g_programmed[mask].copy()
        array.reprogram()
        assert np.array_equal(array.stuck_mask, mask)
        assert np.array_equal(array._g_programmed[mask], stuck_before)
        # healthy devices were rewritten toward the target
        healthy = ~mask
        assert np.allclose(
            array._g_programmed[healthy],
            array.programming_report.conductance[healthy],
        )

    def test_double_injection_is_idempotent_on_repeat_cells(self):
        array = CrossbarArray(np.full((10, 10), 5e-6), seed=13)
        first = array.inject_stuck_faults(0.4, seed=14)
        values_first = array._g_programmed[first].copy()
        # Re-drawing with the same seed selects the same cells: the
        # composed state is identical to a single injection.
        second = array.inject_stuck_faults(0.4, seed=14)
        assert np.array_equal(first, second)
        assert np.array_equal(array.stuck_mask, first)
        assert np.array_equal(array._g_programmed[first], values_first)

    def test_distinct_injections_union_and_keep_first_values(self):
        array = CrossbarArray(np.full((10, 10), 5e-6), seed=15)
        first = array.inject_stuck_faults(0.3, seed=16)
        values_first = array._g_programmed[first].copy()
        second = array.inject_stuck_faults(0.3, seed=17)
        # the second draw's stuck values, recomputed from its seed
        drawn, mask = apply_stuck_faults(
            np.zeros((10, 10)), 0.3, array.device.g_min, array.device.g_max,
            seed=17,
        )
        assert np.array_equal(mask, second)
        assert np.array_equal(array.stuck_mask, first | second)
        # overlap cells keep the stuck value of the *first* injection,
        # including cells the second draw stuck at the other extreme
        overlap = first & second
        assert np.any(drawn[overlap] != array._g_programmed[overlap])
        assert np.array_equal(array._g_programmed[first], values_first)
        # cells only in the second draw took the new stuck value
        only_second = second & ~first
        assert np.array_equal(array._g_programmed[only_second], drawn[only_second])
        expected = (first | second).mean()
        assert array.stuck_fraction == pytest.approx(expected)

    def test_stuck_fraction_starts_at_zero(self):
        array = ideal_array(np.full((2, 2), 1e-6))
        assert array.stuck_fraction == 0.0
        assert not array.stuck_mask.any()
