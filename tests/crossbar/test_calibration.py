"""Tests of crossbar drift calibration."""

import numpy as np
import pytest

from repro.crossbar import CrossbarOperator
from repro.devices import PcmDevice


def relative_error(operator, matrix, x):
    exact = matrix @ x
    return float(np.linalg.norm(operator.matvec(x) - exact) / np.linalg.norm(exact))


class TestCalibration:
    @pytest.fixture
    def drifted(self, rng):
        matrix = rng.standard_normal((40, 40))
        operator = CrossbarOperator(
            matrix,
            device=PcmDevice(prog_noise_sigma=0.0, read_noise_sigma=0.0),
            dac_bits=None,
            adc_bits=None,
            seed=0,
        )
        operator.advance_time(1e6)
        return operator, matrix

    def test_calibration_reduces_drift_error(self, drifted, rng):
        operator, matrix = drifted
        x = rng.standard_normal(40)
        before = relative_error(operator, matrix, x)
        gain = operator.calibrate(seed=1)
        after = relative_error(operator, matrix, x)
        assert gain > 1.0  # drift decays conductance; gain compensates up
        assert after < 0.5 * before

    def test_fresh_array_gain_near_one(self, rng):
        matrix = rng.standard_normal((24, 24))
        operator = CrossbarOperator(
            matrix, device=PcmDevice.ideal(), dac_bits=None, adc_bits=None, seed=2
        )
        gain = operator.calibrate(seed=3)
        assert gain == pytest.approx(1.0, abs=1e-6)

    def test_calibration_applies_to_rmatvec_too(self, drifted, rng):
        operator, matrix = drifted
        z = rng.standard_normal(40)
        exact = matrix.T @ z
        before = float(np.linalg.norm(operator.rmatvec(z) - exact) / np.linalg.norm(exact))
        operator.calibrate(seed=4)
        after = float(np.linalg.norm(operator.rmatvec(z) - exact) / np.linalg.norm(exact))
        assert after < before

    def test_recalibration_is_idempotent(self, drifted, rng):
        operator, _ = drifted
        first = operator.calibrate(n_probes=16, seed=5)
        second = operator.calibrate(n_probes=16, seed=6)
        assert second == pytest.approx(first, rel=0.05)

    def test_validation(self, drifted):
        operator, _ = drifted
        with pytest.raises(ValueError):
            operator.calibrate(n_probes=0)
        for bad in (2.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="n_probes"):
                operator.calibrate(n_probes=bad)
        assert operator.n_calibrations == 0

    def test_zero_matrix_is_rejected_before_the_probe_read(self):
        """A zero target gives the probes no reference signal: there is
        no gain to fit, so nothing is read, counted or changed (the fit
        used to map the read noise to a zero gain)."""
        operator = CrossbarOperator(np.zeros((4, 6)), seed=0)
        before = operator.stats
        with pytest.raises(RuntimeError, match="reference has no signal"):
            operator.calibrate(n_probes=4, seed=1)
        assert operator.stats == before
        assert operator.gain == 1.0
        assert operator.last_calibration_error is None


class TestFaultInjection:
    def test_injection_counts_and_degrades(self, rng):
        matrix = rng.standard_normal((32, 32))
        operator = CrossbarOperator(matrix, seed=0)
        x = rng.standard_normal(32)
        clean_error = relative_error(operator, matrix, x)
        n_faults = operator.inject_stuck_faults(0.1, seed=1)
        assert n_faults > 0
        assert relative_error(operator, matrix, x) > clean_error

    def test_zero_fraction_no_faults(self, rng):
        matrix = rng.standard_normal((16, 16))
        operator = CrossbarOperator(matrix, seed=2)
        assert operator.inject_stuck_faults(0.0, seed=3) == 0

    def test_array_level_mask_shape(self, rng):
        from repro.crossbar import CrossbarArray

        array = CrossbarArray(np.full((8, 8), 5e-6), seed=4)
        mask = array.inject_stuck_faults(0.5, seed=5)
        assert mask.shape == (8, 8)
        assert mask.any()


class TestMaintenanceLedger:
    @pytest.fixture
    def drifted(self, rng):
        matrix = rng.standard_normal((40, 40))
        operator = CrossbarOperator(
            matrix,
            device=PcmDevice(prog_noise_sigma=0.0, read_noise_sigma=0.0),
            dac_bits=None,
            adc_bits=None,
            seed=0,
        )
        operator.advance_time(1e6)
        return operator, matrix

    def test_calibrate_counts_probes_and_resets_staleness(self, drifted):
        operator, _ = drifted
        assert operator.age_seconds == 1e6
        assert operator.staleness_seconds == 1e6
        operator.calibrate(n_probes=8, seed=7)
        stats = operator.stats
        assert stats["n_calibrations"] == 1
        assert stats["n_calibration_probes"] == 8
        assert stats["n_reprograms"] == 0
        assert stats["n_program_pulses"] == 0
        # calibration is digital: the devices keep drifting, only the
        # compensation is fresh
        assert operator.age_seconds == 1e6
        assert operator.staleness_seconds == 0.0
        operator.advance_time(100.0)
        assert operator.staleness_seconds == 100.0
        operator.calibrate(n_probes=4, seed=8)
        assert operator.stats["n_calibration_probes"] == 12

    def test_reprogram_resets_gain_clocks_and_counts_pulses(self, drifted):
        operator, matrix = drifted
        operator.calibrate(seed=9)
        assert operator.gain != 1.0
        pulses = operator.reprogram()
        assert operator.gain == 1.0
        assert operator.age_seconds == 0.0
        assert operator.staleness_seconds == 0.0
        stats = operator.stats
        assert stats["n_reprograms"] == 1
        # 40x40 coefficients, differential pairs, 5 verify rounds
        assert pulses == stats["n_program_pulses"] == 2 * 1600 * 5
        # the rewritten array is accurate again without gain help
        x = np.random.default_rng(10).standard_normal(40)
        assert relative_error(operator, matrix, x) < 0.05

    def test_fresh_operator_ledger_is_zero(self, rng):
        operator = CrossbarOperator(rng.standard_normal((8, 8)), seed=11)
        stats = operator.stats
        for key in ("n_calibrations", "n_calibration_probes",
                    "n_reprograms", "n_program_pulses"):
            assert stats[key] == 0
        assert operator.staleness_seconds == 0.0
