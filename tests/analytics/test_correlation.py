"""Tests of CIM-A temporal correlation detection (paper ref [4])."""

import numpy as np
import pytest

from repro.analytics import CorrelatedProcesses, TemporalCorrelationDetector
from repro.analytics.correlation import DetectionReport
from repro.devices import PcmDevice


class TestCorrelatedProcesses:
    def test_marginal_rate(self):
        proc = CorrelatedProcesses(32, correlated=8, correlation=0.6, rate=0.1, seed=0)
        history = proc.run(8000)
        assert history.mean() == pytest.approx(0.1, abs=0.01)

    def test_in_group_correlation_positive(self):
        proc = CorrelatedProcesses(
            16, correlated=[0, 1, 2], correlation=0.7, rate=0.1, seed=1
        )
        history = proc.run(12000).astype(float)
        cc = np.corrcoef(history.T)
        assert cc[0, 1] > 0.3
        assert abs(cc[0, 8]) < 0.05  # out-of-group stays independent

    def test_explicit_indices(self):
        proc = CorrelatedProcesses(10, correlated=[2, 5], correlation=0.5, seed=2)
        assert np.array_equal(proc.correlated_indices, [2, 5])

    def test_step_shape(self):
        proc = CorrelatedProcesses(12, correlated=3, seed=3)
        step = proc.step()
        assert step.shape == (12,)
        assert set(np.unique(step)) <= {0, 1}

    def test_run_matches_looped_step_bitwise(self):
        """The vectorized history draw consumes the RNG stream exactly
        as the per-step path does: same seed, same history."""
        vectorized = CorrelatedProcesses(
            24, correlated=[1, 5, 9], correlation=0.6, rate=0.1, seed=9
        )
        looped = CorrelatedProcesses(
            24, correlated=[1, 5, 9], correlation=0.6, rate=0.1, seed=9
        )
        history = vectorized.run(300)
        reference = np.stack([looped.step() for _ in range(300)])
        np.testing.assert_array_equal(history, reference)

    def test_run_then_step_continues_the_stream(self):
        """run() leaves the generator exactly where the looped path
        would, so mixed run/step usage stays reproducible."""
        a = CorrelatedProcesses(12, correlated=3, seed=10)
        b = CorrelatedProcesses(12, correlated=3, seed=10)
        a.run(40)
        for _ in range(40):
            b.step()
        np.testing.assert_array_equal(a.step(), b.step())

    def test_validation(self):
        with pytest.raises(ValueError):
            CorrelatedProcesses(1)
        with pytest.raises(ValueError):
            CorrelatedProcesses(8, correlation=1.0)
        with pytest.raises(ValueError):
            CorrelatedProcesses(8, rate=0.0)
        with pytest.raises(ValueError):
            CorrelatedProcesses(8, correlated=[9])
        with pytest.raises(ValueError):
            CorrelatedProcesses(8).run(0)

    @pytest.mark.parametrize("count", [0, 9])
    def test_correlated_count_out_of_range(self, count):
        with pytest.raises(ValueError, match="correlated count"):
            CorrelatedProcesses(8, correlated=count)


class TestAccumulation:
    def test_pulses_raise_conductance(self):
        device = PcmDevice()
        g0 = np.full(16, device.g_min)
        g1 = device.accumulate(g0, 1.0, seed=0)
        assert np.all(g1 >= g0)
        assert g1.mean() > g0.mean()

    def test_saturation_at_g_max(self):
        device = PcmDevice(set_noise_sigma=0.0)
        g = np.full(4, device.g_max)
        assert np.allclose(device.accumulate(g, 5.0), device.g_max)

    def test_zero_pulses_no_change(self):
        device = PcmDevice(set_noise_sigma=0.0)
        g = np.full(4, 5e-6)
        assert np.allclose(device.accumulate(g, 0.0), g)

    def test_negative_pulses_rejected(self):
        with pytest.raises(ValueError):
            PcmDevice().accumulate(np.full(2, 1e-6), -1.0)


class TestDetector:
    def test_detects_correlated_subset(self):
        proc = CorrelatedProcesses(
            64, correlated=12, correlation=0.7, rate=0.05, seed=1
        )
        detector = TemporalCorrelationDetector(64, seed=2)
        detector.run(proc.run(3000))
        report = detector.detect()
        scores = report.scores(proc.correlated_indices)
        assert scores["f1"] >= 0.9

    def test_correlated_devices_accumulate_more(self):
        proc = CorrelatedProcesses(
            32, correlated=8, correlation=0.8, rate=0.05, seed=3
        )
        detector = TemporalCorrelationDetector(32, seed=4)
        detector.run(proc.run(2500))
        g = detector.conductances
        in_group = g[proc.correlated_indices].mean()
        mask = np.ones(32, dtype=bool)
        mask[proc.correlated_indices] = False
        out_group = g[mask].mean()
        assert in_group > 1.5 * out_group

    def test_weak_correlation_harder(self):
        """Detection quality degrades gracefully as c falls."""
        scores = {}
        for c in (0.2, 0.8):
            proc = CorrelatedProcesses(
                48, correlated=10, correlation=c, rate=0.05, seed=5
            )
            detector = TemporalCorrelationDetector(48, seed=6)
            detector.run(proc.run(2000))
            scores[c] = detector.detect().scores(proc.correlated_indices)["f1"]
        assert scores[0.8] > scores[0.2]

    def test_detect_before_run_rejected(self):
        with pytest.raises(RuntimeError):
            TemporalCorrelationDetector(8).detect()

    def test_step_shape_validated(self):
        detector = TemporalCorrelationDetector(8)
        with pytest.raises(ValueError):
            detector.step(np.zeros(4))

    def test_needs_two_devices(self):
        with pytest.raises(ValueError, match="two devices"):
            TemporalCorrelationDetector(1)

    def test_run_needs_a_step_by_process_history(self):
        detector = TemporalCorrelationDetector(8)
        with pytest.raises(ValueError, match="steps, N"):
            detector.run(np.zeros(8))
        assert detector.n_steps == 0

    def test_disjoint_detection_scores_zero(self):
        report = DetectionReport(
            detected=np.array([0, 1]), conductances=np.zeros(4), threshold=0.0
        )
        assert report.scores(np.array([2, 3])) == {
            "precision": 0.0,
            "recall": 0.0,
            "f1": 0.0,
        }

    def test_scores_validation(self):
        proc = CorrelatedProcesses(16, correlated=4, seed=7)
        detector = TemporalCorrelationDetector(16, seed=8)
        detector.run(proc.run(100))
        report = detector.detect()
        with pytest.raises(ValueError):
            report.scores(np.array([]))
