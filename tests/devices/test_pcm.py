"""Tests of the PCM multilevel device model."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.devices import PcmDevice


class TestConstruction:
    def test_defaults_valid(self):
        device = PcmDevice()
        assert device.dynamic_range == pytest.approx(24.9e-6)

    def test_rejects_negative_g_min(self):
        with pytest.raises(ValueError, match="g_min must be >= 0"):
            PcmDevice(g_min=-1e-6)

    def test_rejects_inverted_window(self):
        with pytest.raises(ValueError, match="g_min must be below g_max"):
            PcmDevice(g_min=30e-6, g_max=25e-6)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            PcmDevice(read_noise_sigma=-0.01)

    @pytest.mark.parametrize(
        "name, bad",
        [
            ("g_min", float("nan")),
            ("g_max", float("inf")),
            ("prog_noise_sigma", float("nan")),
            ("prog_noise_sigma", float("inf")),
            ("read_noise_sigma", float("nan")),
            ("read_noise_sigma", float("inf")),
            ("drift_nu", float("nan")),
            ("drift_nu", float("inf")),
            ("drift_t0", float("inf")),
            ("set_step", float("inf")),
            ("set_noise_sigma", float("nan")),
            ("set_noise_sigma", float("inf")),
        ],
    )
    def test_rejects_non_finite_fields(self, name, bad):
        """A NaN or inf field would construct and then turn reads (or
        reads after ageing) into NaN that are still billed."""
        with pytest.raises(ValueError, match=name):
            PcmDevice(**{name: bad})

    def test_ideal_factory_is_noiseless(self):
        device = PcmDevice.ideal()
        assert device.prog_noise_sigma == 0.0
        assert device.read_noise_sigma == 0.0
        assert device.drift_nu == 0.0


class TestClip:
    def test_clip_bounds(self):
        device = PcmDevice()
        clipped = device.clip(np.array([-1.0, 1.0]))
        assert clipped[0] == device.g_min
        assert clipped[1] == device.g_max


class TestDrift:
    def test_no_drift_at_zero_elapsed(self):
        device = PcmDevice()
        g = np.array([5e-6, 20e-6])
        assert np.array_equal(device.drifted(g, 0.0), g)

    def test_drift_decays_conductance(self):
        device = PcmDevice()
        g = np.array([5e-6])
        assert device.drifted(g, 1e4)[0] < g[0]

    def test_low_states_drift_more(self):
        device = PcmDevice()
        low = np.array([1e-6])
        high = np.array([24e-6])
        rel_low = device.drifted(low, 1e4)[0] / low[0]
        rel_high = device.drifted(high, 1e4)[0] / high[0]
        assert rel_low < rel_high

    def test_negative_elapsed_rejected(self):
        with pytest.raises(ValueError):
            PcmDevice().drifted(np.array([1e-6]), -1.0)

    def test_driftless_device_still_validates_elapsed(self):
        with pytest.raises(ValueError, match="elapsed"):
            PcmDevice.ideal().drifted(np.array([1e-6]), -1.0)

    @given(st.floats(min_value=0.0, max_value=1e8))
    def test_drift_never_increases(self, elapsed):
        device = PcmDevice()
        g = np.linspace(device.g_min, device.g_max, 5)
        assert np.all(device.drifted(g, elapsed) <= g + 1e-18)


class TestRead:
    def test_noiseless_read_is_exact(self):
        device = PcmDevice(read_noise_sigma=0.0)
        g = np.array([3e-6, 9e-6])
        assert np.array_equal(device.read(g), g)

    def test_read_noise_magnitude(self):
        device = PcmDevice(read_noise_sigma=0.02)
        g = np.full(5000, 10e-6)
        observed = device.read(g, seed=2)
        assert np.std(observed) / np.mean(observed) == pytest.approx(0.02, rel=0.2)

    def test_read_never_negative(self):
        device = PcmDevice(read_noise_sigma=2.0)  # absurd noise
        g = np.full(1000, 0.1e-6)
        assert np.all(device.read(g, seed=3) >= 0.0)
