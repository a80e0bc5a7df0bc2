"""Tests of differential conductance coding."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.crossbar import DifferentialCoding
from repro.devices import PcmDevice


class TestEncode:
    def test_splits_signs(self):
        device = PcmDevice.ideal()
        coding = DifferentialCoding(device)
        matrix = np.array([[1.0, -2.0], [0.0, 0.5]])
        g_pos, g_neg = coding.encode(matrix)
        # Positive part carries positive entries only (above bias).
        assert g_pos[0, 0] > device.g_min and g_neg[0, 0] == device.g_min
        assert g_neg[0, 1] > device.g_min and g_pos[0, 1] == device.g_min
        # Zero entries sit at the bias on both sides.
        assert g_pos[1, 0] == device.g_min and g_neg[1, 0] == device.g_min

    def test_peak_maps_to_window(self):
        device = PcmDevice.ideal()
        coding = DifferentialCoding(device, utilization=1.0)
        g_pos, g_neg = coding.encode(np.array([[-4.0, 2.0]]))
        assert g_neg[0, 0] == pytest.approx(device.g_min + device.dynamic_range)

    def test_utilization_leaves_headroom(self):
        device = PcmDevice.ideal()
        coding = DifferentialCoding(device, utilization=0.5)
        g_pos, _ = coding.encode(np.array([[1.0]]))
        assert g_pos[0, 0] == pytest.approx(
            device.g_min + 0.5 * device.dynamic_range
        )

    def test_scale_before_encode_rejected(self):
        coding = DifferentialCoding(PcmDevice.ideal())
        with pytest.raises(RuntimeError):
            _ = coding.scale

    def test_bad_utilization_rejected(self):
        with pytest.raises(ValueError):
            DifferentialCoding(PcmDevice.ideal(), utilization=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_rejected_before_scaling(self, bad):
        """NaN would scale by the finite peak and inf by 0; both
        reject, and no scale is set."""
        coding = DifferentialCoding(PcmDevice())
        with pytest.raises(ValueError, match="matrix must be finite"):
            coding.encode(np.array([[1.0, bad]]))
        with pytest.raises(RuntimeError):
            _ = coding.scale


class TestRoundTrip:
    @given(
        hnp.arrays(
            np.float64,
            (4, 3),
            elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
        )
    )
    def test_differential_roundtrip(self, matrix):
        device = PcmDevice.ideal()
        coding = DifferentialCoding(device)
        g_pos, g_neg = coding.encode(matrix)
        v = np.ones(4)
        recovered = coding.decode(v @ g_pos, v @ g_neg)
        assert np.allclose(recovered, v @ matrix, atol=1e-9)

    def test_subnormal_matrix_encodes_as_zero(self):
        """window / peak overflows for a subnormal peak; such
        coefficients sit below any conductance step, so they encode as
        a zero matrix with scale 1."""
        device = PcmDevice.ideal()
        coding = DifferentialCoding(device)
        g_pos, g_neg = coding.encode(np.array([[5e-324, -5e-324]]))
        assert coding.scale == 1.0
        assert np.array_equal(g_pos, np.full((1, 2), device.g_min))
        assert np.array_equal(g_neg, np.full((1, 2), device.g_min))

    def test_zero_matrix(self):
        device = PcmDevice.ideal()
        coding = DifferentialCoding(device)
        g_pos, g_neg = coding.encode(np.zeros((2, 2)))
        assert np.allclose(g_pos, device.g_min)
        recovered = coding.decode(np.ones(2) @ g_pos, np.ones(2) @ g_neg)
        assert np.allclose(recovered, 0.0)
