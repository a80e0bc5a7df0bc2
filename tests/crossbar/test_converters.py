"""Tests of the DAC/ADC quantization models."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crossbar import Adc, Dac


class TestDac:
    def test_ideal_is_linear(self):
        dac = Dac(bits=None, v_max=0.2)
        x = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        assert np.allclose(dac.to_voltages(x), 0.2 * x)

    def test_saturation(self):
        dac = Dac(bits=None, v_max=0.2)
        assert dac.to_voltages(np.array([3.0]))[0] == pytest.approx(0.2)
        assert dac.to_voltages(np.array([-3.0]))[0] == pytest.approx(-0.2)

    def test_quantization_steps(self):
        dac = Dac(bits=2, v_max=1.0)  # 3 levels: -1, 0, +1
        voltages = dac.to_voltages(np.array([-1.0, -0.1, 0.1, 1.0]))
        assert set(np.round(voltages, 6)) <= {-1.0, 0.0, 1.0}

    def test_counts_conversions(self):
        dac = Dac()
        dac.to_voltages(np.zeros(5))
        dac.to_voltages(np.zeros(3))
        assert dac.n_conversions == 8

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            Dac(bits=0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 2.5])
    def test_rejects_non_integer_bits(self, bad):
        with pytest.raises(ValueError, match="bits must be an integer"):
            Dac(bits=bad)

    @given(st.integers(min_value=1, max_value=12))
    def test_quantizer_is_odd_symmetric(self, bits):
        dac = Dac(bits=bits, v_max=1.0)
        x = np.linspace(-1, 1, 41)
        pos = dac.to_voltages(x)
        neg = dac.to_voltages(-x)
        assert np.allclose(pos, -neg)


class TestAdc:
    def test_ideal_clips_only(self):
        adc = Adc(bits=None, full_scale=1e-3)
        currents = np.array([-2e-3, 0.5e-3, 2e-3])
        assert np.allclose(adc.quantize(currents), [-1e-3, 0.5e-3, 1e-3])

    def test_quantization_error_bounded_by_half_lsb(self):
        adc = Adc(bits=6, full_scale=1.0)
        x = np.linspace(-1, 1, 1001)
        err = np.abs(adc.quantize(x) - x)
        assert err.max() <= adc.lsb / 2 + 1e-12

    def test_more_bits_smaller_lsb(self):
        assert Adc(bits=10).lsb < Adc(bits=6).lsb

    def test_ideal_lsb_zero(self):
        assert Adc(bits=None).lsb == 0.0

    def test_counts_conversions(self):
        adc = Adc()
        adc.quantize(np.zeros(7))
        assert adc.n_conversions == 7

    def test_rejects_bad_full_scale(self):
        with pytest.raises(ValueError):
            Adc(full_scale=0.0)

    @pytest.mark.parametrize("bad", [0, float("nan"), float("inf"), 2.5])
    def test_rejects_bad_bits(self, bad):
        with pytest.raises(ValueError, match="bits must be an integer"):
            Adc(bits=bad)

    def test_one_bit_lsb_spans_the_full_range(self):
        adc = Adc(bits=1, full_scale=0.5)
        assert adc.lsb == 1.0
        # the 1-bit quantizer keeps only zero and the two rails
        assert set(adc.quantize(np.array([-0.4, 0.0, 0.4]))) <= {-0.5, 0.0, 0.5}
