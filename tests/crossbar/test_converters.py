"""Tests of the DAC/ADC quantization models."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crossbar import Adc, Dac
from repro.crossbar.converters import MAX_BITS


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


def reference_midtread(values, full_scale, bits):
    """The converters' quantizer as three clips and ``np.round``."""
    clipped = np.clip(values, -full_scale, full_scale)
    if bits == 1:
        return np.sign(clipped) * full_scale
    top_index = 2 ** (bits - 1) - 1
    step = full_scale / top_index
    return np.clip(np.round(clipped / step), -top_index, top_index) * step


def reference_voltages(normalized, bits, v_max):
    voltages = np.clip(np.asarray(normalized, dtype=float), -1.0, 1.0) * v_max
    return voltages if bits is None else reference_midtread(voltages, v_max, bits)


def reference_codes(currents, bits, full_scale):
    currents = np.asarray(currents, dtype=float)
    if bits is None:
        return np.clip(currents, -full_scale, full_scale)
    return reference_midtread(currents, full_scale, bits)


def edge_values(full_scale):
    """Signed zeros, +-1, +-full scale with its float neighbours, the
    level midpoints of an 8-bit quantizer, values far past full scale
    and a spread of ordinary values."""
    rails = np.array([full_scale, 1.0, 1e300, np.finfo(float).max, np.inf])
    rails = np.concatenate(
        [rails, np.nextafter(rails[:2], 0.0), np.nextafter(rails[:2], np.inf)]
    )
    midpoints = (np.arange(-128, 128) + 0.5) * (full_scale / 127)
    spread = np.random.default_rng(3).standard_normal(4096) * full_scale
    return np.concatenate(
        [[0.0, -0.0, 1e-300], rails, -rails, midpoints, spread, spread * 1e-3]
    )


WIDTHS = [None, *range(1, MAX_BITS + 1)]


class TestBitForBit:
    """The in-place converters give the bytes of the three-clip
    ``np.round`` formula: ``np.rint`` rounds as ``np.round`` does, the
    DAC's second clip and the clip of the rounded index never move a
    value, and -0.0 stays -0.0."""

    @pytest.mark.parametrize("bits", WIDTHS)
    @pytest.mark.parametrize("v_max", [0.2, 1.0, 3.0])
    def test_dac_matches_the_reference(self, bits, v_max):
        values = edge_values(1.0)
        dac = Dac(bits=bits, v_max=v_max)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow on a huge input
            voltages = dac.to_voltages(values)
        expected = reference_voltages(values, bits, v_max)
        assert voltages.dtype == expected.dtype and voltages.shape == expected.shape
        assert voltages.tobytes() == expected.tobytes()
        assert dac.n_conversions == values.size

    @pytest.mark.parametrize("bits", WIDTHS)
    @pytest.mark.parametrize("full_scale", [1e-3, 3.7e-5, 1.0])
    def test_adc_matches_the_reference(self, bits, full_scale):
        values = edge_values(full_scale)
        adc = Adc(bits=bits, full_scale=full_scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            codes = adc.quantize(values)
        expected = reference_codes(values, bits, full_scale)
        assert codes.dtype == expected.dtype and codes.shape == expected.shape
        assert codes.tobytes() == expected.tobytes()
        assert adc.n_conversions == values.size

    def test_blocks_and_integer_inputs_match_the_reference(self):
        block = np.random.default_rng(4).standard_normal((64, 5))
        dac, adc = Dac(bits=8, v_max=0.2), Adc(bits=8, full_scale=1.0)
        assert dac.to_voltages(block).tobytes() == (
            reference_voltages(block, 8, 0.2).tobytes())
        assert adc.quantize(block).tobytes() == reference_codes(block, 8, 1.0).tobytes()
        integers = [[-3, 0], [1, 2]]
        assert dac.to_voltages(integers).tobytes() == (
            reference_voltages(integers, 8, 0.2).tobytes())
        assert adc.quantize(integers).tobytes() == (
            reference_codes(integers, 8, 1.0).tobytes())

    def test_negative_zero_codes_survive(self):
        # a current under half an LSB below zero rounds to -0.0
        codes = Adc(bits=8, full_scale=1.0).quantize(np.array([-1e-4, -0.0, 1e-4]))
        assert np.signbit(codes).tolist() == [True, True, False]
        assert not codes.any()

    @pytest.mark.parametrize("bits", [None, 1, 8, MAX_BITS])
    def test_inputs_are_never_written(self, bits):
        values = edge_values(1e-3)[:, None]
        before = values.tobytes()
        frozen = values.copy()
        frozen.flags.writeable = False
        for convert in (
            Dac(bits=bits, v_max=0.2).to_voltages,
            Adc(bits=bits, full_scale=1e-3).quantize,
        ):
            out = convert(values)
            assert values.tobytes() == before
            assert not np.shares_memory(out, values)
            # a read-only input converts without a write
            assert convert(frozen).tobytes() == out.tobytes()


class TestWidthCeiling:
    """Widths above ``MAX_BITS`` are refused at construction; the widest
    accepted one converts and reports its LSB."""

    @pytest.mark.parametrize("converter", [Dac, Adc])
    @pytest.mark.parametrize("bits", [MAX_BITS + 1, 1100])
    def test_too_wide_is_rejected(self, converter, bits):
        with pytest.raises(ValueError, match=f"bits must be <= {MAX_BITS}"):
            converter(bits=bits)

    def test_the_ceiling_is_accepted(self):
        adc = Adc(bits=MAX_BITS, full_scale=1.0)
        assert adc.lsb == 1.0 / (2 ** (MAX_BITS - 1) - 1)
        assert adc.quantize(np.array([1.0, -1.0])).tolist() == [1.0, -1.0]
        assert Dac(bits=float(MAX_BITS)).bits == MAX_BITS
