"""Tests of Scouting Logic gate realization (Fig. 2c)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import BinaryMemristor
from repro.logic import ScoutingLogic


def noiseless():
    device = BinaryMemristor(variability=0.0, read_noise=0.0)
    return ScoutingLogic(device, seed=0)


class TestLevels:
    def test_level_currents_monotone(self):
        logic = noiseless()
        levels = [logic.level_current(t, 4) for t in range(5)]
        assert all(b > a for a, b in zip(levels, levels[1:]))

    def test_two_input_levels_match_figure(self):
        """Fig. 2c annotates 2Vr/RH, ~Vr/RL and 2Vr/RL for 0/1/2 ones."""
        logic = noiseless()
        v, rl, rh = logic.v_read, logic.device.r_low, logic.device.r_high
        assert logic.level_current(0, 2) == pytest.approx(2 * v / rh)
        assert logic.level_current(1, 2) == pytest.approx(v / rl + v / rh)
        assert logic.level_current(2, 2) == pytest.approx(2 * v / rl)

    def test_level_validation(self):
        with pytest.raises(ValueError):
            noiseless().level_current(3, 2)

    @pytest.mark.parametrize("v_read", [0.0, -0.2])
    def test_rejects_non_positive_read_voltage(self, v_read):
        with pytest.raises(ValueError, match="v_read"):
            ScoutingLogic(v_read=v_read)

    def test_column_currents_need_a_row_stack(self):
        with pytest.raises(ValueError, match="2-D"):
            noiseless().column_currents(np.full(4, 1e3))


class TestTruthTables:
    @pytest.mark.parametrize("op", ["or", "and", "xor"])
    def test_two_input_truth_table(self, op):
        logic = noiseless()
        expected = {"or": lambda a, b: a | b, "and": lambda a, b: a & b, "xor": lambda a, b: a ^ b}[op]
        for a, b in itertools.product((0, 1), repeat=2):
            bits = np.array([[a] * 4, [b] * 4], dtype=np.uint8)
            out = logic.compute_on_bits(op, bits)
            assert np.all(out == expected(a, b)), f"{op}({a},{b})"

    @pytest.mark.parametrize("op,reduction", [("or", np.bitwise_or), ("and", np.bitwise_and)])
    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_multi_input_gates(self, op, reduction, k):
        logic = noiseless()
        rng = np.random.default_rng(k)
        bits = rng.integers(0, 2, size=(k, 32), dtype=np.uint8)
        expected = bits[0]
        for row in bits[1:]:
            expected = reduction(expected, row)
        assert np.array_equal(logic.compute_on_bits(op, bits), expected)

    def test_xor_restricted_to_two_rows(self):
        logic = noiseless()
        with pytest.raises(ValueError, match="exactly two"):
            logic.compute_on_bits("xor", np.zeros((3, 4), dtype=np.uint8))

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            noiseless().compute_on_bits("nand", np.zeros((2, 4), dtype=np.uint8))

    @settings(max_examples=30)
    @given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
    def test_xor_matches_integer_xor(self, a, b):
        logic = noiseless()
        bits_a = np.array([int(c) for c in f"{a:016b}"], dtype=np.uint8)
        bits_b = np.array([int(c) for c in f"{b:016b}"], dtype=np.uint8)
        out = logic.compute_on_bits("xor", np.stack([bits_a, bits_b]))
        assert np.array_equal(out, bits_a ^ bits_b)


class TestRobustness:
    def test_noisy_devices_still_correct_with_margin(self):
        """Default variability/read noise must not flip gate outputs."""
        device = BinaryMemristor()  # 2% variability, 1% read noise
        logic = ScoutingLogic(device, seed=42)
        rng = np.random.default_rng(0)
        for op in ("or", "and", "xor"):
            bits = rng.integers(0, 2, size=(2, 256), dtype=np.uint8)
            expected = {"or": bits[0] | bits[1], "and": bits[0] & bits[1], "xor": bits[0] ^ bits[1]}[op]
            out = logic.compute_on_bits(op, bits)
            assert np.array_equal(out, expected)

    def test_low_ratio_devices_eventually_fail(self):
        """With R_H/R_L ~ 2 the levels overlap under heavy noise."""
        device = BinaryMemristor(r_low=10e3, r_high=20e3, variability=0.3, read_noise=0.2)
        logic = ScoutingLogic(device, seed=0)
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, size=(2, 4096), dtype=np.uint8)
        out = logic.compute_on_bits("xor", bits)
        errors = np.count_nonzero(out != (bits[0] ^ bits[1]))
        assert errors > 0  # sensing margin collapsed

    def test_sense_amplifier_requires_two_rows(self):
        with pytest.raises(ValueError):
            noiseless().sense_amplifier("or", activated=1)
