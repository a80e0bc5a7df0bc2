"""Tests of the bit-serial in-memory adder (ref [16])."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic import BitSerialAdder, BitwiseEngine
from repro.logic.adder import bitplanes_to_ints, ints_to_bitplanes


class TestBitplanes:
    def test_roundtrip(self, rng):
        values = rng.integers(0, 256, 32, dtype=np.uint64)
        assert np.array_equal(bitplanes_to_ints(ints_to_bitplanes(values, 8)), values)

    def test_lsb_first(self):
        planes = ints_to_bitplanes(np.array([1]), 4)
        assert np.array_equal(planes[:, 0], [1, 0, 0, 0])

    def test_overflow_rejected(self):
        with pytest.raises(ValueError, match="fit"):
            ints_to_bitplanes(np.array([256]), 8)

    def test_validation(self):
        with pytest.raises(ValueError):
            ints_to_bitplanes(np.array([1]), 0)
        with pytest.raises(ValueError):
            bitplanes_to_ints(np.zeros(4))


class TestBitSerialAdder:
    def test_rejects_zero_bit_words(self):
        with pytest.raises(ValueError, match="bits must be"):
            BitSerialAdder(width=8, bits=0)

    def test_random_additions_exact(self, rng):
        adder = BitSerialAdder(width=128, bits=8, seed=0)
        a = rng.integers(0, 256, 128, dtype=np.uint64)
        b = rng.integers(0, 256, 128, dtype=np.uint64)
        sums, carry = adder.add(a, b)
        total = a + b
        assert np.array_equal(sums, total % 256)
        assert np.array_equal(carry, (total >= 256).astype(np.uint8))

    def test_zero_plus_zero(self):
        adder = BitSerialAdder(width=8, bits=4, seed=1)
        sums, carry = adder.add(np.zeros(8, dtype=int), np.zeros(8, dtype=int))
        assert sums.sum() == 0 and carry.sum() == 0

    def test_max_plus_one_wraps(self):
        adder = BitSerialAdder(width=4, bits=4, seed=2)
        sums, carry = adder.add(np.full(4, 15), np.full(4, 1))
        assert np.all(sums == 0)
        assert np.all(carry == 1)

    def test_ops_count(self):
        adder = BitSerialAdder(width=16, bits=8, seed=3)
        adder.add(np.ones(16, dtype=int), np.ones(16, dtype=int))
        assert adder.ops_per_add == 40  # 5 gates x 8 bit positions
        assert adder.engine.n_ops == 40

    def test_wide_parallelism_single_pass(self):
        """1024 independent additions share the same 40 instructions."""
        rng = np.random.default_rng(4)
        adder = BitSerialAdder(width=1024, bits=8, seed=5)
        a = rng.integers(0, 256, 1024, dtype=np.uint64)
        b = rng.integers(0, 256, 1024, dtype=np.uint64)
        sums, _ = adder.add(a, b)
        assert np.array_equal(sums, (a + b) % 256)
        assert adder.engine.n_ops == adder.ops_per_add

    def test_external_engine_checked(self):
        with pytest.raises(ValueError, match="rows"):
            BitSerialAdder(width=8, bits=8, engine=BitwiseEngine(4, 8))

    def test_operand_shape_checked(self):
        adder = BitSerialAdder(width=8, bits=4, seed=6)
        with pytest.raises(ValueError):
            adder.add(np.zeros(4, dtype=int), np.zeros(8, dtype=int))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 65535), st.integers(0, 65535))
    def test_sixteen_bit_property(self, a, b):
        adder = BitSerialAdder(width=1, bits=16, seed=7)
        sums, carry = adder.add(np.array([a]), np.array([b]))
        assert int(sums[0]) == (a + b) % 65536
        assert int(carry[0]) == (1 if a + b >= 65536 else 0)
