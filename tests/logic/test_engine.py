"""Tests of the bulk bitwise engine."""

import numpy as np
import pytest

from repro.devices import BinaryMemristor
from repro.logic import BitwiseEngine


@pytest.fixture
def engine():
    return BitwiseEngine(n_rows=8, width=64, seed=0)


@pytest.fixture
def bits(rng):
    return rng.integers(0, 2, size=(3, 64), dtype=np.uint8)


class TestReadWrite:
    def test_write_then_read(self, engine, bits):
        engine.write_row(0, bits[0])
        assert np.array_equal(engine.read_row(0), bits[0])

    def test_unwritten_rows_read_zero(self, engine):
        assert engine.read_row(5).sum() == 0

    def test_load_bulk(self, engine, bits):
        engine.load(bits, start_row=2)
        for i in range(3):
            assert np.array_equal(engine.read_row(2 + i), bits[i])

    def test_load_overflow_rejected(self, engine):
        with pytest.raises(ValueError, match="fit"):
            engine.load(np.zeros((9, 64), dtype=np.uint8))

    def test_bad_row_width_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.write_row(0, np.zeros(32, dtype=np.uint8))

    @pytest.mark.parametrize("shape", [(2, 32), (64,)], ids=["narrow", "flat"])
    def test_load_rejects_misshapen_matrix(self, engine, shape):
        with pytest.raises(ValueError, match="bit_matrix must be"):
            engine.load(np.zeros(shape, dtype=np.uint8))

    def test_bad_address_rejected(self, engine):
        with pytest.raises(IndexError):
            engine.read_row(8)


class TestBitwise:
    @pytest.mark.parametrize("op,fn", [
        ("or", np.bitwise_or),
        ("and", np.bitwise_and),
        ("xor", np.bitwise_xor),
    ])
    def test_two_row_ops(self, engine, bits, op, fn):
        engine.write_row(0, bits[0])
        engine.write_row(1, bits[1])
        assert np.array_equal(engine.bitwise(op, [0, 1]), fn(bits[0], bits[1]))

    def test_multi_row_or(self, engine, bits):
        engine.load(bits)
        expected = bits[0] | bits[1] | bits[2]
        assert np.array_equal(engine.bitwise("or", [0, 1, 2]), expected)

    def test_writeback_to_dest(self, engine, bits):
        engine.write_row(0, bits[0])
        engine.write_row(1, bits[1])
        engine.bitwise("and", [0, 1], dest=3)
        assert np.array_equal(engine.read_row(3), bits[0] & bits[1])

    def test_chained_query_plan(self, engine, bits):
        """(b0 OR b1) AND b2 chained through a scratch row."""
        engine.load(bits)
        engine.bitwise("or", [0, 1], dest=4)
        result = engine.bitwise("and", [4, 2])
        assert np.array_equal(result, (bits[0] | bits[1]) & bits[2])

    def test_xor_needs_exactly_two(self, engine):
        with pytest.raises(ValueError):
            engine.bitwise("xor", [0, 1, 2])

    def test_single_row_rejected(self, engine):
        with pytest.raises(ValueError, match="at least two"):
            engine.bitwise("or", [0])


class TestAccounting:
    def test_counters_and_elapsed(self, engine, bits):
        engine.write_row(0, bits[0])
        engine.write_row(1, bits[1])
        engine.bitwise("or", [0, 1])
        engine.bitwise("xor", [0, 1])
        stats = engine.stats
        assert stats["n_ops"] == 2
        assert stats["n_writes"] == 2
        assert stats["elapsed_ns"] == pytest.approx(2 * engine.t_op_ns)
        assert stats["bit_ops"] == 2 * 64

    def test_custom_op_time(self):
        engine = BitwiseEngine(2, 8, t_op_ns=20.0, seed=0)
        engine.write_row(0, np.ones(8, dtype=np.uint8))
        engine.write_row(1, np.ones(8, dtype=np.uint8))
        engine.bitwise("and", [0, 1])
        assert engine.elapsed_ns == pytest.approx(20.0)

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            BitwiseEngine(0, 8)
        with pytest.raises(ValueError):
            BitwiseEngine(8, 0)
