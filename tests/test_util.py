"""Tests of repro._util helpers."""

import numpy as np
import pytest

from repro._util import (
    as_rng,
    check_binary,
    check_elapsed,
    check_fraction,
    check_in,
    check_int,
    check_nonnegative,
    check_positive,
    check_shape,
    hamming_distance,
    nmse,
    nmse_db,
    normalized_hamming,
)


class TestAsRng:
    def test_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_int_is_deterministic(self):
        a = as_rng(7).integers(0, 1000, 10)
        b = as_rng(7).integers(0, 1000, 10)
        assert np.array_equal(a, b)

    def test_generator_passes_through(self):
        gen = np.random.default_rng(0)
        assert as_rng(gen) is gen


class TestCheckers:
    def test_check_positive_accepts(self):
        assert check_positive("x", 2.5) == 2.5

    @pytest.mark.parametrize("bad", [0, -1, -0.001, float("inf")])
    def test_check_positive_rejects(self, bad):
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive("x", bad)

    @pytest.mark.parametrize("value", [0, 0.0, 1e-12, 30])
    def test_check_nonnegative_accepts(self, value):
        assert check_nonnegative("tolerance", value) == value

    @pytest.mark.parametrize("bad", [-1e-12, float("nan"), float("inf")])
    def test_check_nonnegative_rejects_naming_the_parameter(self, bad):
        with pytest.raises(ValueError, match="tolerance must be >= 0 and finite"):
            check_nonnegative("tolerance", bad)

    @pytest.mark.parametrize("value", [0, 0.0, 2.5, np.float64(1e6), np.int64(3)])
    def test_check_elapsed_returns_a_float(self, value):
        result = check_elapsed("seconds", value)
        assert type(result) is float and result == value

    @pytest.mark.parametrize("bad", [-1e-9, float("nan"), float("inf"), np.float64("-inf")])
    def test_check_elapsed_rejects_naming_the_parameter(self, bad):
        with pytest.raises(ValueError, match="seconds must be a finite non-negative"):
            check_elapsed("seconds", bad)

    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_check_fraction_accepts(self, value):
        assert check_fraction("f", value) == value

    @pytest.mark.parametrize("bad", [-0.01, 1.01, 5])
    def test_check_fraction_rejects(self, bad):
        with pytest.raises(ValueError):
            check_fraction("f", bad)

    def test_check_in(self):
        assert check_in("op", "or", ("or", "and")) == "or"
        with pytest.raises(ValueError, match="op must be one of"):
            check_in("op", "nand", ("or", "and"))

    @pytest.mark.parametrize("value", [8, 8.0, np.int64(8), np.float64(8.0)])
    def test_check_int_returns_an_int(self, value):
        result = check_int("n", value)
        assert result == 8 and type(result) is int

    @pytest.mark.parametrize(
        "bad", [0, -3, 2.5, float("inf"), float("-inf"), float("nan"), "8", None]
    )
    def test_check_int_rejects_naming_the_parameter(self, bad):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            check_int("n", bad)

    @pytest.mark.parametrize("flag", [True, False, np.True_, np.False_])
    def test_check_int_rejects_booleans(self, flag):
        """``int(True)`` is 1: a flag passed by mistake would run one
        round or build one shard."""
        with pytest.raises(ValueError, match=f"must be an integer >= 0, got {flag!r}"):
            check_int("n", flag, minimum=0)

    def test_check_int_minimum(self):
        assert check_int("index", 0, minimum=0) == 0
        with pytest.raises(ValueError, match="index must be an integer >= 0"):
            check_int("index", -1, minimum=0)

    def test_check_binary_passes_a_uint8_block_as_is(self):
        bits = np.array([[0, 1], [1, 1]], dtype=np.uint8)
        assert check_binary("q", bits) is bits
        assert check_binary("q", np.zeros((0, 4), dtype=np.uint8)).shape == (0, 4)

    @pytest.mark.parametrize(
        "bits", [[0, 1, 1], [0.0, 1.0, 1.0], [False, True, True]]
    )
    def test_check_binary_casts_0_1_entries_to_uint8(self, bits):
        result = check_binary("q", np.array(bits))
        assert result.dtype == np.uint8
        assert np.array_equal(result, [0, 1, 1])

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([0, 1, 2], dtype=np.uint8),
            np.array([0, 1, 255], dtype=np.uint8),
            np.array([0, -1, 1]),
            np.array([0.0, 0.6, 1.0]),
            np.array([0.0, np.nan, 1.0]),
        ],
    )
    def test_check_binary_rejects_naming_the_parameter(self, bad):
        with pytest.raises(ValueError, match="q must hold only 0/1 entries"):
            check_binary("q", bad)

    def test_check_shape(self):
        arr = np.zeros((2, 3))
        assert check_shape("a", arr, (2, 3)) is arr
        with pytest.raises(ValueError, match="shape"):
            check_shape("a", arr, (3, 2))


class TestNmse:
    def test_zero_error(self):
        x = np.array([1.0, 2.0])
        assert nmse(x, x) == 0.0
        assert nmse_db(x, x) == float("-inf")

    def test_known_value(self):
        ref = np.array([1.0, 0.0])
        est = np.array([0.0, 0.0])
        assert nmse(est, ref) == pytest.approx(1.0)
        assert nmse_db(est, ref) == pytest.approx(0.0)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError, match="zero energy"):
            nmse(np.ones(3), np.zeros(3))


class TestHamming:
    def test_distance(self):
        a = np.array([0, 1, 1, 0], dtype=np.uint8)
        b = np.array([1, 1, 0, 0], dtype=np.uint8)
        assert hamming_distance(a, b) == 2
        assert normalized_hamming(a, b) == pytest.approx(0.5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            hamming_distance(np.zeros(3), np.zeros(4))

    def test_empty_normalized_rejected(self):
        with pytest.raises(ValueError):
            normalized_hamming(np.array([]), np.array([]))

