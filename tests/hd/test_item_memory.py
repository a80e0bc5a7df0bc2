"""Tests of item memories."""

import numpy as np
import pytest

from repro.ml.hd import ItemMemory, LevelItemMemory, hamming_similarity


class TestItemMemory:
    def test_lookup(self):
        memory = ItemMemory("abc", d=256, seed=0)
        assert memory["a"].shape == (256,)
        assert "b" in memory and "z" not in memory
        assert len(memory) == 3

    def test_symbols_quasi_orthogonal(self):
        memory = ItemMemory(range(10), d=8192, seed=1)
        for i in range(1, 10):
            sim = hamming_similarity(memory[0], memory[i])
            assert sim == pytest.approx(0.5, abs=0.05)

    def test_deterministic_with_seed(self):
        a = ItemMemory("xy", d=64, seed=2)
        b = ItemMemory("xy", d=64, seed=2)
        assert np.array_equal(a["x"], b["x"])

    def test_unknown_symbol(self):
        with pytest.raises(KeyError):
            ItemMemory("ab", d=32, seed=3)["c"]

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            ItemMemory("aa", d=32)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ItemMemory("", d=32)

    def test_matrix_shape(self):
        memory = ItemMemory("abcd", d=128, seed=4)
        assert memory.matrix.shape == (4, 128)

    def test_symbols_keep_insertion_order(self):
        assert ItemMemory("cab", d=16, seed=0).symbols == ["c", "a", "b"]

    def test_rejects_empty_dimension(self):
        with pytest.raises(ValueError, match="d must be"):
            ItemMemory("ab", d=0)


class TestLevelItemMemory:
    def test_matrix_stacks_levels_as_a_copy(self):
        memory = LevelItemMemory(n_levels=4, d=64, seed=3)
        matrix = memory.matrix
        assert np.array_equal(matrix[2], memory.level(2))
        matrix[:] = 0
        assert memory.matrix.any()

    def test_similarity_decreases_with_level_distance(self):
        memory = LevelItemMemory(n_levels=16, d=8192, seed=0)
        sims = [
            hamming_similarity(memory.level(0), memory.level(i))
            for i in range(16)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(sims, sims[1:]))

    def test_extremes_quasi_orthogonal(self):
        memory = LevelItemMemory(n_levels=16, d=8192, seed=1)
        sim = hamming_similarity(memory.level(0), memory.level(15))
        assert sim == pytest.approx(0.5, abs=0.06)

    def test_adjacent_levels_highly_similar(self):
        memory = LevelItemMemory(n_levels=16, d=8192, seed=2)
        sim = hamming_similarity(memory.level(7), memory.level(8))
        assert sim > 0.9

    def test_quantize_bounds(self):
        memory = LevelItemMemory(n_levels=8, d=256, seed=3)
        assert memory.quantize(-0.5) == 0
        assert memory.quantize(0.0) == 0
        assert memory.quantize(1.0) == 7
        assert memory.quantize(2.0) == 7

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=str)
    def test_non_finite_values_have_no_level(self, bad):
        memory = LevelItemMemory(n_levels=8, d=256, seed=3)
        with pytest.raises(ValueError, match="finite"):
            memory.quantize(bad)
        with pytest.raises(ValueError, match="finite"):
            memory.quantize_values([0.2, bad, 0.7])
        with pytest.raises(ValueError, match="finite"):
            memory.for_values(np.full((2, 3), bad))

    def test_for_value_matches_level(self):
        memory = LevelItemMemory(n_levels=4, d=256, seed=4)
        assert np.array_equal(memory.for_value(0.9), memory.level(3))

    def test_for_values_stacks(self):
        memory = LevelItemMemory(n_levels=4, d=64, seed=5)
        stacked = memory.for_values([0.0, 0.99])
        assert stacked.shape == (2, 64)

    def test_validation(self):
        with pytest.raises(ValueError):
            LevelItemMemory(n_levels=1, d=64)
        with pytest.raises(ValueError, match="too small"):
            LevelItemMemory(n_levels=64, d=8)
        with pytest.raises(IndexError):
            LevelItemMemory(n_levels=4, d=64, seed=0).level(4)
