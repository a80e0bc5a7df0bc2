"""Property tests of the MAP operations (Sec. IV.B.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.hd import (
    bind,
    bundle,
    hamming_similarity,
    permute,
    random_hypervector,
)
from repro.ml.hd.hypervector import (
    NGRAM_CHUNK,
    majority_from_counts,
    ngram_counts_from_rows,
)


def hv_strategy(d=64):
    return st.lists(st.integers(0, 1), min_size=d, max_size=d).map(
        lambda bits: np.array(bits, dtype=np.uint8)
    )


class TestRandomHypervector:
    def test_density_near_half(self):
        hv = random_hypervector(10000, seed=0)
        assert hv.mean() == pytest.approx(0.5, abs=0.02)

    def test_quasi_orthogonality(self):
        """Unrelated hypervectors have similarity ~0.5 (the paper's
        quasi-orthogonality property enabling combination)."""
        a = random_hypervector(10000, seed=1)
        b = random_hypervector(10000, seed=2)
        assert hamming_similarity(a, b) == pytest.approx(0.5, abs=0.03)

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            random_hypervector(0)


class TestBind:
    @given(hv_strategy(), hv_strategy())
    def test_involution(self, a, b):
        """bind(bind(a, b), b) == a — XOR unbinds itself."""
        assert np.array_equal(bind(bind(a, b), b), a)

    @given(hv_strategy(), hv_strategy())
    def test_commutative(self, a, b):
        assert np.array_equal(bind(a, b), bind(b, a))

    @given(hv_strategy())
    def test_self_binding_is_zero(self, a):
        assert bind(a, a).sum() == 0

    def test_result_quasi_orthogonal_to_inputs(self):
        a = random_hypervector(10000, seed=3)
        b = random_hypervector(10000, seed=4)
        bound = bind(a, b)
        assert hamming_similarity(bound, a) == pytest.approx(0.5, abs=0.03)
        assert hamming_similarity(bound, b) == pytest.approx(0.5, abs=0.03)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bind(np.zeros(4, dtype=np.uint8), np.zeros(5, dtype=np.uint8))

    def test_integer_inputs_bind_as_bits(self):
        bound = bind(np.array([1, 0, 1, 0]), np.array([1, 1, 0, 0]))
        assert bound.dtype == np.uint8
        assert np.array_equal(bound, [0, 1, 1, 0])


class TestBundle:
    def test_odd_majority_exact(self):
        hvs = np.array(
            [[1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]], dtype=np.uint8
        )
        assert np.array_equal(bundle(hvs), [1, 0, 0, 0])

    @given(st.lists(hv_strategy(32), min_size=3, max_size=7))
    def test_fixed_width(self, hvs):
        result = bundle(np.stack(hvs), seed=0)
        assert result.shape == (32,)
        assert set(np.unique(result)) <= {0, 1}

    def test_similar_to_every_input(self):
        """The bundle stays closer to each input than random (~0.5)."""
        rng = np.random.default_rng(5)
        hvs = np.stack([random_hypervector(8192, seed=rng) for _ in range(5)])
        bundled = bundle(hvs, seed=rng)
        for hv in hvs:
            assert hamming_similarity(bundled, hv) > 0.6

    def test_tie_break_random_but_seeded(self):
        hvs = np.array([[1, 0], [0, 1]], dtype=np.uint8)  # all ties
        a = bundle(hvs, seed=0)
        b = bundle(hvs, seed=0)
        assert np.array_equal(a, b)

    def test_weighted_bundle(self):
        hvs = np.array([[1, 1], [0, 0]], dtype=np.uint8)
        heavy_first = bundle(hvs, weights=np.array([3.0, 1.0]))
        assert np.array_equal(heavy_first, [1, 1])

    def test_weight_validation(self):
        hvs = np.zeros((2, 4), dtype=np.uint8)
        with pytest.raises(ValueError):
            bundle(hvs, weights=np.array([1.0]))
        with pytest.raises(ValueError):
            bundle(hvs, weights=np.array([-1.0, 1.0]))

    def test_rejects_non_stack(self):
        with pytest.raises(ValueError):
            bundle(np.zeros(8, dtype=np.uint8))

    def test_rejects_empty_stack(self):
        with pytest.raises(ValueError, match="at least one"):
            bundle(np.zeros((0, 8), dtype=np.uint8))


class TestNgramCounts:
    @pytest.mark.parametrize(
        "length, ngram, match",
        [(4, 0, "ngram must be"), (2, 3, "at least ngram")],
        ids=["empty_gram", "short_stream"],
    )
    def test_validation(self, length, ngram, match):
        with pytest.raises(ValueError, match=match):
            ngram_counts_from_rows(np.zeros((length, 8), dtype=np.uint8), ngram)

    @pytest.mark.parametrize("ngram", [1, 3, 5])
    def test_all_ones_counts_are_exact_over_full_blocks(self, ngram):
        """An odd number of bound all-ones rows is all ones, so every
        column counts every n-gram: each full block sums to NGRAM_CHUNK
        per column, which an accumulator that cannot hold NGRAM_CHUNK
        (int8, or uint8 beside 256-row blocks) wraps."""
        rows = np.ones((2 * NGRAM_CHUNK + 10 + ngram - 1, 16), dtype=np.uint8)
        counts, n_grams = ngram_counts_from_rows(rows, ngram)
        assert n_grams == 2 * NGRAM_CHUNK + 10
        assert np.array_equal(counts, np.full(16, n_grams))

    @pytest.mark.parametrize("d, ngram", [(2, 5), (3, 3), (64, 4)])
    def test_matches_rolled_reference(self, d, ngram):
        """Rotations wrap modulo d, also when a shift exceeds d."""
        rows = np.random.default_rng(d).integers(0, 2, (NGRAM_CHUNK + 9, d), np.uint8)
        n_grams = len(rows) - ngram + 1
        reference = np.zeros(d, dtype=np.int64)
        for start in range(n_grams):
            gram = np.zeros(d, dtype=np.uint8)
            for offset in range(ngram):
                gram ^= np.roll(rows[start + offset], ngram - 1 - offset)
            reference += gram
        assert np.array_equal(ngram_counts_from_rows(rows, ngram)[0], reference)


    @pytest.mark.parametrize("ngram", [1, 2, 3])
    def test_a_reused_block_matches_a_fresh_one(self, ngram):
        """A caller's block is overwritten: what a longer stream left in
        it does not reach a shorter stream's counts."""
        rng = np.random.default_rng(ngram)
        block = np.empty((NGRAM_CHUNK, 32), dtype=np.uint8)
        for length in (3 * NGRAM_CHUNK + 40, 70):
            rows = rng.integers(0, 2, (length, 32), np.uint8)
            reused = ngram_counts_from_rows(rows, ngram, block)
            fresh = ngram_counts_from_rows(rows, ngram)
            assert np.array_equal(reused[0], fresh[0]) and reused[1] == fresh[1]

    @pytest.mark.parametrize(
        "block",
        [np.empty((NGRAM_CHUNK, 16), np.uint8), np.empty((NGRAM_CHUNK, 8), np.int64)],
        ids=["wrong_width", "wrong_dtype"],
    )
    def test_rejects_a_mis_shaped_block(self, block):
        with pytest.raises(ValueError, match="block must be"):
            ngram_counts_from_rows(np.zeros((10, 8), dtype=np.uint8), 3, block)


def float_mask_majority(counts, half, rng):
    """The rule majority_from_counts replaced: a float compare, then the
    tie draws assigned through a boolean mask."""
    result = (counts > float(half)).astype(np.uint8)
    ties = counts == float(half)
    if np.any(ties):
        result[ties] = rng.integers(0, 2, size=int(ties.sum()), dtype=np.uint8)
    return result


class TestMajorityFromCounts:
    @pytest.mark.parametrize("layout", ["C", "F", "transposed"])
    @pytest.mark.parametrize("half", [2.0, 2.5, 0.5])
    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float64])
    def test_matches_the_float_mask_rule(self, dtype, half, layout):
        """Same bits and the same generator state after the call: ties
        drawn in the same row-major order, also when the counts are not
        C-ordered (an F-ordered compare result would take the draws in
        a reshaped copy and drop them)."""
        counts = np.random.default_rng(0).binomial(4, 0.5, (48, 96)).astype(dtype)
        counts = {"C": counts, "F": np.asfortranarray(counts),
                  "transposed": counts.T}[layout]
        rng, reference_rng = np.random.default_rng(1), np.random.default_rng(1)
        result = majority_from_counts(counts, half, rng)
        expected = float_mask_majority(counts, half, reference_rng)
        assert result.dtype == np.uint8 and result.flags.c_contiguous
        assert np.array_equal(result, expected)
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_whole_number_halves_draw_one_bit_per_tie(self, dtype):
        counts = np.array([[0, 2, 4], [2, 3, 2]], dtype=dtype)
        rng, twin = np.random.default_rng(2), np.random.default_rng(2)
        result = majority_from_counts(counts, 2.0, rng)
        draws = twin.integers(0, 2, size=3, dtype=np.uint8)
        assert result.tolist() == [[0, draws[0], 1], [draws[1], 1, draws[2]]]
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("half", [1.5, 2.5, 9.0, -1.0])
    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_counts_without_ties_draw_nothing(self, dtype, half):
        counts = np.array([[0, 1, 2], [3, 4, 2]], dtype=dtype)
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        result = majority_from_counts(counts, half, rng)
        assert np.array_equal(result, (counts > half).astype(np.uint8))
        assert rng.bit_generator.state == state


class TestPermute:
    @given(hv_strategy(), st.integers(-64, 64))
    def test_preserves_population(self, a, shifts):
        assert permute(a, shifts).sum() == a.sum()

    @given(hv_strategy(), st.integers(0, 63))
    def test_inverse_shift(self, a, shifts):
        assert np.array_equal(permute(permute(a, shifts), -shifts), a)

    def test_decorrelates(self):
        a = random_hypervector(10000, seed=6)
        assert hamming_similarity(a, permute(a, 1)) == pytest.approx(0.5, abs=0.03)


class TestSimilarity:
    def test_identity(self):
        a = random_hypervector(128, seed=7)
        assert hamming_similarity(a, a) == 1.0

    def test_complement(self):
        a = random_hypervector(128, seed=8)
        assert hamming_similarity(a, 1 - a) == 0.0
