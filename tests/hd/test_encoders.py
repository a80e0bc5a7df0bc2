"""Tests of the text and biosignal encoders."""

import numpy as np
import pytest

from repro.ml.hd import (
    BiosignalEncoder,
    ItemMemory,
    TextNgramEncoder,
    hamming_similarity,
)
from repro.ml.hd.hypervector import NGRAM_CHUNK
from repro.workloads.languages import ALPHABET

# Stream lengths for trigram encoders: one full block of NGRAM_CHUNK
# n-grams (NGRAM_CHUNK + ngram - 1 positions) +- 1, and three blocks.
CHUNK_CROSSING_LENGTHS = [NGRAM_CHUNK + 2 + delta for delta in (-1, 0, 1)] + [
    3 * NGRAM_CHUNK + 7
]


def random_text(length):
    return "".join(np.random.default_rng(length).choice(list(ALPHABET), length))


def rolled_counts(rows, ngram):
    """n-gram counts of a whole ``(L, d)`` stack: one ``np.roll`` per
    offset, summed in int64."""
    n_grams = len(rows) - ngram + 1
    bound = np.zeros((n_grams, rows.shape[1]), dtype=np.uint8)
    for offset in range(ngram):
        bound ^= np.roll(rows[offset : offset + n_grams], ngram - 1 - offset, axis=1)
    return bound.sum(axis=0, dtype=np.int64)


@pytest.fixture
def text_encoder():
    memory = ItemMemory("abcdefghijklmnopqrstuvwxyz ", d=2048, seed=0)
    return TextNgramEncoder(memory, ngram=3, seed=1)


class TestTextEncoder:
    def test_ngram_hypervector_shape(self, text_encoder):
        assert text_encoder.ngram_hypervector("abc").shape == (2048,)

    def test_ngram_order_matters(self, text_encoder):
        """Permutation encodes position: 'abc' != 'cba'."""
        sim = hamming_similarity(
            text_encoder.ngram_hypervector("abc"),
            text_encoder.ngram_hypervector("cba"),
        )
        assert sim == pytest.approx(0.5, abs=0.06)

    def test_wrong_gram_length_rejected(self, text_encoder):
        with pytest.raises(ValueError):
            text_encoder.ngram_hypervector("ab")

    def test_rejects_empty_grams(self, text_encoder):
        with pytest.raises(ValueError, match="ngram must be"):
            TextNgramEncoder(text_encoder.item_memory, ngram=0)

    def test_encode_deterministic_modulo_ties(self, text_encoder):
        a = text_encoder.encode("the quick brown fox")
        b = text_encoder.encode("the quick brown fox")
        # tie-breaking consumes RNG, but non-tied components must agree
        assert (a == b).mean() > 0.95

    def test_similar_texts_similar_vectors(self, text_encoder):
        base = text_encoder.encode("the cat sat on the mat today")
        close = text_encoder.encode("the cat sat on the mat tonight")
        far = text_encoder.encode("zzq wvx jkp qqq zzz xxy vvv bbb")
        assert hamming_similarity(base, close) > hamming_similarity(base, far)

    def test_short_text_rejected(self, text_encoder):
        with pytest.raises(ValueError, match="shorter"):
            text_encoder.encode("ab")

    def test_ngram_counts_consistency(self, text_encoder):
        counts, n = text_encoder.ngram_counts("abcd")
        assert n == 2
        assert counts.max() <= n and counts.min() >= 0

    @pytest.mark.parametrize(
        "text",
        ["the quick brown fox jumps"]
        + [random_text(length) for length in CHUNK_CROSSING_LENGTHS],
        ids=lambda text: f"{len(text)}_chars",
    )
    def test_vectorized_counts_equal_per_position_loop(self, text_encoder, text):
        """The rolled-XOR accumulation is bit-identical to summing
        ngram_hypervector over every position."""
        counts, n_grams = text_encoder.ngram_counts(text)
        reference = np.zeros(text_encoder.d, dtype=np.int64)
        for start in range(len(text) - text_encoder.ngram + 1):
            reference += text_encoder.ngram_hypervector(
                text[start : start + text_encoder.ngram]
            )
        assert n_grams == len(text) - text_encoder.ngram + 1
        assert np.array_equal(counts, reference)

    def test_a_reused_block_matches_fresh_encoders(self, text_encoder):
        """The encoder's block, filled by a 2000-character text, gives a
        300-character text the counts a fresh encoder gives it."""
        for text in (random_text(2000), random_text(300)):
            fresh = TextNgramEncoder(text_encoder.item_memory, ngram=3)
            counts, n_grams = text_encoder.ngram_counts(text)
            assert n_grams == len(text) - 2
            assert np.array_equal(counts, fresh.ngram_counts(text)[0])
            rows = text_encoder.item_memory.rows(text)
            assert np.array_equal(counts, rolled_counts(rows, 3))

    def test_unknown_symbol_rejected(self, text_encoder):
        with pytest.raises(KeyError, match="unknown symbol"):
            text_encoder.ngram_counts("abc123")


class TestBiosignalEncoder:
    @pytest.fixture
    def encoder(self):
        return BiosignalEncoder(n_channels=4, d=2048, n_levels=8, ngram=3, seed=0)

    def test_spatial_hypervector_shape(self, encoder):
        assert encoder.spatial_hypervector(np.array([0.1, 0.5, 0.9, 0.3])).shape == (2048,)

    def test_spatial_sensitive_to_amplitudes(self, encoder):
        a = encoder.spatial_hypervector(np.array([0.9, 0.9, 0.1, 0.1]))
        b = encoder.spatial_hypervector(np.array([0.1, 0.1, 0.9, 0.9]))
        assert hamming_similarity(a, b) < 0.75

    def test_similar_windows_similar_codes(self, encoder):
        rng = np.random.default_rng(1)
        window = rng.random((16, 4))
        jittered = np.clip(window + 0.02 * rng.standard_normal(window.shape), 0, 1)
        different = rng.random((16, 4))
        sim_close = hamming_similarity(encoder.encode(window), encoder.encode(jittered))
        sim_far = hamming_similarity(encoder.encode(window), encoder.encode(different))
        assert sim_close > sim_far

    def test_window_validation(self, encoder):
        with pytest.raises(ValueError):
            encoder.encode(np.zeros((16, 3)))  # wrong channel count
        with pytest.raises(ValueError, match="shorter"):
            encoder.encode(np.zeros((2, 4)))  # shorter than ngram

    def test_sample_validation(self, encoder):
        with pytest.raises(ValueError):
            encoder.spatial_hypervector(np.zeros(3))

    def test_spatial_block_validation(self, encoder):
        with pytest.raises(ValueError, match="window must be"):
            encoder.spatial_hypervectors(np.zeros((6, 3)))

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            BiosignalEncoder(n_channels=0)
        with pytest.raises(ValueError):
            BiosignalEncoder(n_channels=4, ngram=0)

    @pytest.mark.parametrize("steps", [12] + CHUNK_CROSSING_LENGTHS)
    def test_window_counts_equal_per_step_loop(self, steps):
        """With an odd channel count (no spatial ties, no RNG) the
        vectorized window counts match the explicit per-position
        permute-bind-accumulate loop exactly."""
        from repro.ml.hd.hypervector import bind, permute

        encoder = BiosignalEncoder(n_channels=5, d=1024, n_levels=8, ngram=3, seed=4)
        window = np.random.default_rng(2).random((steps, 5))
        counts, n_grams = encoder.window_counts(window)

        spatial = [encoder.spatial_hypervector(sample) for sample in window]
        reference = np.zeros(encoder.d, dtype=np.int64)
        for start in range(len(spatial) - encoder.ngram + 1):
            gram = None
            for offset in range(encoder.ngram):
                rotated = permute(spatial[start + offset], encoder.ngram - 1 - offset)
                gram = rotated if gram is None else bind(gram, rotated)
            reference += gram
        assert n_grams == steps - 2
        assert np.array_equal(counts, reference)

    def test_a_reused_block_matches_a_fresh_encoder(self):
        """An EMG window counted after a longer one (a full block) gets
        the counts a fresh encoder at the same generator state gives."""
        settings = dict(n_channels=4, d=1024, n_levels=16, ngram=3, seed=5)
        reused = BiosignalEncoder(**settings)
        windows = np.random.default_rng(6).random((2, 2 * NGRAM_CHUNK, 4))
        reused.window_counts(windows[0])
        window = windows[1, :64]
        fresh, twin = BiosignalEncoder(**settings), BiosignalEncoder(**settings)
        for encoder in (fresh, twin):
            encoder._rng.bit_generator.state = reused._rng.bit_generator.state
        counts, n_grams = reused.window_counts(window)
        assert n_grams == 62
        assert np.array_equal(counts, fresh.window_counts(window)[0])
        spatial = twin.spatial_hypervectors(window)
        assert np.array_equal(counts, rolled_counts(spatial, 3))
        assert reused._rng.bit_generator.state == fresh._rng.bit_generator.state

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=str)
    @pytest.mark.parametrize(
        "method", ["encode", "window_counts", "spatial_hypervectors"]
    )
    def test_non_finite_amplitudes_are_rejected_before_any_draw(self, method, bad):
        encoder = BiosignalEncoder(n_channels=4, d=256, n_levels=8, ngram=3, seed=0)
        window = np.random.default_rng(1).random((16, 4))
        window[5, 2] = bad
        state = encoder._rng.bit_generator.state
        with pytest.raises(ValueError, match="finite"):
            getattr(encoder, method)(window)
        assert encoder._rng.bit_generator.state == state

    def test_spatial_hypervectors_match_single_steps(self):
        encoder = BiosignalEncoder(n_channels=5, d=512, n_levels=8, seed=7)
        window = np.random.default_rng(3).random((6, 5))
        stacked = encoder.spatial_hypervectors(window)
        singles = np.stack(
            [encoder.spatial_hypervector(sample) for sample in window]
        )
        assert np.array_equal(stacked, singles)

    def test_window_counts_validation(self):
        encoder = BiosignalEncoder(n_channels=4, d=256, ngram=3, seed=0)
        with pytest.raises(ValueError, match="shorter"):
            encoder.window_counts(np.zeros((2, 4)))
        with pytest.raises(ValueError):
            encoder.window_counts(np.zeros((8, 3)))
