"""End-to-end tests of the Fig. 8 HD applications."""

import numpy as np
import pytest

from repro.devices import PcmDevice
from repro.ml.hd import GestureRecognizer, LanguageRecognizer
from repro.workloads import EmgGestureGenerator, LanguageCorpus


@pytest.fixture(scope="module")
def language_setup():
    corpus = LanguageCorpus(n_languages=6, seed=1)
    train_texts, train_labels = corpus.dataset(3, 1200, seed=2)
    test_texts, test_labels = corpus.dataset(3, 250, seed=3)
    recognizer = LanguageRecognizer(d=2048, ngram=3, seed=0)
    recognizer.fit(train_texts, train_labels)
    return recognizer, test_texts, test_labels


@pytest.fixture(scope="module")
def gesture_setup():
    generator = EmgGestureGenerator(seed=9)
    train_windows, train_labels = generator.dataset(8, seed=4)
    test_windows, test_labels = generator.dataset(5, seed=5)
    recognizer = GestureRecognizer(d=2048, seed=1)
    recognizer.fit(train_windows, train_labels)
    return recognizer, test_windows, test_labels


class TestLanguageRecognition:
    def test_software_accuracy_high(self, language_setup):
        recognizer, texts, labels = language_setup
        assert recognizer.evaluate(texts, labels) >= 0.9

    def test_cim_accuracy_comparable(self, language_setup):
        """"the CIM architecture can deliver comparable accuracies to
        the ideal software simulations for ... language recognition"."""
        recognizer, texts, labels = language_setup
        software = recognizer.evaluate(texts, labels)
        cim = recognizer.evaluate(texts, labels, backend="cim")
        assert cim >= software - 0.1

    def test_predictions_are_labels(self, language_setup):
        recognizer, texts, labels = language_setup
        predictions = recognizer.predict(texts[:3])
        assert all(p in recognizer.memory.labels for p in predictions)

    def test_unknown_backend_rejected(self, language_setup):
        recognizer, texts, labels = language_setup
        with pytest.raises(ValueError):
            recognizer.evaluate(texts[:1], labels[:1], backend="quantum")

    @pytest.mark.parametrize("backend", ["exact", "cim"])
    @pytest.mark.parametrize("n_labels", [2, 12])
    def test_evaluate_rejects_a_label_count_mismatch(
        self, language_setup, backend, n_labels
    ):
        recognizer, texts, labels = language_setup
        with pytest.raises(ValueError, match="6 samples but"):
            recognizer.evaluate(texts[:6], labels[:n_labels], backend=backend)

    def test_fit_rejects_a_label_count_mismatch_before_training(self, language_setup):
        _, texts, labels = language_setup
        recognizer = LanguageRecognizer(d=256, ngram=3, seed=0)
        with pytest.raises(ValueError, match="6 samples but 3 labels"):
            recognizer.fit(texts[:6], labels[:3])
        assert recognizer.memory.n_classes == 0


class TestGestureRecognition:
    def test_software_accuracy_high(self, gesture_setup):
        recognizer, windows, labels = gesture_setup
        assert recognizer.evaluate(windows, labels) >= 0.8

    def test_cim_accuracy_comparable(self, gesture_setup):
        recognizer, windows, labels = gesture_setup
        software = recognizer.evaluate(windows, labels)
        cim = recognizer.evaluate(windows, labels, backend="cim")
        assert cim >= software - 0.15

    def test_refit_invalidates_cim_memory(self, gesture_setup):
        recognizer, windows, labels = gesture_setup
        recognizer.evaluate(windows[:2], labels[:2], backend="cim")
        assert recognizer._cim_memory is not None
        recognizer.fit(windows[:1], labels[:1])
        assert recognizer._cim_memory is None

    def test_empty_evaluation_rejected(self, gesture_setup):
        recognizer, _, _ = gesture_setup
        with pytest.raises(ValueError):
            recognizer.evaluate([], [])

    def test_empty_predict_returns_empty(self, gesture_setup):
        recognizer, _, _ = gesture_setup
        assert recognizer.predict([]) == []


class TestBatchedPrediction:
    """predict runs one batched classification, label-equivalent to the
    former per-sample classify loop on both backends."""

    @staticmethod
    def tie_free_texts(texts, count):
        """Odd-length texts have an odd trigram count (len - 2), so the
        bundle majority never ties and encoding is deterministic —
        which lets the tests re-encode without consuming tie-break
        RNG."""
        trimmed = [t[: len(t) - 1 + (len(t) % 2)] for t in texts if len(t) >= 7]
        assert len(trimmed) >= count
        return trimmed[:count]

    def test_exact_backend_equals_per_sample_loop(self, language_setup):
        recognizer, texts, _ = language_setup
        samples = self.tie_free_texts(texts, 12)
        batched = recognizer.predict(samples)
        looped = [
            recognizer.memory.classify(recognizer._encode(text))
            for text in samples
        ]
        assert batched == looped

    def test_cim_backend_equals_per_sample_loop(self, language_setup):
        """With deterministic reads the batched CIM search is bitwise
        the looped search, so the labels must agree exactly."""
        recognizer, texts, _ = language_setup
        samples = self.tie_free_texts(texts, 10)
        quiet = PcmDevice(read_noise_sigma=0.0)
        recognizer._cim_memory = None  # rebuild on the quiet device
        try:
            batched = recognizer.predict(samples, backend="cim", device=quiet)
            memory = recognizer._backend_memory("cim", quiet, 8)
            looped = [
                memory.classify(recognizer._encode(text)) for text in samples
            ]
            assert batched == looped
        finally:
            recognizer._cim_memory = None  # don't leak the quiet device

    def test_repeated_prediction_is_deterministic(self, language_setup):
        """Prototype tie-bits are cached per trained state: classifying
        the same (tie-free) samples twice returns identical labels."""
        recognizer, texts, _ = language_setup
        samples = self.tie_free_texts(texts, 12)
        assert recognizer.predict(samples) == recognizer.predict(samples)

    def test_cim_search_is_batched_not_looped(self, gesture_setup):
        recognizer, windows, _ = gesture_setup
        memory = recognizer._backend_memory("cim", None, 8)
        direct = memory.array_direct.n_col_reads
        recognizer.predict(windows[:6], backend="cim")
        # one batched search issues 6 read events in one voltage block
        assert memory.array_direct.n_col_reads == direct + 6
        assert memory.n_queries % 6 == 0
