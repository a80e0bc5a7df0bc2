"""Tests of the image, language, EMG and sensory generators."""

import numpy as np
import pytest

from repro.workloads import (
    EmgGestureGenerator,
    LanguageCorpus,
    SensoryTask,
    add_gaussian_noise,
    edge_texture_image,
    gaussian_measurement_matrix,
)
from repro.workloads.images import step_edge_image
from repro.workloads.languages import ALPHABET


class TestImages:
    def test_step_edge_values(self):
        image = step_edge_image(4, 8, low=0.1, high=0.9)
        assert np.all(image[:, :4] == 0.1)
        assert np.all(image[:, 4:] == 0.9)

    def test_edge_texture_in_range(self):
        image = edge_texture_image(32, 32, seed=0)
        assert image.min() >= 0.0 and image.max() <= 1.0

    def test_noise_clipped(self):
        noisy = add_gaussian_noise(np.full((16, 16), 0.95), 0.5, seed=1)
        assert noisy.max() <= 1.0

    def test_noise_level(self):
        noisy = add_gaussian_noise(np.full((100, 100), 0.5), 0.05, seed=2)
        assert np.std(noisy) == pytest.approx(0.05, rel=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            step_edge_image(0, 4)
        with pytest.raises(ValueError):
            add_gaussian_noise(np.zeros((2, 2)), -0.1)


def choice_per_character(corpus, language, length, rng):
    """Reference sampler: one ``Generator.choice`` call per character."""
    chain = corpus.transition_matrix(language)
    n_symbols = len(ALPHABET)
    state = int(rng.integers(n_symbols))
    symbols = []
    for _ in range(length):
        state = int(rng.choice(n_symbols, p=chain[state]))
        symbols.append(ALPHABET[state])
    return "".join(symbols)


class TestLanguageCorpus:
    def test_transition_matrices_stochastic(self):
        corpus = LanguageCorpus(n_languages=4, seed=0)
        for language in range(4):
            chain = corpus.transition_matrix(language)
            assert np.allclose(chain.sum(axis=1), 1.0)
            assert np.all(chain >= 0)

    def test_sample_alphabet(self):
        corpus = LanguageCorpus(n_languages=3, seed=1)
        text = corpus.sample(0, 200, seed=2)
        assert len(text) == 200
        assert set(text) <= set(ALPHABET)

    def test_languages_differ(self):
        corpus = LanguageCorpus(n_languages=3, seed=3)
        a = corpus.transition_matrix(0)
        b = corpus.transition_matrix(1)
        assert not np.allclose(a, b)

    def test_dataset_shape(self):
        corpus = LanguageCorpus(n_languages=3, seed=4)
        texts, labels = corpus.dataset(2, 50, seed=5)
        assert len(texts) == 6
        assert np.array_equal(np.bincount(labels), [2, 2, 2])

    @pytest.mark.parametrize("corpus_seed", [1, 7])
    @pytest.mark.parametrize("language", [0, 3, 5])
    @pytest.mark.parametrize("seed", [0, 5, 11])
    @pytest.mark.parametrize("length", [1, 2, 1000])
    def test_sample_equals_per_character_choice(
        self, corpus_seed, language, seed, length
    ):
        """One-draw sampling reproduces Generator.choice's text and
        leaves the generator in the same state."""
        corpus = LanguageCorpus(n_languages=6, seed=corpus_seed)
        sampled_rng = np.random.default_rng(seed)
        reference_rng = np.random.default_rng(seed)
        text = corpus.sample(language, length, seed=sampled_rng)
        assert text == choice_per_character(corpus, language, length, reference_rng)
        assert sampled_rng.bit_generator.state == reference_rng.bit_generator.state

    def test_dataset_leaves_generator_as_per_character_choice(self):
        corpus = LanguageCorpus(n_languages=4, seed=2)
        dataset_rng = np.random.default_rng(8)
        reference_rng = np.random.default_rng(8)
        texts, labels = corpus.dataset(2, 40, seed=dataset_rng)
        reference = [
            choice_per_character(corpus, language, 40, reference_rng)
            for language in range(4)
            for _ in range(2)
        ]
        assert texts == reference
        assert list(labels) == [0, 0, 1, 1, 2, 2, 3, 3]
        assert dataset_rng.bit_generator.state == reference_rng.bit_generator.state

    def test_validation(self):
        with pytest.raises(ValueError):
            LanguageCorpus(n_languages=1)
        corpus = LanguageCorpus(n_languages=2, seed=6)
        with pytest.raises(ValueError):
            corpus.sample(5, 10)
        with pytest.raises(ValueError):
            corpus.sample(0, 0)

    @pytest.mark.parametrize(
        "build, name",
        [
            (lambda: LanguageCorpus(n_languages=float("nan")), "n_languages"),
            (lambda: LanguageCorpus(n_languages=2.5), "n_languages"),
            (lambda: LanguageCorpus(n_languages=3, seed=0).sample(1.5, 10), "language"),
            (lambda: LanguageCorpus(n_languages=3, seed=0).sample(-1, 10), "language"),
            (lambda: LanguageCorpus(n_languages=3, seed=0).sample(0, 2.5), "length"),
            (
                lambda: LanguageCorpus(n_languages=3, seed=0).dataset(1.5, 10),
                "samples_per_language",
            ),
        ],
        ids=[
            "languages_nan",
            "languages_fractional",
            "language_fractional",
            "language_negative",
            "length_fractional",
            "samples_fractional",
        ],
    )
    def test_rejects_non_integer_counts(self, build, name):
        with pytest.raises(ValueError, match=name):
            build()


class TestEmgGenerator:
    def test_window_shape_and_range(self):
        generator = EmgGestureGenerator(seed=0)
        window = generator.window(2, seed=1)
        assert window.shape == (64, 4)
        assert window.min() >= 0.0 and window.max() <= 1.0

    def test_rest_gesture_low_activation(self):
        generator = EmgGestureGenerator(seed=1)
        rest = generator.window(0, seed=2)
        active = generator.window(1, seed=3)
        assert rest.mean() < active.mean()

    def test_templates_shape(self):
        generator = EmgGestureGenerator(n_channels=4, n_gestures=5, seed=2)
        assert generator.templates.shape == (5, 4)

    def test_dataset_labels(self):
        generator = EmgGestureGenerator(seed=3)
        windows, labels = generator.dataset(3, seed=4)
        assert windows.shape == (15, 64, 4)
        assert np.array_equal(np.bincount(labels), [3, 3, 3, 3, 3])

    def test_validation(self):
        with pytest.raises(ValueError):
            EmgGestureGenerator(n_gestures=1)
        generator = EmgGestureGenerator(seed=5)
        with pytest.raises(ValueError):
            generator.window(7)


class TestSensoryTask:
    def test_sample_shapes(self):
        task = SensoryTask(n_features=8, n_classes=3, seed=0)
        features, labels = task.sample(50, seed=1)
        assert features.shape == (50, 8)
        assert set(np.unique(labels)) <= {0, 1, 2}

    def test_split_independent(self):
        task = SensoryTask(seed=1)
        x_train, _, x_test, _ = task.train_test_split(20, 30, seed=2)
        assert len(x_train) == 20 and len(x_test) == 30

    def test_separation_controls_difficulty(self):
        """Larger separation -> nearest-centroid accuracy improves."""
        accuracies = {}
        for separation in (0.5, 4.0):
            task = SensoryTask(n_features=16, n_classes=4, separation=separation, seed=3)
            features, labels = task.sample(400, seed=4)
            centroids = task.centroids
            predicted = np.argmin(
                np.linalg.norm(features[:, None] - centroids[None], axis=2), axis=1
            )
            accuracies[separation] = np.mean(predicted == labels)
        assert accuracies[4.0] > accuracies[0.5] + 0.2

    def test_validation(self):
        with pytest.raises(ValueError):
            SensoryTask(n_classes=1)
        with pytest.raises(ValueError):
            SensoryTask().sample(0)


class TestGeneratorValidation:
    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: EmgGestureGenerator(noise_level=-0.1), "noise_level"),
            (lambda: EmgGestureGenerator(seed=0).dataset(0), "windows_per_gesture"),
            (
                lambda: LanguageCorpus(n_languages=2, characteristic_fraction=0.0),
                "characteristic_fraction",
            ),
            (
                lambda: LanguageCorpus(n_languages=2, characteristic_fraction=1.5),
                "characteristic_fraction",
            ),
            (
                lambda: LanguageCorpus(n_languages=2, seed=0).dataset(0, 10),
                "samples_per_language",
            ),
            (lambda: gaussian_measurement_matrix(0, 4), "m and n"),
            (lambda: gaussian_measurement_matrix(4, 0), "m and n"),
        ],
        ids=[
            "emg_noise",
            "emg_dataset",
            "language_fraction_zero",
            "language_fraction_above_one",
            "language_dataset",
            "measurement_rows",
            "measurement_columns",
        ],
    )
    def test_rejects_bad_arguments(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()
