"""Tests of training and post-training quantization."""

import numpy as np
import pytest

from repro.ml.nn import Sequential, quantize_network, quantize_symmetric, train_classifier
from repro.ml.nn.train import cross_entropy
from repro.workloads import SensoryTask


@pytest.fixture(scope="module")
def trained_task():
    task = SensoryTask(n_features=16, n_classes=4, separation=2.5, seed=0)
    x_train, y_train, x_test, y_test = task.train_test_split(400, 200, seed=1)
    net = Sequential.mlp([16, 24, 4], seed=2)
    losses = train_classifier(net, x_train, y_train, epochs=25, seed=3)
    return net, losses, (x_test, y_test)


class TestTraining:
    def test_loss_decreases(self, trained_task):
        _, losses, _ = trained_task
        assert losses[-1] < 0.5 * losses[0]

    def test_generalization_beats_chance(self, trained_task):
        net, _, (x_test, y_test) = trained_task
        assert net.accuracy(x_test, y_test) > 0.6  # chance = 0.25

    def test_cross_entropy_perfect_prediction(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        assert cross_entropy(logits, np.array([0, 1])) == pytest.approx(0.0, abs=1e-6)

    def test_parameter_validation(self):
        net = Sequential.mlp([4, 2], seed=0)
        x, y = np.zeros((10, 4)), np.zeros(10, dtype=int)
        with pytest.raises(ValueError):
            train_classifier(net, x, y, epochs=0)
        with pytest.raises(ValueError):
            train_classifier(net, x, y, learning_rate=0.0)
        with pytest.raises(ValueError):
            train_classifier(net, np.zeros((9, 4)), y)


class TestQuantizeSymmetric:
    def test_zero_tensor_unchanged(self):
        assert np.array_equal(quantize_symmetric(np.zeros(4), 4), np.zeros(4))

    def test_peak_preserved(self):
        values = np.array([-2.0, 0.3, 1.1])
        quantized = quantize_symmetric(values, 8)
        assert quantized.min() == pytest.approx(-2.0)

    def test_error_bounded_by_half_step(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(1000)
        bits = 6
        quantized = quantize_symmetric(values, bits)
        step = np.abs(values).max() / (2 ** (bits - 1) - 1)
        assert np.max(np.abs(quantized - values)) <= step / 2 + 1e-12

    def test_level_count(self):
        values = np.linspace(-1, 1, 1001)
        quantized = quantize_symmetric(values, 3)
        assert len(np.unique(quantized)) <= 2**3 - 1

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            quantize_symmetric(np.ones(2), 0)


class TestQuantizeNetwork:
    def test_original_untouched(self, trained_task):
        net, _, _ = trained_task
        before = net.layers[0].weights.copy()
        quantize_network(net, 4)
        assert np.array_equal(net.layers[0].weights, before)

    def test_accuracy_survives_moderate_quantization(self, trained_task):
        """Sec. IV.A: limited-precision inference achieves comparable
        accuracy to floating point."""
        net, _, (x_test, y_test) = trained_task
        full = net.accuracy(x_test, y_test)
        quant = quantize_network(net, 6).accuracy(x_test, y_test)
        assert quant >= full - 0.05

    def test_one_bit_destroys_accuracy_gracefully(self, trained_task):
        net, _, (x_test, y_test) = trained_task
        accuracy = quantize_network(net, 1).accuracy(x_test, y_test)
        assert 0.0 <= accuracy <= 1.0


class TestNoiseAwareTraining:
    def test_weight_noise_training_still_learns(self):
        task = SensoryTask(n_features=16, n_classes=4, separation=2.5, seed=0)
        x_train, y_train, x_test, y_test = task.train_test_split(400, 150, seed=1)
        network = Sequential.mlp([16, 24, 4], seed=2)
        losses = train_classifier(
            network, x_train, y_train, epochs=25, weight_noise_sigma=0.1, seed=3
        )
        assert losses[-1] < losses[0]
        assert network.accuracy(x_test, y_test) > 0.6

    def test_negative_noise_rejected(self):
        network = Sequential.mlp([4, 2], seed=0)
        with pytest.raises(ValueError):
            train_classifier(
                network, np.zeros((8, 4)), np.zeros(8, dtype=int),
                weight_noise_sigma=-0.1,
            )
