"""Tests of dense layers and the sequential network."""

import numpy as np
import pytest

from repro.ml.nn import Dense, Sequential, relu, softmax
from repro.ml.nn.layers import relu_grad


class TestActivations:
    def test_relu(self):
        assert np.array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_relu_grad(self):
        assert np.array_equal(relu_grad(np.array([-1.0, 0.5])), [0.0, 1.0])

    def test_softmax_rows_sum_to_one(self):
        probs = softmax(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
        assert np.allclose(probs.sum(axis=-1), 1.0)

    def test_softmax_stable_for_large_logits(self):
        probs = softmax(np.array([1000.0, 1000.0]))
        assert np.allclose(probs, 0.5)


class TestDense:
    def test_shapes(self):
        layer = Dense(4, 3, seed=0)
        assert layer.weights.shape == (3, 4)
        out = layer.forward(np.ones((5, 4)))
        assert out.shape == (5, 3)

    def test_linear_activation_is_affine(self):
        layer = Dense(4, 2, activation="linear", seed=1)
        x = np.ones((1, 4))
        assert np.allclose(layer.forward(x), x @ layer.weights.T + layer.bias)

    def test_he_initialization_scale(self):
        layer = Dense(1000, 1000, seed=2)
        assert np.std(layer.weights) == pytest.approx(np.sqrt(2 / 1000), rel=0.05)

    def test_rejects_unknown_activation(self):
        with pytest.raises(ValueError):
            Dense(2, 2, activation="swish")

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            Dense(0, 2)


class TestSequential:
    def test_mlp_builder(self):
        net = Sequential.mlp([8, 16, 4], seed=0)
        assert net.layer_dims == [8, 16, 4]
        assert net.layers[0].activation == "relu"
        assert net.layers[-1].activation == "linear"

    def test_forward_shape(self):
        net = Sequential.mlp([8, 16, 4], seed=1)
        assert net.forward(np.zeros((10, 8))).shape == (10, 4)

    def test_predict_and_accuracy(self):
        net = Sequential.mlp([4, 3], seed=2)
        x = np.eye(4)
        predictions = net.predict(x)
        assert predictions.shape == (4,)
        assert 0.0 <= net.accuracy(x, predictions) <= 1.0
        assert net.accuracy(x, predictions) == 1.0

    def test_layer_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            Sequential([Dense(4, 8, seed=0), Dense(4, 2, seed=1)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Sequential([])

    def test_mlp_needs_input_and_output_dims(self):
        with pytest.raises(ValueError, match="input and output"):
            Sequential.mlp([8])

    def test_predict_proba_sums_to_one(self):
        net = Sequential.mlp([4, 4, 2], seed=3)
        probs = net.predict_proba(np.random.default_rng(0).standard_normal((6, 4)))
        assert np.allclose(probs.sum(axis=-1), 1.0)
