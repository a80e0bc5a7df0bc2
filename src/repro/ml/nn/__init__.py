"""Minimal neural-network library for IoT inference studies (S9).

"Deep neural networks are just a cascade of matrix-vector multiply
units and activation functions" (Sec. IV.A.2) — this package provides
exactly that cascade: dense layers, a trainer, post-training uniform
quantization, and a crossbar-mapped inference engine.
"""

from repro.ml.nn.cim import CimNetwork
from repro.ml.nn.layers import Dense, relu, softmax
from repro.ml.nn.network import Sequential
from repro.ml.nn.quantize import quantize_network, quantize_symmetric
from repro.ml.nn.train import train_classifier

__all__ = [
    "CimNetwork",
    "Dense",
    "Sequential",
    "quantize_network",
    "quantize_symmetric",
    "relu",
    "softmax",
    "train_classifier",
]
