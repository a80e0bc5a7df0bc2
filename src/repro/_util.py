"""Shared utilities: validation helpers, RNG handling and small math.

Every stochastic component in the library accepts a ``seed`` argument
that may be ``None`` (fresh entropy), an integer, or an existing
:class:`numpy.random.Generator`; :func:`as_rng` normalizes all three.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "as_rng",
    "check_binary",
    "check_elapsed",
    "check_finite",
    "check_int",
    "check_nonnegative",
    "check_positive",
    "check_fraction",
    "check_in",
    "check_shape",
    "nmse",
    "nmse_db",
    "hamming_distance",
    "normalized_hamming",
]


def as_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``seed`` may be ``None`` (OS entropy), an ``int`` (deterministic
    stream) or an existing generator (returned unchanged so callers can
    share one stream).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def check_elapsed(name: str, value: float) -> float:
    """Validate an elapsed-time argument: finite and non-negative.

    Drift clocks accumulate whatever they are fed, so a negative or NaN
    elapsed time would silently corrupt every age/staleness counter
    downstream (NaN compares false against every threshold).  All
    ``advance_time`` entry points validate through this helper before
    touching any clock, so a bad value can never partially age a fleet.
    """
    value = float(value)
    if not math.isfinite(value) or value < 0:
        raise ValueError(
            f"{name} must be a finite non-negative number of seconds, "
            f"got {value!r}"
        )
    return value


def check_finite(name: str, array: np.ndarray) -> np.ndarray:
    """Raise ``ValueError`` unless every entry of ``array`` is finite.

    Analog reads peak-normalize their inputs, so one NaN or inf turns a
    whole output column into NaN that is still billed as a live read.
    Every read entry point (array, operator, fleet, server) validates
    through this helper before any counter, load or queue moves.
    """
    if not np.isfinite(array).all():
        raise ValueError(f"{name} must be finite, got NaN or inf entries")
    return array


def check_binary(name: str, array: np.ndarray) -> np.ndarray:
    """Return ``array`` as ``uint8``; raise ``ValueError`` unless every
    entry is 0 or 1.

    A cast alone would serve a bad hypervector: ``uint8`` wraps -1 to
    255, truncates 0.6 to 0 and turns NaN into an arbitrary byte.  Every
    HD entry point that trains on or searches with a hypervector
    validates through this helper before any count, read or counter
    moves.  A ``uint8`` array, what the encoders emit, is checked in one
    pass and returned as is.
    """
    array = np.asarray(array)
    if array.dtype == np.uint8:
        if array.size and array.max() > 1:
            raise ValueError(f"{name} must hold only 0/1 entries")
        return array
    if not np.all((array == 0) | (array == 1)):
        raise ValueError(f"{name} must hold only 0/1 entries")
    return array.astype(np.uint8)


def check_int(name: str, value: float, minimum: int = 1) -> int:
    """Return ``value`` as an ``int``; raise ``ValueError`` unless it is
    an integer no smaller than ``minimum``.

    Integral floats such as ``8.0`` pass.  NaN, inf, fractional,
    boolean and non-numeric values raise a ``ValueError`` that names the
    parameter (``int(inf)`` alone would raise ``OverflowError``, and
    ``int(nan)`` a message without the name; ``int(True)`` is 1, so a
    flag passed by mistake would run one round or build one shard).
    """
    try:
        integer = None if isinstance(value, (bool, np.bool_)) else int(value)
    except (TypeError, ValueError, OverflowError):
        integer = None
    if integer is None or integer != value or integer < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return integer


def check_positive(name: str, value: float) -> float:
    """Raise ``ValueError`` unless ``value`` is finite and strictly positive."""
    if not (value > 0 and np.isfinite(value)):
        raise ValueError(f"{name} must be > 0 and finite, got {value!r}")
    return value


def check_nonnegative(name: str, value: float) -> float:
    """Raise ``ValueError`` unless ``value`` is finite and ``>= 0``.

    For stopping tolerances: NaN compares false against every residual,
    so a NaN tolerance would silently switch its stopping rule off.
    """
    if not (value >= 0 and np.isfinite(value)):
        raise ValueError(f"{name} must be >= 0 and finite, got {value!r}")
    return value


def check_fraction(name: str, value: float) -> float:
    """Raise ``ValueError`` unless ``0 <= value <= 1``."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be within [0, 1], got {value!r}")
    return value


def check_in(name: str, value: object, allowed: Iterable[object]) -> object:
    """Raise ``ValueError`` unless ``value`` is one of ``allowed``."""
    allowed = tuple(allowed)
    if value not in allowed:
        raise ValueError(f"{name} must be one of {allowed}, got {value!r}")
    return value


def check_shape(name: str, array: np.ndarray, shape: Sequence[int]) -> np.ndarray:
    """Raise ``ValueError`` unless ``array.shape`` equals ``shape``."""
    if tuple(array.shape) != tuple(shape):
        raise ValueError(f"{name} must have shape {tuple(shape)}, got {array.shape}")
    return array


def nmse(estimate: np.ndarray, reference: np.ndarray) -> float:
    """Normalized mean squared error ``||est - ref||^2 / ||ref||^2``."""
    estimate = np.asarray(estimate, dtype=float)
    reference = np.asarray(reference, dtype=float)
    denom = float(np.sum(reference**2))
    if denom == 0.0:
        raise ValueError("reference signal has zero energy")
    return float(np.sum((estimate - reference) ** 2)) / denom


def nmse_db(estimate: np.ndarray, reference: np.ndarray) -> float:
    """NMSE expressed in decibels (more negative is better)."""
    value = nmse(estimate, reference)
    if value == 0.0:
        return float("-inf")
    return 10.0 * float(np.log10(value))


def hamming_distance(a: np.ndarray, b: np.ndarray) -> int:
    """Number of positions where binary vectors ``a`` and ``b`` differ."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return int(np.count_nonzero(a != b))


def normalized_hamming(a: np.ndarray, b: np.ndarray) -> float:
    """Hamming distance divided by the vector length (in [0, 1])."""
    a = np.asarray(a)
    if a.size == 0:
        raise ValueError("empty vectors have no normalized Hamming distance")
    return hamming_distance(a, b) / a.size
