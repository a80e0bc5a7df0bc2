"""Item memories: the HD mapping stage of Fig. 8.

The *item memory* assigns every discrete symbol (letter, channel id,
...) an i.i.d. random hypervector — quasi-orthogonal by construction.
The *continuous* (level) item memory covers an interval with a chain of
hypervectors whose mutual similarity decreases linearly with level
distance, so nearby signal amplitudes map to similar hypervectors.
Both are written once before execution and never modified — exactly the
property that lets the CIM implementation keep them in non-volatile
memristive arrays (Sec. IV.B.2).
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, Sequence

import numpy as np

from repro._util import as_rng
from repro.ml.hd.hypervector import random_hypervector

__all__ = ["ItemMemory", "LevelItemMemory"]


class ItemMemory:
    """Random hypervectors for a fixed symbol set.

    Parameters
    ----------
    symbols:
        The discrete symbol alphabet (letters, channel ids, ...).
    d:
        Hypervector dimensionality.
    seed:
        RNG seed or generator; fixes the mapping.
    """

    def __init__(
        self,
        symbols: Iterable[Hashable],
        d: int,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        symbols = list(symbols)
        if not symbols:
            raise ValueError("symbol set must not be empty")
        if len(set(symbols)) != len(symbols):
            raise ValueError("symbols must be unique")
        if d < 1:
            raise ValueError("d must be >= 1")
        rng = as_rng(seed)
        self.d = d
        self._index = {symbol: i for i, symbol in enumerate(symbols)}
        self._matrix = np.stack(
            [random_hypervector(d, seed=rng) for _ in symbols]
        )

    @property
    def symbols(self) -> list[Hashable]:
        return list(self._index)

    @property
    def matrix(self) -> np.ndarray:
        """All item hypervectors, shape ``(n_symbols, d)``."""
        return self._matrix.copy()

    def __contains__(self, symbol: Hashable) -> bool:
        return symbol in self._index

    def __getitem__(self, symbol: Hashable) -> np.ndarray:
        try:
            return self._matrix[self._index[symbol]]
        except KeyError:
            raise KeyError(f"unknown symbol {symbol!r}") from None

    def rows(self, symbols: Iterable[Hashable]) -> np.ndarray:
        """Stacked item hypervectors of a symbol sequence, shape (L, d).

        One vectorized gather instead of L ``__getitem__`` calls — the
        lookup stage of the batched encoders.
        """
        try:
            indices = [self._index[symbol] for symbol in symbols]
        except KeyError as error:
            raise KeyError(f"unknown symbol {error.args[0]!r}") from None
        return self._matrix[indices]

    def __len__(self) -> int:
        return len(self._index)


class LevelItemMemory:
    """Linearly correlated hypervectors for quantized analog values.

    Built by starting from a random hypervector and flipping a fresh
    ``d / (2 (L-1))`` subset of components per level, so that
    ``similarity(level_0, level_{L-1}) ~= 0.5`` (quasi-orthogonal ends)
    and similarity decreases linearly in between.
    """

    def __init__(
        self,
        n_levels: int,
        d: int,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if n_levels < 2:
            raise ValueError("need at least two levels")
        if d < 2 * (n_levels - 1):
            raise ValueError("d too small for the requested level count")
        rng = as_rng(seed)
        self.d = d
        self.n_levels = n_levels
        flips_per_level = d // (2 * (n_levels - 1))
        order = rng.permutation(d)
        vectors = [random_hypervector(d, seed=rng)]
        cursor = 0
        for _ in range(n_levels - 1):
            nxt = vectors[-1].copy()
            flip = order[cursor : cursor + flips_per_level]
            nxt[flip] ^= 1
            vectors.append(nxt)
            cursor += flips_per_level
        self._matrix = np.stack(vectors)

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix.copy()

    def level(self, index: int) -> np.ndarray:
        if not 0 <= index < self.n_levels:
            raise IndexError(f"level must lie in [0, {self.n_levels})")
        return self._matrix[index]

    def quantize(self, value: float) -> int:
        """Map a value in [0, 1] to its level index (clipped).

        NaN or +-inf raises ``ValueError``: neither has a level.
        """
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"value must be finite; got {value}")
        clipped = min(max(value, 0.0), 1.0)
        return min(int(clipped * self.n_levels), self.n_levels - 1)

    def for_value(self, value: float) -> np.ndarray:
        """Hypervector of the level containing ``value``."""
        return self._matrix[self.quantize(value)]

    def quantize_values(self, values: Sequence[float]) -> np.ndarray:
        """Vectorized :meth:`quantize` over an array of values."""
        values = np.asarray(values, dtype=float)
        if not np.isfinite(values).all():
            raise ValueError("values must be finite")
        clipped = np.clip(values, 0.0, 1.0)
        return np.minimum(
            (clipped * self.n_levels).astype(np.intp), self.n_levels - 1
        )

    def for_values(self, values: Sequence[float]) -> np.ndarray:
        """Stacked hypervectors for a sequence of values."""
        return self._matrix[self.quantize_values(values)]
