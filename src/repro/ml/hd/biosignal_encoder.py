"""HD biosignal encoding: the Fig. 8(b) multi-channel pipeline.

Each time step of a multi-channel window becomes a *spatial* record
hypervector: the bundle over channels of ``H(channel) * H(level)``
(bind of the channel's item hypervector with the continuous-item-memory
hypervector of its amplitude).  Consecutive spatial hypervectors are
then combined with the same permuted n-gram scheme used for text, and
the window hypervector is the bundle over all temporal n-grams — the
construction used for EMG/EEG/ECoG in the paper's references [27-29].
"""

from __future__ import annotations

import numpy as np

from repro._util import as_rng
from repro.ml.hd.hypervector import (
    NGRAM_CHUNK,
    majority_from_counts,
    ngram_counts_from_rows,
)
from repro.ml.hd.item_memory import ItemMemory, LevelItemMemory

__all__ = ["BiosignalEncoder"]


class BiosignalEncoder:
    """Encode ``(time, channels)`` windows into hypervectors.

    Parameters
    ----------
    n_channels:
        Electrode count.
    d:
        Hypervector dimensionality.
    n_levels:
        Amplitude quantization levels for the continuous item memory.
    ngram:
        Temporal n-gram order.
    seed:
        RNG seed; fixes both item memories and tie-breaking.

    Amplitudes must be finite: NaN or +-inf raises ``ValueError``
    before any gather or tie draw.  The encoder keeps one
    ``(NGRAM_CHUNK, d)`` n-gram block that every window reuses, so one
    encoder must not encode from two threads at once.
    """

    def __init__(
        self,
        n_channels: int,
        d: int = 4096,
        n_levels: int = 16,
        ngram: int = 3,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if n_channels < 1:
            raise ValueError("n_channels must be >= 1")
        if ngram < 1:
            raise ValueError("ngram must be >= 1")
        rng = as_rng(seed)
        self.d = d
        self.ngram = ngram
        self.n_channels = n_channels
        self.channel_memory = ItemMemory(range(n_channels), d, seed=rng)
        self.level_memory = LevelItemMemory(n_levels, d, seed=rng)
        self._rng = rng
        self._block = np.empty((NGRAM_CHUNK, d), dtype=np.uint8)

    def _checked(self, window: np.ndarray) -> np.ndarray:
        """``window`` as a float ``(time, n_channels)`` array of finite
        amplitudes."""
        window = np.asarray(window, dtype=float)
        if window.ndim != 2 or window.shape[1] != self.n_channels:
            raise ValueError(
                f"window must be (time, {self.n_channels}); got {window.shape}"
            )
        if not np.isfinite(window).all():
            raise ValueError("window amplitudes must be finite")
        return window

    def spatial_hypervector(self, sample: np.ndarray) -> np.ndarray:
        """Record hypervector of one time step (one value per channel)."""
        sample = np.asarray(sample, dtype=float)
        if sample.shape != (self.n_channels,):
            raise ValueError(f"sample must have shape ({self.n_channels},)")
        return self.spatial_hypervectors(sample[None, :])[0]

    def spatial_hypervectors(self, window: np.ndarray) -> np.ndarray:
        """Record hypervectors of every time step at once, shape (T, d).

        One level-memory gather and one XOR over the full
        ``(T, channels, d)`` block replace the former per-step
        bind-and-bundle loop; the channel majority (random tie-breaks,
        as the paper specifies) is taken per time step on the block
        summed in the narrowest integer type that holds ``n_channels``.
        """
        window = self._checked(window)
        level_hvs = self.level_memory.for_values(window.ravel()).reshape(
            window.shape[0], self.n_channels, self.d
        )
        channel_hvs = self.channel_memory.rows(range(self.n_channels))
        totals = np.bitwise_xor(level_hvs, channel_hvs[None, :, :]).sum(
            axis=1, dtype=np.min_scalar_type(self.n_channels)
        )
        return majority_from_counts(totals, self.n_channels / 2.0, self._rng)

    def window_counts(self, window: np.ndarray) -> tuple[np.ndarray, int]:
        """Temporal n-gram count accumulation, vectorized over the window.

        Returns ``(counts, n_grams)`` like
        :meth:`TextNgramEncoder.ngram_counts`: the component-wise sum of
        all permuted-bound temporal n-gram hypervectors, computed by
        :func:`ngram_counts_from_rows` over the ``(T, d)`` spatial block
        (the same n-gram path as text), in the encoder's block.
        """
        window = self._checked(window)
        if window.shape[0] < self.ngram:
            raise ValueError("window shorter than the temporal n-gram order")
        return ngram_counts_from_rows(
            self.spatial_hypervectors(window), self.ngram, self._block
        )

    def encode(self, window: np.ndarray) -> np.ndarray:
        """Window hypervector for a ``(time, channels)`` array."""
        counts, n_grams = self.window_counts(window)
        return majority_from_counts(counts, n_grams / 2.0, self._rng)
