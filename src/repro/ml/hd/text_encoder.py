"""HD text encoding with character n-grams (Fig. 8a pipeline).

The language-recognition encoder (Rahimi et al., ISLPED 2016) forms,
for every n-gram ``c_1 c_2 ... c_n`` in the text, the bound product::

    rho^{n-1}(H(c_1)) * ... * rho(H(c_{n-1})) * H(c_n)

(``*`` = XOR bind, ``rho`` = permutation) and bundles all n-gram
hypervectors into one text hypervector.  Bundling uses the exact
component counts with a majority threshold, which is equivalent to —
but much faster than — pairwise majority trees.
"""

from __future__ import annotations

import numpy as np

from repro._util import as_rng
from repro.ml.hd.hypervector import (
    NGRAM_CHUNK,
    bind,
    majority_from_counts,
    ngram_counts_from_rows,
    permute,
)
from repro.ml.hd.item_memory import ItemMemory

__all__ = ["TextNgramEncoder"]


class TextNgramEncoder:
    """Encode strings into hypervectors via permuted n-gram binding.

    Parameters
    ----------
    item_memory:
        Item memory over the character alphabet.
    ngram:
        n-gram order (the paper's language task uses 3-4).
    seed:
        RNG seed or generator for majority tie-breaking.

    The encoder keeps one ``(NGRAM_CHUNK, d)`` n-gram block that every
    count reuses, so one encoder must not count from two threads at
    once.
    """

    def __init__(
        self,
        item_memory: ItemMemory,
        ngram: int = 3,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if ngram < 1:
            raise ValueError("ngram must be >= 1")
        self.item_memory = item_memory
        self.ngram = ngram
        self._rng = as_rng(seed)
        self._block = np.empty((NGRAM_CHUNK, item_memory.d), dtype=np.uint8)

    @property
    def d(self) -> int:
        return self.item_memory.d

    def ngram_hypervector(self, gram: str) -> np.ndarray:
        """Bound hypervector of one n-gram."""
        if len(gram) != self.ngram:
            raise ValueError(f"expected a {self.ngram}-gram, got {gram!r}")
        result = None
        for offset, char in enumerate(gram):
            rotated = permute(self.item_memory[char], self.ngram - 1 - offset)
            result = rotated if result is None else bind(result, rotated)
        assert result is not None
        return result

    def ngram_counts(self, text: str) -> tuple[np.ndarray, int]:
        """Component-wise sum over all n-gram hypervectors of ``text``.

        Returns ``(counts, n_grams)``.  Keeping the integer counts —
        rather than the thresholded hypervector — preserves the n-gram
        statistics exactly, which is how the language-recognition
        prototypes are trained on a whole corpus stream.

        The accumulation is vectorized over text positions (one item
        gather per block of ``NGRAM_CHUNK`` positions, rotated XORs into
        the encoder's block, exact ``uint8`` block sums) and
        bit-identical to summing :meth:`ngram_hypervector` per position;
        memory stays O(NGRAM_CHUNK * d) however long the corpus stream
        is.
        """
        if len(text) < self.ngram:
            raise ValueError("text shorter than the n-gram order")
        n_grams = len(text) - self.ngram + 1
        counts = np.zeros(self.d, dtype=np.int64)
        for start in range(0, n_grams, NGRAM_CHUNK):
            stop = min(start + NGRAM_CHUNK, n_grams)
            piece = text[start : stop + self.ngram - 1]
            counts += ngram_counts_from_rows(
                self.item_memory.rows(piece), self.ngram, self._block
            )[0]
        return counts, n_grams

    def encode(self, text: str) -> np.ndarray:
        """Text hypervector: majority bundle over all n-gram vectors.

        Texts shorter than the n-gram order raise ``ValueError`` — there
        is nothing to encode.
        """
        counts, n_grams = self.ngram_counts(text)
        return majority_from_counts(counts, n_grams / 2.0, self._rng)
