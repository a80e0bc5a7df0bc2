"""Binary hypervectors and the MAP operations.

Sec. IV.B.1: hypervectors are "d-dimensional holographic
(pseudo)random vectors with independent and identically distributed
components"; with d in the thousands there exist very many
quasi-orthogonal hypervectors.  The MAP operations are:

* **Multiplication** — component-wise XOR (addition modulo 2);
* **Addition** — component-wise majority, "with ties broken at random";
* **Permutation** — component shuffle (cyclic shift here, the standard
  choice that is cheap in hardware).

All operations are fixed-width: the result is again a d-bit vector.
"""

from __future__ import annotations

import numpy as np

from repro._util import as_rng, check_binary, normalized_hamming

__all__ = [
    "random_hypervector",
    "bind",
    "bundle",
    "majority_from_counts",
    "ngram_counts_from_rows",
    "permute",
    "hamming_similarity",
]


def majority_from_counts(
    counts: np.ndarray, half: float, rng: np.random.Generator
) -> np.ndarray:
    """Majority threshold with the paper's random tie-breaking.

    Components with ``counts > half`` set, components equal to ``half``
    drawn uniformly from ``rng`` ("with ties broken at random").  The
    single definition of the tie rule shared by :func:`bundle`, the
    batched encoders and the associative-memory prototypes; works on
    any count shape (boolean indexing flattens row-major).
    """
    result = (counts > half).astype(np.uint8)
    ties = counts == half
    if np.any(ties):
        result[ties] = rng.integers(0, 2, size=int(ties.sum()), dtype=np.uint8)
    return result


NGRAM_CHUNK = 256
"""Positions per n-gram accumulation block.  A ``(256, d)`` uint8 block
(1 MB at d = 4096) stays in cache, and its column sums fit ``uint16``
exactly (256 * 255 < 2**16)."""


def ngram_counts_from_rows(rows: np.ndarray, ngram: int) -> tuple[np.ndarray, int]:
    """Component sum of all permuted-bound n-gram vectors of a sequence.

    ``rows`` stacks one binary hypervector per position, shape
    ``(L, d)``; the n-gram at position ``s`` is
    ``XOR_o roll(rows[s + o], ngram-1-o)`` (the text/biosignal encoding
    scheme).  Returns ``(counts, n_grams)``.  Positions accumulate in
    blocks of :data:`NGRAM_CHUNK` grams: each offset's rotation is
    written into one preallocated block as two slice operations (a copy
    for the first offset, an in-place XOR for the rest), and each block
    is column-summed in ``uint16``.  Memory stays O(NGRAM_CHUNK * d)
    however long the stream is.
    """
    if ngram < 1:
        raise ValueError("ngram must be >= 1")
    rows = np.asarray(rows, dtype=np.uint8)
    if rows.ndim != 2 or rows.shape[0] < ngram or rows.shape[1] < 1:
        raise ValueError("rows must stack at least ngram hypervectors")
    n_grams, d = rows.shape[0] - ngram + 1, rows.shape[1]
    counts = np.zeros(d, dtype=np.int64)
    block = np.empty((min(NGRAM_CHUNK, n_grams), d), dtype=np.uint8)
    for start in range(0, n_grams, NGRAM_CHUNK):
        bound = block[: min(NGRAM_CHUNK, n_grams - start)]
        for offset in range(ngram):
            # roll(source, shift, axis=1), written in two column slices.
            shift = (ngram - 1 - offset) % d
            source = rows[start + offset : start + offset + len(bound)]
            if offset == 0:
                bound[:, shift:] = source[:, : d - shift]
                bound[:, :shift] = source[:, d - shift :]
            else:
                bound[:, shift:] ^= source[:, : d - shift]
                bound[:, :shift] ^= source[:, d - shift :]
        counts += bound.sum(axis=0, dtype=np.uint16)
    return counts, n_grams


def random_hypervector(
    d: int, seed: int | np.random.Generator | None = None
) -> np.ndarray:
    """An i.i.d. uniform binary hypervector of dimension ``d``."""
    if d < 1:
        raise ValueError("d must be >= 1")
    rng = as_rng(seed)
    return rng.integers(0, 2, size=d, dtype=np.uint8)


def bind(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """MAP multiplication: component-wise XOR.

    Binding is an involution (``bind(bind(a, b), b) == a``) and maps
    inputs to a vector quasi-orthogonal to both.
    """
    a = check_binary("a", a)
    b = check_binary("b", b)
    if a.shape != b.shape:
        raise ValueError("hypervectors must share a shape")
    return np.bitwise_xor(a, b)


def bundle(
    hypervectors: np.ndarray | list[np.ndarray],
    seed: int | np.random.Generator | None = None,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """MAP addition: component-wise (optionally weighted) majority.

    Ties — possible when the (weighted) count is exactly half — are
    broken at random, as the paper specifies.  The result is maximally
    similar to each input, which is what makes bundling the HD
    aggregation primitive.
    """
    stacked = np.asarray(hypervectors, dtype=np.float64)
    if stacked.ndim != 2:
        raise ValueError("bundle expects a stack of hypervectors")
    if len(stacked) < 1:
        raise ValueError("bundle needs at least one hypervector")
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (len(stacked),):
            raise ValueError("weights must have one entry per hypervector")
        if np.any(weights < 0):
            raise ValueError("weights must be non-negative")
        totals = weights @ stacked
        half = weights.sum() / 2.0
    else:
        totals = stacked.sum(axis=0)
        half = len(stacked) / 2.0
    return majority_from_counts(totals, half, as_rng(seed))


def permute(vector: np.ndarray, shifts: int = 1) -> np.ndarray:
    """MAP permutation: cyclic shift by ``shifts`` positions."""
    return np.roll(check_binary("vector", vector), shifts)


def hamming_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Similarity ``1 - Hamming distance / d`` in [0, 1].

    Unrelated random hypervectors score ~0.5; identical ones score 1.
    """
    return 1.0 - normalized_hamming(a, b)
