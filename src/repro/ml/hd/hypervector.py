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

import math

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
    drawn uniformly from ``rng`` ("with ties broken at random"), one
    ``rng.integers`` draw per tie in row-major order.  The single
    definition of the tie rule shared by :func:`bundle`, the batched
    encoders and the associative-memory prototypes; works on any count
    shape and returns a C-order uint8 array.

    Integer counts compare with the integer threshold ``floor(half)``
    in their own dtype, which gives the same bits as a float compare
    (ties exist only when ``half`` is a whole number); float counts,
    which only :func:`bundle` passes, compare as floats.  The draws are
    written through flat indices into the C-order result, so an
    F-ordered or transposed count array gets the same bits and the same
    draws as its C-order copy.
    """
    threshold = half
    if counts.dtype.kind in "iu" and math.isfinite(half):
        threshold = math.floor(half)
    result = np.greater(counts, threshold, out=np.empty(counts.shape, dtype=bool))
    result = result.view(np.uint8)
    if threshold == half:
        ties = np.flatnonzero(counts == threshold)
        if ties.size:
            result.reshape(-1)[ties] = rng.integers(
                0, 2, size=ties.size, dtype=np.uint8
            )
    return result


NGRAM_CHUNK = 255
"""Positions per n-gram accumulation block.  Each block row is one
bound n-gram, whose components are 0 or 1, so the column sums of a full
block fit ``uint8`` exactly; a ``(255, d)`` uint8 block (1 MB at
d = 4096) stays in cache."""


def _xor_rolled(
    out: np.ndarray, a: np.ndarray, shift_a: int, b: np.ndarray, shift_b: int
) -> None:
    """``out = roll(a, shift_a, axis=1) ^ roll(b, shift_b, axis=1)``
    for shifts in ``[0, d)``, written in the column slices between the
    shifts, where neither source wraps.  ``a`` may be ``out`` itself
    (shift 0): an in-place XOR of one rotation."""
    d = out.shape[1]
    cuts = sorted({0, shift_a, shift_b, d})
    for low, high in zip(cuts, cuts[1:]):
        start_a, start_b = (low - shift_a) % d, (low - shift_b) % d
        np.bitwise_xor(
            a[:, start_a : start_a + high - low],
            b[:, start_b : start_b + high - low],
            out=out[:, low:high],
        )


def ngram_counts_from_rows(
    rows: np.ndarray, ngram: int, block: np.ndarray | None = None
) -> tuple[np.ndarray, int]:
    """Component sum of all permuted-bound n-gram vectors of a sequence.

    ``rows`` stacks one binary hypervector per position, shape
    ``(L, d)``; the n-gram at position ``s`` is
    ``XOR_o roll(rows[s + o], ngram-1-o)`` (the text/biosignal encoding
    scheme).  Returns ``(counts, n_grams)``.  Positions accumulate in
    blocks of :data:`NGRAM_CHUNK` grams: the rotations of the first two
    offsets are XORed straight into the block, each further offset's
    rotation is XORed in place, all in column slices, and each block is
    column-summed in ``uint8``.  Memory stays O(NGRAM_CHUNK * d) however
    long the stream is.

    ``block`` is the caller's ``(NGRAM_CHUNK, d)`` uint8 scratch,
    overwritten and reused across calls, as each encoder keeps one: a
    fresh 1 MB block page-faults or not depending on what the process
    freed before.  ``None`` allocates one for this call.
    """
    if ngram < 1:
        raise ValueError("ngram must be >= 1")
    rows = np.asarray(rows, dtype=np.uint8)
    if rows.ndim != 2 or rows.shape[0] < ngram or rows.shape[1] < 1:
        raise ValueError("rows must stack at least ngram hypervectors")
    n_grams, d = rows.shape[0] - ngram + 1, rows.shape[1]
    if block is None:
        block = np.empty((min(NGRAM_CHUNK, n_grams), d), dtype=np.uint8)
    elif block.shape != (NGRAM_CHUNK, d) or block.dtype != np.uint8:
        raise ValueError(f"block must be a ({NGRAM_CHUNK}, {d}) uint8 array")
    counts = np.zeros(d, dtype=np.int64)
    for start in range(0, n_grams, NGRAM_CHUNK):
        bound = block[: min(NGRAM_CHUNK, n_grams - start)]
        sources = [
            (rows[start + offset : start + offset + len(bound)],
             (ngram - 1 - offset) % d)
            for offset in range(ngram)
        ]
        if ngram == 1:
            np.copyto(bound, sources[0][0])
        else:
            _xor_rolled(bound, *sources[0], *sources[1])
        for source, shift in sources[2:]:
            _xor_rolled(bound, bound, 0, source, shift)
        counts += bound.sum(axis=0, dtype=np.uint8)
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
