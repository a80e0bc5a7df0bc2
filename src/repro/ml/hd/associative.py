"""Associative memory: training and nearest-prototype classification.

Fig. 8: "During training, the associative memory updates the learned
patterns with new hypervectors, while during classification it computes
distances between a query hypervector and learned patterns."

Training accumulates per-class component counts and thresholds them
into a binary prototype (the bundle of all training hypervectors of
that class), so prototypes can be updated incrementally.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from repro._util import as_rng, check_binary
from repro.ml.hd.hypervector import hamming_similarity, majority_from_counts

__all__ = ["AssociativeMemory"]


class AssociativeMemory:
    """Bundled class prototypes with Hamming-distance search.

    Parameters
    ----------
    d:
        Hypervector dimensionality.
    seed:
        RNG seed or generator for majority tie-breaking when
        prototypes are materialized.
    """

    def __init__(self, d: int, seed: int | np.random.Generator | None = None) -> None:
        if d < 1:
            raise ValueError("d must be >= 1")
        self.d = d
        self._rng = as_rng(seed)
        self._counts: dict[Hashable, np.ndarray] = {}
        self._totals: dict[Hashable, int] = {}
        # Materialized prototypes, cached so tie-bits are drawn once per
        # trained state: repeated classification is deterministic and
        # classify agrees with classify_batch.  Invalidated per label by
        # train/train_counts.
        self._prototype_cache: dict[Hashable, np.ndarray] = {}

    # -- training ------------------------------------------------------------
    def train(self, label: Hashable, hypervector: np.ndarray) -> None:
        """Accumulate one training hypervector into a class.

        A wrong shape or an entry other than 0/1 raises ``ValueError``
        before any count moves.
        """
        hypervector = np.asarray(hypervector)
        if hypervector.shape != (self.d,):
            raise ValueError(f"hypervector must have shape ({self.d},)")
        hypervector = check_binary("hypervector", hypervector)
        if label not in self._counts:
            self._counts[label] = np.zeros(self.d, dtype=np.int64)
            self._totals[label] = 0
        self._counts[label] += hypervector.astype(np.int64)
        self._totals[label] += 1
        self._prototype_cache.pop(label, None)

    def train_many(self, labels, hypervectors: np.ndarray) -> None:
        """Accumulate a labelled batch (one label per hypervector).

        A label-count mismatch or an entry other than 0/1 anywhere in
        the batch raises ``ValueError`` before the first vector is
        counted.
        """
        labels = list(labels)
        hypervectors = check_binary("hypervectors", hypervectors)
        if len(labels) != len(hypervectors):
            raise ValueError(
                f"got {len(hypervectors)} hypervectors but {len(labels)} labels"
            )
        for label, hv in zip(labels, hypervectors):
            self.train(label, hv)

    def train_counts(self, label: Hashable, counts: np.ndarray, total: int) -> None:
        """Accumulate raw bundle counts (``total`` constituent vectors).

        Used when the encoder exposes component counts (e.g. n-gram
        sums over a training stream): accumulating counts instead of
        already-thresholded hypervectors avoids the double majority
        quantization and matches how the paper's language prototypes
        are trained on whole corpora.
        """
        counts = np.asarray(counts)
        if counts.shape != (self.d,):
            raise ValueError(f"counts must have shape ({self.d},)")
        if total < 1:
            raise ValueError("total must be >= 1")
        if np.any(counts < 0) or np.any(counts > total):
            raise ValueError("counts must lie in [0, total]")
        if label not in self._counts:
            self._counts[label] = np.zeros(self.d, dtype=np.int64)
            self._totals[label] = 0
        self._counts[label] += counts.astype(np.int64)
        self._totals[label] += total
        self._prototype_cache.pop(label, None)

    # -- prototypes ------------------------------------------------------------
    @property
    def labels(self) -> list[Hashable]:
        return list(self._counts)

    @property
    def n_classes(self) -> int:
        return len(self._counts)

    def prototype(self, label: Hashable) -> np.ndarray:
        """Majority-bundled binary prototype of one class.

        Tie components are resolved at random *once* per trained state
        and cached, so every subsequent read — ``classify``,
        ``similarities``, ``classify_batch``, a CIM mirror — sees the
        same bits until the class is trained again.
        """
        if label not in self._counts:
            raise KeyError(f"unknown class {label!r}")
        cached = self._prototype_cache.get(label)
        if cached is None:
            cached = majority_from_counts(
                self._counts[label], self._totals[label] / 2.0, self._rng
            )
            self._prototype_cache[label] = cached
        return cached.copy()

    def prototype_matrix(self) -> tuple[list[Hashable], np.ndarray]:
        """All prototypes stacked, with their label order."""
        if not self._counts:
            raise ValueError("associative memory is untrained")
        labels = self.labels
        matrix = np.stack([self.prototype(label) for label in labels])
        return labels, matrix

    # -- classification -------------------------------------------------------
    def similarities(self, query: np.ndarray) -> dict[Hashable, float]:
        """Hamming similarity of a query to every class prototype.

        A wrong shape or an entry other than 0/1 raises ``ValueError``.
        """
        query = np.asarray(query)
        if query.shape != (self.d,):
            raise ValueError(f"query must have shape ({self.d},)")
        query = check_binary("query", query)
        return {
            label: hamming_similarity(query, self.prototype(label))
            for label in self._counts
        }

    def classify(self, query: np.ndarray) -> Hashable:
        """Label of the most similar prototype."""
        scores = self.similarities(query)
        if not scores:
            raise ValueError("associative memory is untrained")
        return max(scores, key=scores.get)

    def classify_batch(self, queries: np.ndarray) -> list[Hashable]:
        """Winning label per query row.

        Exactly equivalent to per-query :meth:`classify`: both read the
        cached prototypes, whose tie-bits are fixed per trained state,
        and both reject an entry other than 0/1, on which a Hamming
        distance and a 0/1 match count disagree.
        """
        queries = np.asarray(queries)
        if queries.ndim != 2 or queries.shape[1] != self.d:
            raise ValueError(f"queries must have shape (B, {self.d}), got {queries.shape}")
        q = check_binary("queries", queries).astype(np.float64)
        labels, prototypes = self.prototype_matrix()
        # Match counts via two 0/1 matmuls keep memory at
        # O(B * classes) instead of a (B, classes, d) broadcast.
        p = prototypes.astype(np.float64)
        matches = q @ p.T + (1.0 - q) @ (1.0 - p.T)
        winners = np.argmax(matches, axis=1)
        return [labels[int(index)] for index in winners]

    def accuracy(self, queries: np.ndarray, labels) -> float:
        """Fraction of queries classified as their true label."""
        queries, labels = np.asarray(queries), list(labels)
        if len(labels) == 0:
            raise ValueError("no queries supplied")
        if len(queries) != len(labels):
            raise ValueError(f"got {len(queries)} queries but {len(labels)} labels")
        predicted = self.classify_batch(queries)
        hits = sum(p == label for p, label in zip(predicted, labels))
        return hits / len(labels)
