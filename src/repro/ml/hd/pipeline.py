"""End-to-end HD classifiers: the two Fig. 8 applications.

Both follow the same three-stage hardware construct the paper
describes: (1) mapping to HD space through item memories, (2) encoding
with MAP operations, (3) associative-memory training/classification —
"it is possible to build a CIM engine based on these operations to
cover a variety of tasks."
"""

from __future__ import annotations

import numpy as np

from repro._util import as_rng, check_in
from repro.devices import PcmDevice
from repro.ml.hd.associative import AssociativeMemory
from repro.ml.hd.biosignal_encoder import BiosignalEncoder
from repro.ml.hd.cim import CimAssociativeMemory
from repro.ml.hd.item_memory import ItemMemory
from repro.ml.hd.text_encoder import TextNgramEncoder
from repro.workloads.languages import ALPHABET

__all__ = ["LanguageRecognizer", "GestureRecognizer"]

_BACKENDS = ("exact", "cim")


def _paired(samples, labels) -> tuple[list, list]:
    """``samples`` and ``labels`` as lists; ``ValueError`` unless their
    lengths match (``zip`` alone would drop the surplus silently)."""
    samples, labels = list(samples), list(labels)
    if len(samples) != len(labels):
        raise ValueError(f"got {len(samples)} samples but {len(labels)} labels")
    return samples, labels


class _HdClassifier:
    """Shared train/evaluate logic over an encoder + associative memory."""

    def __init__(self, d: int, seed: int | np.random.Generator | None) -> None:
        self._rng = as_rng(seed)
        self.d = d
        self.memory = AssociativeMemory(d, seed=self._rng)
        self._cim_memory: CimAssociativeMemory | None = None

    def _encode(self, sample) -> np.ndarray:
        raise NotImplementedError

    def _encode_counts(self, sample) -> tuple[np.ndarray, int] | None:
        """Raw bundle counts when the encoder supports them (else None)."""
        return None

    def fit(self, samples, labels) -> "_HdClassifier":
        """Encode and accumulate every labelled training sample.

        Encoders that expose raw component counts train the prototypes
        at count level (single majority at classification time), which
        preserves the training statistics exactly.
        """
        samples, labels = _paired(samples, labels)
        for sample, label in zip(samples, labels):
            counts = self._encode_counts(sample)
            if counts is None:
                self.memory.train(label, self._encode(sample))
            else:
                self.memory.train_counts(label, counts[0], counts[1])
        self._cim_memory = None  # prototypes changed; rebuild lazily
        return self

    def _backend_memory(
        self, backend: str, device: PcmDevice | None, adc_bits: int | None
    ):
        check_in("backend", backend, _BACKENDS)
        if backend == "exact":
            return self.memory
        if self._cim_memory is None:
            self._cim_memory = CimAssociativeMemory(
                self.memory, device=device, adc_bits=adc_bits, seed=self._rng
            )
        return self._cim_memory

    def predict(
        self,
        samples,
        backend: str = "exact",
        device: PcmDevice | None = None,
        adc_bits: int | None = 8,
    ) -> list:
        """Classify samples on the chosen execution backend.

        All samples are encoded up front and classified as one batched
        associative-memory search (a single pair of array reads on the
        CIM backend), which is label-equivalent to the former per-sample
        ``classify`` loop now that prototype tie-bits are cached.
        """
        memory = self._backend_memory(backend, device, adc_bits)
        samples = list(samples)
        if not samples:
            return []
        queries = np.stack([self._encode(sample) for sample in samples])
        return memory.classify_batch(queries)

    def evaluate(
        self,
        samples,
        labels,
        backend: str = "exact",
        device: PcmDevice | None = None,
        adc_bits: int | None = 8,
    ) -> float:
        """Classification accuracy on the chosen backend."""
        samples, labels = _paired(samples, labels)
        if not labels:
            raise ValueError("no samples supplied")
        predictions = self.predict(
            samples, backend=backend, device=device, adc_bits=adc_bits
        )
        hits = sum(p == t for p, t in zip(predictions, labels))
        return hits / len(labels)


class LanguageRecognizer(_HdClassifier):
    """HD language identification from character n-grams (Fig. 8a).

    Parameters
    ----------
    d:
        Hypervector dimensionality (the paper: "in the thousands").
    ngram:
        Character n-gram order.
    alphabet:
        Character set of the item memory.
    seed:
        RNG seed; fixes item memory and tie-breaks.
    """

    def __init__(
        self,
        d: int = 4096,
        ngram: int = 3,
        alphabet: str = ALPHABET,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        super().__init__(d, seed)
        item_memory = ItemMemory(alphabet, d, seed=self._rng)
        self.encoder = TextNgramEncoder(item_memory, ngram=ngram, seed=self._rng)

    def _encode(self, sample: str) -> np.ndarray:
        return self.encoder.encode(sample)

    def _encode_counts(self, sample: str) -> tuple[np.ndarray, int]:
        return self.encoder.ngram_counts(sample)


class GestureRecognizer(_HdClassifier):
    """HD gesture classification from multi-channel EMG (Fig. 8b)."""

    def __init__(
        self,
        n_channels: int = 4,
        d: int = 4096,
        n_levels: int = 16,
        ngram: int = 3,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        super().__init__(d, seed)
        self.encoder = BiosignalEncoder(
            n_channels=n_channels,
            d=d,
            n_levels=n_levels,
            ngram=ngram,
            seed=self._rng,
        )

    def _encode(self, sample: np.ndarray) -> np.ndarray:
        return self.encoder.encode(sample)
