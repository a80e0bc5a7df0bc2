"""CIM execution of HD computing (Sec. IV.B.2).

"The CIM primitives used for HD computing implementation are
dot-product and bitwise operations.  The dot-product is performed using
binary input values, binary memristor states, and analog output.  The
bitwise operations are performed using binary input values, binary
memristor states, and binary output.  The memristor values are written
only once before the execution of the HD algorithm and are never
modified again."

* :func:`cim_bind` — XOR binding in Scouting Logic.
* :func:`cim_bundle` — majority addition as a single multi-row read
  with the reference placed at the majority level.
* :class:`CimAssociativeMemory` — Hamming-distance search as an analog
  dot-product: prototypes and their complements are stored in two
  binary-programmed PCM arrays, and the summed column currents count
  the *matching* components exactly.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from repro._util import as_rng, check_binary
from repro.crossbar import Adc, CrossbarArray
from repro.devices import BinaryMemristor, PcmDevice
from repro.logic import ScoutingLogic, SenseAmplifier
from repro.ml.hd.associative import AssociativeMemory

__all__ = ["CimAssociativeMemory", "cim_bind", "cim_bundle"]


def cim_bind(
    a: np.ndarray,
    b: np.ndarray,
    device: BinaryMemristor | None = None,
    seed: int | np.random.Generator | None = None,
) -> np.ndarray:
    """XOR binding executed as one Scouting-Logic instruction."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("operands must be 1-D hypervectors of equal length")
    scouting = ScoutingLogic(device, seed=seed)
    return scouting.compute_on_bits("xor", np.stack([a, b]))


def cim_bundle(
    hypervectors: np.ndarray,
    device: BinaryMemristor | None = None,
    v_read: float = 0.2,
    seed: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Majority addition as a single multi-row array read.

    Activating all ``k`` rows makes each column current proportional to
    its set-bit count; a reference between the ``floor(k/2)`` and
    ``floor(k/2) + 1`` levels senses the strict majority.  Ties (even
    ``k``, exactly half the rows set) fall below the reference and
    resolve to 0 — a deterministic hardware tie-break, in contrast to
    the random tie-break of the software bundle.
    """
    hypervectors = np.asarray(hypervectors, dtype=np.uint8)
    if hypervectors.ndim != 2 or hypervectors.shape[0] < 2:
        raise ValueError("bundle expects a (k >= 2, d) stack")
    rng = as_rng(seed)
    scouting = ScoutingLogic(device, v_read=v_read, seed=rng)
    k = hypervectors.shape[0]
    majority = k // 2
    reference = float(
        np.sqrt(
            scouting.level_current(majority, k)
            * scouting.level_current(majority + 1, k)
        )
    )
    amplifier = SenseAmplifier((reference,))
    resistances = scouting.device.program(hypervectors, seed=rng)
    currents = scouting.column_currents(resistances)
    return amplifier.above(currents)


class CimAssociativeMemory:
    """Associative-memory search on binary-programmed PCM crossbars.

    The prototypes ``P`` (classes x d) are stored transposed in one
    array and their complements in a second; for a binary query ``q``
    the summed currents of column ``c`` count
    ``q . p_c + (1-q) . (1-p_c)`` — the number of *matching*
    components, i.e. ``d`` minus the Hamming distance.  The class with
    the largest current wins, which is exactly the software
    associative-memory decision, now subject to device and ADC noise.

    Parameters
    ----------
    memory:
        A trained :class:`AssociativeMemory` supplying the prototypes.
    device:
        PCM device model; prototype bits program to ``g_max`` / ``g_min``.
    adc_bits:
        Readout resolution (``None`` for ideal).
    v_read:
        Read voltage for queries.
    seed:
        RNG seed or generator.
    """

    def __init__(
        self,
        memory: AssociativeMemory,
        device: PcmDevice | None = None,
        adc_bits: int | None = 8,
        v_read: float = 0.2,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        rng = as_rng(seed)
        self.device = device if device is not None else PcmDevice()
        self.v_read = v_read
        self.labels, prototypes = memory.prototype_matrix()
        self.d = prototypes.shape[1]
        g_on, g_off = self.device.g_max, self.device.g_min
        stored = prototypes.T  # rows = components, cols = classes
        self.array_direct = CrossbarArray(
            np.where(stored == 1, g_on, g_off), device=self.device, seed=rng
        )
        self.array_complement = CrossbarArray(
            np.where(stored == 0, g_on, g_off), device=self.device, seed=rng
        )
        full_scale = 1.1 * self.d * v_read * g_on
        self.adc = Adc(bits=adc_bits, full_scale=full_scale)
        self.n_queries = 0

    def match_currents(self, query: np.ndarray) -> np.ndarray:
        """Per-class summed currents (monotone in match count): a
        one-row :meth:`match_currents_batch`."""
        query = np.asarray(query)
        if query.shape != (self.d,):
            raise ValueError(f"query must have shape ({self.d},)")
        return self.match_currents_batch(query[None, :])[0]

    def match_currents_batch(self, queries: np.ndarray) -> np.ndarray:
        """Per-class currents for a batch of queries, shape ``(B, classes)``.

        The queries drive both prototype arrays as one voltage block
        (one query per column), so the whole batch is a single pair of
        batched array reads instead of ``B`` sequential searches.  A
        wrong shape, an empty batch or an entry other than 0/1 raises
        ``ValueError`` before any array read or query is counted (cast
        to bytes, a 2 or a -1 would drive a line at 255 read voltages).
        """
        queries = np.asarray(queries)
        if queries.ndim != 2 or queries.shape[1] != self.d:
            raise ValueError(f"queries must have shape (B, {self.d}), got {queries.shape}")
        if queries.shape[0] == 0:
            raise ValueError("batch must contain at least one query")
        queries = check_binary("queries", queries)
        voltages = queries.T.astype(float) * self.v_read  # (d, B)
        complement = (1 - queries.T).astype(float) * self.v_read
        currents = self.array_direct.mvm(voltages) + self.array_complement.mvm(
            complement
        )
        self.n_queries += queries.shape[0]
        return self.adc.quantize(currents).T

    def classify(self, query: np.ndarray) -> Hashable:
        """Label of the class with the largest match current."""
        currents = self.match_currents(query)
        return self.labels[int(np.argmax(currents))]

    def classify_batch(self, queries: np.ndarray) -> list[Hashable]:
        """Winning label per query, via one batched search."""
        winners = np.argmax(self.match_currents_batch(queries), axis=1)
        return [self.labels[int(index)] for index in winners]

    # Scored as the software memory scores, over this memory's
    # classify_batch: the label-count check runs before any array read.
    accuracy = AssociativeMemory.accuracy
