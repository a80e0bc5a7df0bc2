"""Tests of the CIM execution of HD computing (Sec. IV.B.2)."""

import numpy as np
import pytest

from repro.devices import BinaryMemristor, PcmDevice
from repro.ml.hd import (
    AssociativeMemory,
    CimAssociativeMemory,
    bundle,
    cim_bind,
    cim_bundle,
    random_hypervector,
)


class TestCimBind:
    def test_matches_xor(self, rng):
        a = rng.integers(0, 2, 512, dtype=np.uint8)
        b = rng.integers(0, 2, 512, dtype=np.uint8)
        assert np.array_equal(cim_bind(a, b, seed=0), a ^ b)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            cim_bind(np.zeros(4, dtype=np.uint8), np.zeros(5, dtype=np.uint8))


class TestCimBundle:
    def test_odd_stack_matches_software_majority(self, rng):
        hvs = rng.integers(0, 2, (5, 1024), dtype=np.uint8)
        software = bundle(hvs, seed=0)
        hardware = cim_bundle(hvs, seed=1)
        # Odd k has no ties, so both must agree exactly.
        assert np.array_equal(software, hardware)

    def test_even_stack_ties_resolve_to_zero(self):
        hvs = np.array([[1, 0], [0, 1]], dtype=np.uint8)  # every column tied
        device = BinaryMemristor(variability=0.0, read_noise=0.0)
        assert np.array_equal(cim_bundle(hvs, device=device, seed=0), [0, 0])

    def test_stack_validation(self):
        with pytest.raises(ValueError):
            cim_bundle(np.zeros((1, 8), dtype=np.uint8))


class TestCimAssociativeMemory:
    @pytest.fixture
    def trained(self, rng):
        memory = AssociativeMemory(d=1024, seed=0)
        self_protos = {}
        for label in range(4):
            base = random_hypervector(1024, seed=rng)
            self_protos[label] = base
            for _ in range(3):
                noisy = base.copy()
                flip = rng.choice(1024, 80, replace=False)
                noisy[flip] ^= 1
                memory.train(label, noisy)
        return memory, self_protos

    def test_currents_count_matches(self, trained, rng):
        """Direct + complement currents are monotone in match count."""
        memory, _ = trained
        cim = CimAssociativeMemory(
            memory, device=PcmDevice.ideal(), adc_bits=None, seed=1
        )
        label = memory.labels[0]
        proto = memory.prototype(label)
        currents = cim.match_currents(proto)
        winner = cim.labels[int(np.argmax(currents))]
        assert winner == label
        # d matches -> current d * v * g_on for the winning column
        expected = cim.d * cim.v_read * cim.device.g_max
        assert currents.max() == pytest.approx(expected, rel=1e-6)

    def test_agrees_with_software_memory(self, trained, rng):
        memory, protos = trained
        cim = CimAssociativeMemory(memory, seed=2)
        for label, base in protos.items():
            query = base.copy()
            flip = rng.choice(1024, 120, replace=False)
            query[flip] ^= 1
            assert cim.classify(query) == memory.classify(query)

    def test_accuracy_with_device_noise(self, trained, rng):
        """Sec. IV.B.3: CIM delivers comparable accuracy to ideal
        software despite PCM non-idealities."""
        memory, protos = trained
        cim = CimAssociativeMemory(memory, seed=3)
        queries, labels = [], []
        for label, base in protos.items():
            for _ in range(5):
                query = base.copy()
                flip = rng.choice(1024, 100, replace=False)
                query[flip] ^= 1
                queries.append(query)
                labels.append(label)
        assert cim.accuracy(np.stack(queries), labels) == 1.0

    def test_batched_search_matches_sequential(self, trained, rng):
        """One batched block read classifies like per-query searches."""
        memory, protos = trained
        device = PcmDevice(read_noise_sigma=0.0)
        batched = CimAssociativeMemory(memory, device=device, seed=7)
        sequential = CimAssociativeMemory(memory, device=device, seed=7)
        queries = []
        for base in protos.values():
            query = base.copy()
            flip = rng.choice(1024, 100, replace=False)
            query[flip] ^= 1
            queries.append(query)
        queries = np.stack(queries)
        currents = batched.match_currents_batch(queries)
        reference = np.stack([sequential.match_currents(q) for q in queries])
        np.testing.assert_allclose(currents, reference, atol=1e-12)
        assert batched.classify_batch(queries) == [
            sequential.classify(q) for q in queries
        ]
        # both the currents call and the classify call counted one
        # query event per vector, batched or not
        assert batched.n_queries == sequential.n_queries == 2 * len(queries)

    def test_accuracy_needs_queries(self, trained):
        memory, _ = trained
        cim = CimAssociativeMemory(memory, seed=9)
        with pytest.raises(ValueError, match="no queries"):
            cim.accuracy(np.zeros((0, cim.d), dtype=np.uint8), [])

    @pytest.mark.parametrize("n_labels", [2, 6])
    def test_accuracy_rejects_a_label_count_mismatch(self, trained, n_labels):
        memory, _ = trained
        cim = CimAssociativeMemory(memory, seed=9)
        queries = np.stack([memory.prototype(label) for label in range(4)])
        with pytest.raises(ValueError, match="4 queries but"):
            cim.accuracy(queries, list(range(n_labels)))
        assert cim.n_queries == 0  # rejected before any array read

    def test_batched_search_validation(self, trained):
        memory, _ = trained
        cim = CimAssociativeMemory(memory, seed=8)
        with pytest.raises(ValueError):
            cim.match_currents_batch(np.zeros((0, cim.d), dtype=np.uint8))
        with pytest.raises(ValueError):
            cim.match_currents_batch(np.zeros((2, 100), dtype=np.uint8))

    def test_query_shape_validation(self, trained):
        memory, _ = trained
        cim = CimAssociativeMemory(memory, seed=4)
        with pytest.raises(ValueError):
            cim.classify(np.zeros(100, dtype=np.uint8))

    def test_query_counter(self, trained):
        memory, _ = trained
        cim = CimAssociativeMemory(memory, seed=5)
        cim.classify(memory.prototype(0))
        cim.classify(memory.prototype(1))
        assert cim.n_queries == 2
