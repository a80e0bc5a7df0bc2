"""Tests of the associative memory."""

import numpy as np
import pytest

from repro.ml.hd import AssociativeMemory, random_hypervector


@pytest.fixture
def memory(rng):
    memory = AssociativeMemory(d=1024, seed=0)
    for label in ("a", "b", "c"):
        base = random_hypervector(1024, seed=rng)
        for _ in range(5):
            noisy = base.copy()
            flip = rng.choice(1024, size=100, replace=False)
            noisy[flip] ^= 1
            memory.train(label, noisy)
    return memory


class TestTraining:
    def test_labels_registered(self, memory):
        assert sorted(memory.labels) == ["a", "b", "c"]
        assert memory.n_classes == 3

    def test_prototype_shape_binary(self, memory):
        proto = memory.prototype("a")
        assert proto.shape == (1024,)
        assert set(np.unique(proto)) <= {0, 1}

    def test_unknown_class(self, memory):
        with pytest.raises(KeyError):
            memory.prototype("z")

    def test_shape_validation(self):
        memory = AssociativeMemory(d=64)
        with pytest.raises(ValueError):
            memory.train("x", np.zeros(32, dtype=np.uint8))

    def test_train_counts_equivalent_to_train(self, rng):
        """Accumulating counts must equal training individual vectors."""
        hvs = rng.integers(0, 2, (7, 256), dtype=np.uint8)
        one = AssociativeMemory(d=256, seed=1)
        for hv in hvs:
            one.train("k", hv)
        other = AssociativeMemory(d=256, seed=1)
        other.train_counts("k", hvs.sum(axis=0), total=7)
        assert np.array_equal(one.prototype("k"), other.prototype("k"))

    def test_train_counts_validation(self):
        memory = AssociativeMemory(d=8)
        with pytest.raises(ValueError):
            memory.train_counts("k", np.full(8, 5), total=3)  # counts > total
        with pytest.raises(ValueError):
            memory.train_counts("k", np.zeros(8), total=0)


class TestClassification:
    def test_classifies_noisy_queries(self, memory, rng):
        """Prototypes tolerate substantial query corruption."""
        proto = memory.prototype("b")
        query = proto.copy()
        flip = rng.choice(1024, size=200, replace=False)
        query[flip] ^= 1
        assert memory.classify(query) == "b"

    def test_similarities_ordered(self, memory):
        proto = memory.prototype("c")
        scores = memory.similarities(proto)
        assert scores["c"] == max(scores.values())

    def test_accuracy(self, memory):
        protos = [memory.prototype(label) for label in ("a", "b", "c")]
        assert memory.accuracy(np.stack(protos), ["a", "b", "c"]) == 1.0

    def test_untrained_rejected(self):
        memory = AssociativeMemory(d=32)
        with pytest.raises(ValueError):
            memory.classify(np.zeros(32, dtype=np.uint8))

    def test_empty_queries_rejected(self, memory):
        with pytest.raises(ValueError):
            memory.accuracy(np.zeros((0, 1024)), [])

    @pytest.mark.parametrize("labels", [["a", "b"], ["a", "b", "c", "a"]])
    def test_accuracy_rejects_a_label_count_mismatch(self, memory, labels):
        protos = np.stack([memory.prototype(label) for label in ("a", "b", "c")])
        with pytest.raises(ValueError, match="3 queries but"):
            memory.accuracy(protos, labels)


class TestTieDeterminism:
    """Prototype tie-bits are drawn once per trained state and cached."""

    @pytest.fixture
    def tied_memory(self):
        """Every component of class 'a' is tied (counts == total / 2)."""
        memory = AssociativeMemory(d=512, seed=3)
        pattern = np.zeros(512, dtype=np.uint8)
        pattern[::2] = 1
        memory.train("a", pattern)
        memory.train("a", 1 - pattern)
        anti = np.ones(512, dtype=np.uint8)
        memory.train("b", anti)
        return memory

    def test_prototype_stable_across_reads(self, tied_memory):
        first = tied_memory.prototype("a")
        assert np.array_equal(first, tied_memory.prototype("a"))

    def test_repeated_classify_returns_same_label(self, tied_memory, rng):
        query = rng.integers(0, 2, 512, dtype=np.uint8)
        labels = {tied_memory.classify(query) for _ in range(5)}
        assert len(labels) == 1

    def test_classify_agrees_with_classify_batch(self, tied_memory, rng):
        queries = rng.integers(0, 2, (6, 512), dtype=np.uint8)
        batched = tied_memory.classify_batch(queries)
        looped = [tied_memory.classify(q) for q in queries]
        assert batched == looped

    def test_similarities_stable_across_reads(self, tied_memory, rng):
        query = rng.integers(0, 2, 512, dtype=np.uint8)
        assert tied_memory.similarities(query) == tied_memory.similarities(query)

    def test_training_invalidates_only_that_class(self, tied_memory):
        before_a = tied_memory.prototype("a")
        before_b = tied_memory.prototype("b")
        tied_memory.train("a", np.ones(512, dtype=np.uint8))
        # 'a' re-materializes from the new counts (no ties remain: the
        # majority of 3 vectors is strict everywhere)
        after_a = tied_memory.prototype("a")
        counts = tied_memory._counts["a"]
        assert np.array_equal(after_a, (counts > 1.5).astype(np.uint8))
        assert np.array_equal(tied_memory.prototype("b"), before_b)
        assert before_a.shape == after_a.shape

    def test_returned_prototype_is_a_copy(self, tied_memory):
        proto = tied_memory.prototype("a")
        proto[:] = 7
        assert set(np.unique(tied_memory.prototype("a"))) <= {0, 1}


class TestValidation:
    def test_rejects_empty_dimension(self):
        with pytest.raises(ValueError, match="d must be"):
            AssociativeMemory(d=0)

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda m: m.train_counts("a", np.zeros(8), total=1), "counts must"),
            (lambda m: m.similarities(np.zeros(8, dtype=np.uint8)), "query must"),
            (lambda m: m.classify_batch(np.zeros(1024)), "queries must"),
        ],
        ids=["train_counts", "similarities", "classify_batch"],
    )
    def test_rejects_misshapen_vectors(self, memory, call, match):
        with pytest.raises(ValueError, match=match):
            call(memory)

    def test_untrained_batch_search_rejected(self):
        with pytest.raises(ValueError, match="untrained"):
            AssociativeMemory(d=32).classify_batch(np.zeros((1, 32)))


class TestTrainMany:
    def test_equals_looped_train(self, rng):
        labels = ["a", "b", "a", "c", "b", "a"]
        hypervectors = rng.integers(0, 2, size=(len(labels), 64), dtype=np.uint8)
        batched = AssociativeMemory(d=64, seed=1)
        batched.train_many(labels, hypervectors)
        looped = AssociativeMemory(d=64, seed=1)
        for label, hypervector in zip(labels, hypervectors):
            looped.train(label, hypervector)
        assert batched.labels == looped.labels
        for label in looped.labels:
            assert np.array_equal(batched.prototype(label), looped.prototype(label))

    def test_rejects_a_label_count_mismatch(self, rng):
        memory = AssociativeMemory(d=64)
        hypervectors = rng.integers(0, 2, size=(3, 64), dtype=np.uint8)
        with pytest.raises(ValueError, match="3 hypervectors but 2 labels"):
            memory.train_many(["a", "b"], hypervectors)
        assert memory.labels == []  # nothing counted before the check
