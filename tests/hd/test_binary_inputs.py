"""Non-binary hypervectors are rejected at every HD boundary.

A hypervector entry is a bit.  Cast to bytes, a 2 or a -1 drives a CIM
search line at 255 x 0.2 V = 51 V and clips every class current at the
ADC's full scale, a 0.6 truncates to 0, and a NaN becomes an arbitrary
byte; in the software memory a Hamming search and a 0/1 match count
rank such a query differently.  Training, both searches and their
batched and scored forms must raise ``ValueError`` naming the argument
before any count, read or counter moves.
"""

import numpy as np
import pytest

from repro.ml.hd import AssociativeMemory, CimAssociativeMemory, bind, permute

D = 64


def non_binary(vector, kind):
    """``vector`` with five 2s, five -1s, every entry 0.6 or one NaN."""
    if kind == "fraction":
        return np.full(vector.shape, 0.6)
    bad = vector.astype(float if kind == "nan" else np.int64)
    if kind == "nan":
        bad[0] = np.nan
    else:
        bad[:5] = 2 if kind == "two" else -1
    return bad


KINDS = ["two", "minus_one", "fraction", "nan"]


@pytest.fixture
def prototypes():
    return np.random.default_rng(0).integers(0, 2, (3, D))


@pytest.fixture
def memory(prototypes):
    memory = AssociativeMemory(D, seed=1)
    for label, prototype in enumerate(prototypes):
        memory.train(label, prototype)
    return memory


def memory_state(memory):
    return (
        {label: counts.copy() for label, counts in memory._counts.items()},
        dict(memory._totals),
        dict(memory._prototype_cache),
    )


def assert_same_state(memory, state):
    counts, totals, cache = memory_state(memory)
    assert counts.keys() == state[0].keys()
    assert all(np.array_equal(counts[label], state[0][label]) for label in counts)
    assert totals == state[1]
    assert cache.keys() == state[2].keys()


class TestAssociativeMemory:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("label", [0, "new"])
    def test_train_rejects_before_counting(self, memory, prototypes, kind, label):
        memory.prototype(0)  # materialize a cached prototype
        state = memory_state(memory)
        with pytest.raises(ValueError, match="hypervector must hold only 0/1"):
            memory.train(label, non_binary(prototypes[1], kind))
        assert_same_state(memory, state)

    @pytest.mark.parametrize("kind", KINDS)
    def test_train_many_checks_the_whole_batch_first(self, memory, prototypes, kind):
        batch = np.stack([prototypes[0], non_binary(prototypes[1], kind)])
        state = memory_state(memory)
        with pytest.raises(ValueError, match="hypervectors must hold only 0/1"):
            memory.train_many([0, 1], batch)
        assert_same_state(memory, state)

    SEARCHES = {
        "similarities": (lambda m, q: m.similarities(q), "query"),
        "classify": (lambda m, q: m.classify(q), "query"),
        "classify_batch": (lambda m, q: m.classify_batch(q[None, :]), "queries"),
        "accuracy": (lambda m, q: m.accuracy(q[None, :], [1]), "queries"),
    }

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("search", list(SEARCHES))
    def test_searches_reject(self, memory, prototypes, kind, search):
        call, name = self.SEARCHES[search]
        state = memory_state(memory)
        with pytest.raises(ValueError, match=f"{name} must hold only 0/1"):
            call(memory, non_binary(prototypes[1], kind))
        assert_same_state(memory, state)

    def test_binary_queries_of_any_dtype_search_alike(self, memory, prototypes):
        """0/1 entries pass in any dtype and rank like their bytes."""
        queries = np.random.default_rng(3).integers(0, 2, (200, D))
        expected = memory.classify_batch(queries.astype(np.uint8))
        for dtype in (np.int64, np.float64, bool):
            assert memory.classify_batch(queries.astype(dtype)) == expected
        assert [memory.classify(query) for query in queries] == expected


class TestCimAssociativeMemory:
    @pytest.fixture
    def cim(self, memory):
        return CimAssociativeMemory(memory, seed=2)

    @staticmethod
    def counters(cim):
        return (
            cim.n_queries,
            cim.array_direct.n_col_reads,
            cim.array_complement.n_col_reads,
            cim.adc.n_conversions,
        )

    SEARCHES = {
        "match_currents": lambda cim, q: cim.match_currents(q),
        "classify": lambda cim, q: cim.classify(q),
        "match_currents_batch": lambda cim, q: cim.match_currents_batch(q[None, :]),
        "classify_batch": lambda cim, q: cim.classify_batch(q[None, :]),
        "accuracy": lambda cim, q: cim.accuracy(q[None, :], [1]),
    }

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("search", list(SEARCHES))
    def test_searches_reject_before_any_read(self, cim, prototypes, kind, search):
        with pytest.raises(ValueError, match="queries must hold only 0/1"):
            self.SEARCHES[search](cim, non_binary(prototypes[1], kind))
        assert self.counters(cim) == (0, 0, 0, 0)

    def test_a_binary_query_of_any_dtype_reads_its_class(self, cim, prototypes):
        for dtype in (np.uint8, np.int64, np.float64, bool):
            assert cim.classify(prototypes[1].astype(dtype)) == 1
        assert self.counters(cim)[0] == 4


class TestMapOperations:
    @pytest.mark.parametrize("kind", KINDS)
    def test_bind_and_permute_reject(self, prototypes, kind):
        bad = non_binary(prototypes[1], kind)
        with pytest.raises(ValueError, match="b must hold only 0/1"):
            bind(prototypes[0], bad)
        with pytest.raises(ValueError, match="vector must hold only 0/1"):
            permute(bad)
