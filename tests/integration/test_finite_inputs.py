"""Property tests: non-finite inputs are rejected at every read boundary.

Analog reads peak-normalize each input column, so a single NaN or inf
would turn a whole output column into NaN while the converters still
bill it as a live read.  ``CrossbarOperator`` and its exact drop-in
``DenseOperator`` (all four products), ``CrossbarArray`` (both read
directions), ``ShardedOperator`` (every dispatch entry point) and
``FleetServer.submit`` must instead raise ``ValueError`` before any
counter, load, cursor or queue moves, wherever the bad entry sits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crossbar import CrossbarArray, CrossbarOperator, DenseOperator, ShardedOperator
from repro.serving import FleetServer, VirtualClock

M, N = 6, 10
MATRIX = np.random.default_rng(0).standard_normal((M, N))

BAD_VALUES = st.sampled_from([np.nan, np.inf, -np.inf])
PROPERTY = settings(max_examples=40, deadline=None)


def poisoned_block(lines, batch, row, column, bad):
    block = np.random.default_rng(1).standard_normal((lines, batch))
    block[row % lines, column % batch] = bad
    return block


def fleet_state(fleet):
    return fleet.stats, fleet.loads, fleet._cursor


def make_operator(exact):
    if exact:
        return DenseOperator(MATRIX)
    return CrossbarOperator(MATRIX, tile_shape=(4, 4), seed=0)


@PROPERTY
@given(
    batch=st.integers(1, 5),
    row=st.integers(0, 100),
    column=st.integers(0, 100),
    bad=BAD_VALUES,
    transpose=st.booleans(),
    exact=st.booleans(),
)
def test_operator_blocks_reject_non_finite_before_counting(
    batch, row, column, bad, transpose, exact
):
    operator = make_operator(exact)
    lines = M if transpose else N
    block = poisoned_block(lines, batch, row, column, bad)
    before = operator.stats
    with pytest.raises(ValueError, match="finite"):
        (operator.rmatmat if transpose else operator.matmat)(block)
    assert operator.stats == before


@PROPERTY
@given(
    row=st.integers(0, 100), bad=BAD_VALUES, transpose=st.booleans(), exact=st.booleans()
)
def test_operator_vectors_reject_non_finite_before_counting(row, bad, transpose, exact):
    operator = make_operator(exact)
    vector = poisoned_block(M if transpose else N, 1, row, 0, bad)[:, 0]
    before = operator.stats
    with pytest.raises(ValueError, match="finite"):
        (operator.rmatvec if transpose else operator.matvec)(vector)
    assert operator.stats == before


@PROPERTY
@given(
    batch=st.integers(1, 5),
    row=st.integers(0, 100),
    column=st.integers(0, 100),
    bad=BAD_VALUES,
    transpose=st.booleans(),
    vector=st.booleans(),
)
def test_array_reads_reject_non_finite_before_counting(
    batch, row, column, bad, transpose, vector
):
    array = CrossbarArray(np.abs(MATRIX), seed=0)
    lines = array.cols if transpose else array.rows
    voltages = poisoned_block(lines, 1 if vector else batch, row, column, bad)
    if vector:
        voltages = voltages[:, 0]
    with pytest.raises(ValueError, match="finite"):
        (array.mvm_t if transpose else array.mvm)(voltages)
    assert (array.n_col_reads, array.n_row_reads) == (0, 0)


@PROPERTY
@given(
    batch=st.integers(1, 7),
    row=st.integers(0, 100),
    column=st.integers(0, 100),
    bad=BAD_VALUES,
    entry=st.sampled_from(["matmat", "rmatmat", "fused_sweep"]),
    schedule=st.sampled_from(["round_robin", "greedy"]),
)
def test_fleet_blocks_reject_non_finite_before_scheduling(
    batch, row, column, bad, entry, schedule
):
    fleet = ShardedOperator.from_matrix(
        MATRIX, n_shards=3, batch_window=2, schedule=schedule, seed=0
    )
    # one live call first, so the cursor and loads are not at rest
    fleet.matmat(np.ones((N, 3)))
    lines = N if entry == "matmat" else M
    block = poisoned_block(lines, batch, row, column, bad)
    before = fleet_state(fleet)
    with pytest.raises(ValueError, match="finite"):
        if entry == "fused_sweep":
            fleet.fused_sweep(block, lambda u, columns: u)
        else:
            getattr(fleet, entry)(block)
    assert fleet_state(fleet) == before


@PROPERTY
@given(row=st.integers(0, 100), bad=BAD_VALUES, transpose=st.booleans())
def test_fleet_vectors_reject_non_finite_before_scheduling(row, bad, transpose):
    fleet = ShardedOperator.from_matrix(MATRIX, n_shards=2, batch_window=2, seed=0)
    fleet.matvec(np.ones(N))
    vector = poisoned_block(M if transpose else N, 1, row, 0, bad)[:, 0]
    before = fleet_state(fleet)
    with pytest.raises(ValueError, match="finite"):
        (fleet.rmatvec if transpose else fleet.matvec)(vector)
    assert fleet_state(fleet) == before


@PROPERTY
@given(row=st.integers(0, 100), bad=BAD_VALUES, kind=st.sampled_from(["matvec", "rmatvec"]))
def test_server_rejects_non_finite_request_and_serves_the_rest(row, bad, kind):
    fleet = ShardedOperator.from_matrix(
        MATRIX, n_shards=2, batch_window=4, backend="exact"
    )
    server = FleetServer(fleet, VirtualClock(), coalesce_budget_s=1.0)
    lines = N if kind == "matvec" else M
    good = np.random.default_rng(2).standard_normal((2, lines))
    server.submit(good[0], tenant="alice", kind=kind)
    with pytest.raises(ValueError, match="finite"):
        server.submit(poisoned_block(lines, 1, row, 0, bad)[:, 0], tenant="mallory", kind=kind)
    server.submit(good[1], tenant="alice", kind=kind)
    assert server.tenants == ("alice",)
    assert server.queue.depth == 2
    served = server.flush()
    assert [result.status for result in served] == ["served", "served"]
    assert all(np.isfinite(result.value).all() for result in served)
