"""Per-layer performance ledger of the noisy crossbar path.

Each layer is timed on one fixed shape grid, and the run is recorded as
a ``kind="profile"`` row (shape grid, core count and BLAS env in the
config, one metric per layer and shape) so ``python -m repro.results``
trends layer times across changes.  The ledger starts with the layer
that dominates batched reads:

* **tile read** — one forward plus one transpose read of the single
  differential tile pair of a :class:`CrossbarOperator` built with
  ``tile_shape`` equal to its stored shape, on a ``(lines, B)`` voltage
  block.  The pair reads its difference current as one Gaussian: one
  mean GEMM on ``G+ - G-``, one noise-power GEMM on ``G+**2 + G-**2``
  and one normal per output line and column.  The reference composes
  the same two reads from the public member reads
  ``positive.mvm(v) - negative.mvm(v)``: four GEMMs and two draws per
  direction.  Both sides run warm (read caches built) and interleaved,
  and each time is the median of ``REPEATS`` calls.  Emits
  ``BENCH_layers.json``.

Shapes are ``A`` as ``(m, n)`` with batch ``B``: 256x512/B=64,
1024x1024/B=256 and 2048x2048/B=512.  Gate: the tile-read ratio
(reference / pair) at 1024x1024/B=256 must be at least 1.6x; it
measured 2.0-2.2x across the grid on a 2-vCPU host with one BLAS
thread.  A threaded BLAS moves both sides by its pool, so an unpinned
run is recorded but its gate is skipped with the reason.

Run (one BLAS thread, as CI does)::

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        PYTHONPATH=src python -m pytest -q benchmarks/bench_layers.py
"""

import os
import time

import numpy as np
import pytest

from _harness import available_cores

from repro.crossbar import CrossbarOperator

SHAPES = ((256, 512, 64), (1024, 1024, 256), (2048, 2048, 512))
GATE_SHAPE = (1024, 1024, 256)
MIN_TILE_READ_RATIO = 1.6
REPEATS = 5
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def shape_label(m, n, batch):
    return f"{m}x{n}_b{batch}"


def interleaved_medians(first, second, repeats):
    """Median seconds of two callables, run alternately after a warm-up."""
    first(), second()
    times = ([], [])
    for _ in range(repeats):
        for fn, samples in zip((first, second), times):
            t0 = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - t0)
    return float(np.median(times[0])), float(np.median(times[1]))


def time_tile_read(m, n, batch):
    rng = np.random.default_rng(0)
    operator = CrossbarOperator(rng.standard_normal((m, n)), tile_shape=(n, m), seed=1)
    assert operator.n_tiles == 1
    pair = operator._tiles[(0, 0)]
    row_voltages = rng.uniform(-0.2, 0.2, (n, batch))
    col_voltages = rng.uniform(-0.2, 0.2, (m, batch))

    def pair_read():
        pair.column_currents(row_voltages, operator.age_seconds)
        pair.row_currents(col_voltages, operator.age_seconds)

    def member_reads():
        pair.positive.mvm(row_voltages) - pair.negative.mvm(row_voltages)
        pair.positive.mvm_t(col_voltages) - pair.negative.mvm_t(col_voltages)

    return interleaved_medians(pair_read, member_reads, REPEATS)


def test_tile_read_layer(write_result):
    blas_env = {key: os.environ.get(key) for key in BLAS_ENV}
    pinned = all(value == "1" for value in blas_env.values())
    nproc = available_cores()

    metrics = {}
    lines = [
        "Per-layer ledger - tile read (forward + transpose, one tile pair)",
        f"  nproc {nproc}, BLAS env "
        + ", ".join(f"{key}={value}" for key, value in blas_env.items()),
        "  shape (m x n / B)      pair read   member reads   ratio",
    ]
    for m, n, batch in SHAPES:
        pair_s, members_s = time_tile_read(m, n, batch)
        label = shape_label(m, n, batch)
        ratio = members_s / pair_s
        metrics[f"tile_read_ms_{label}"] = pair_s * 1e3
        metrics[f"tile_read_members_ms_{label}"] = members_s * 1e3
        metrics[f"tile_read_ratio_{label}"] = ratio
        lines.append(
            f"  {m:4d} x {n:4d} / {batch:3d}     {pair_s * 1e3:8.2f} ms  "
            f"{members_s * 1e3:9.2f} ms   {ratio:5.2f}x"
        )
    gate_ratio = metrics[f"tile_read_ratio_{shape_label(*GATE_SHAPE)}"]
    lines.append(
        f"  gate: ratio at {shape_label(*GATE_SHAPE)} >= {MIN_TILE_READ_RATIO}x"
        + ("" if pinned else " (skipped: BLAS not pinned to one thread)")
    )

    write_result(
        "layers",
        "\n".join(lines),
        config={
            "shapes": [list(shape) for shape in SHAPES],
            "repeats": REPEATS,
            "nproc": nproc,
            "blas_env": blas_env,
            "blas_pinned": pinned,
        },
        metrics=metrics,
        kind="profile",
    )

    if not pinned:
        pytest.skip(
            "BLAS threads not pinned to one "
            f"({', '.join(f'{key}={value}' for key, value in blas_env.items())}): "
            "the tile-read ratio depends on the BLAS thread pool"
        )
    assert gate_ratio >= MIN_TILE_READ_RATIO
