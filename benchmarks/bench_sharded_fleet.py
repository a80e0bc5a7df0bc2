"""Sharded fleet scheduler benchmark: windowed serving at batch 256.

A production fleet of 256 concurrent requests exceeds any single
array's readout window.  ``ShardedOperator`` splits the batch into
4 windows of 64 columns and dispatches them across array replicas as
whole-window ``matmat`` passes.  This benchmark guards the scheduler
end-to-end and emits ``benchmarks/results/BENCH_sharded_fleet.json``
for CI archival:

* **speed** — the sharded fleet dispatch must beat serving the same four
  windows column by column through one operator's ``matvec`` by at least
  2.5x wall-clock (the median of the ratios of ``REPEATS`` interleaved
  rounds, each on a freshly programmed operator or fleet).  The looped
  side runs the same read model at B=1 (each ``matvec`` is a one-column
  block read), so the ratio measures per-call overhead against
  whole-window GEMMs: it measures 3.7-7.6x on a 2-vCPU host with one
  BLAS thread, and the floor keeps margin for shared CI runners.  The
  gate skips, with the reason, when BLAS is not pinned to one thread or
  the host's speed moved during the run;
* **exactness** — on the float-exact dense backend the sharded result
  must match the unsharded single-operator ``matmat`` to <= 1e-10
  relative error per column, and on the quantized ideal-device crossbar
  backend it must match bit-for-bit;
* **counter fidelity** — the merged fleet counters must equal the
  single-array counters exactly, so the counter-driven energy
  accounting prices a sharded run identically.

Run (one BLAS thread, as CI does: on a shared 2-vCPU host a threaded
BLAS sometimes stalls every small GEMM by several milliseconds)::

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        PYTHONPATH=src python -m pytest -q benchmarks/bench_sharded_fleet.py
"""

import numpy as np

from _harness import SpeedGates, time_interleaved

from repro.crossbar import CrossbarOperator, DenseOperator, ShardedOperator
from repro.devices import PcmDevice
from repro.energy import CrossbarCostModel

BATCH = 256
N, M = 256, 192
WINDOW = 64
SHARDS = 4
MIN_SPEEDUP = 2.5
MAX_COLUMN_REL_ERROR = 1e-10
REPEATS = 5
COUNTER_KEYS = (
    "n_matvec",
    "n_rmatvec",
    "n_live_matvec",
    "n_live_rmatvec",
    "dac_conversions",
    "adc_conversions",
)


def column_errors(estimates, references):
    norms = np.linalg.norm(references, axis=0)
    return np.linalg.norm(estimates - references, axis=0) / norms


def test_sharded_fleet_speed_and_invariants(write_result):
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((M, N))
    x_block = rng.standard_normal((N, BATCH))
    speed_gates = SpeedGates()

    # -- wall-clock: window-looped per-vector serving vs the sharded
    # fleet dispatch ---------------------------------------------------
    windows = [(start, min(start + WINDOW, BATCH)) for start in range(0, BATCH, WINDOW)]

    def looped_windows(baseline):
        looped = np.empty((M, BATCH))
        for start, stop in windows:
            for column in range(start, stop):
                looped[:, column] = baseline.matvec(x_block[:, column])

    timings, _ = time_interleaved(
        {"looped": looped_windows, "sharded": lambda fleet: fleet.matmat(x_block)},
        REPEATS, setup={
            "looped": lambda: CrossbarOperator(matrix, seed=1),
            "sharded": lambda: ShardedOperator.from_matrix(
                matrix, n_shards=SHARDS, batch_window=WINDOW, seed=1
            ),
        },
    )
    looped_s, sharded_s = timings["looped"].median, timings["sharded"].median
    speedup = speed_gates.gate(
        "speedup", timings["looped"] / timings["sharded"], MIN_SPEEDUP,
        shape=f"A {M}x{N}, B={BATCH}, {SHARDS} shards",
    )

    # -- float-exact backend: column equivalence + counters ------------
    dense_fleet = ShardedOperator.from_matrix(
        matrix, n_shards=SHARDS, batch_window=WINDOW, backend="exact"
    )
    dense_single = DenseOperator(matrix)
    max_rel_error = float(
        column_errors(
            dense_fleet.matmat(x_block), dense_single.matmat(x_block)
        ).max()
    )

    # -- quantized ideal-device crossbar: bit-for-bit ------------------
    ideal_fleet = ShardedOperator.from_matrix(
        matrix,
        n_shards=SHARDS,
        batch_window=WINDOW,
        device=PcmDevice.ideal(),
        seed=2,
    )
    ideal_single = CrossbarOperator(matrix, device=PcmDevice.ideal(), seed=3)
    bitwise_equal = bool(
        np.array_equal(ideal_fleet.matmat(x_block), ideal_single.matmat(x_block))
    )
    merged = ideal_fleet.stats
    single = ideal_single.stats
    counters_equal = all(merged[key] == single[key] for key in COUNTER_KEYS)

    # -- merged-counter pricing ----------------------------------------
    model = CrossbarCostModel(rows=N, cols=M, devices_per_cell=2)
    counted = model.energy_from_stats(merged)

    payload = {
        "batch": BATCH,
        "windows": len(windows),
        "shards": SHARDS,
        "batch_window": WINDOW,
        "looped_windows_s": looped_s,
        "sharded_s": sharded_s,
        "speedup": speedup,
        "max_column_rel_error_exact": max_rel_error,
        "ideal_crossbar_bitwise_equal": bitwise_equal,
        "merged_counters_equal": counters_equal,
        "merged_counter_energy_j": counted["total_energy_j"],
        "merged_counters": {key: merged[key] for key in COUNTER_KEYS},
    }
    lines = [
        "Sharded fleet scheduler - batch-256 window-dispatch benchmark",
        f"  problem               : A {M}x{N}, B={BATCH}, "
        f"{len(windows)} windows of {WINDOW} across {SHARDS} shards",
        f"  looped windows        : {looped_s * 1e3:8.1f} ms / fleet",
        f"  sharded dispatch      : {sharded_s * 1e3:8.1f} ms / fleet",
        f"  exact column error    : {max_rel_error:8.1e}  "
        f"(required <= {MAX_COLUMN_REL_ERROR:.0e})",
        f"  ideal-crossbar bitwise: {bitwise_equal}",
        f"  merged counters equal : {counters_equal}",
        f"  merged-counter energy : {counted['total_energy_j'] * 1e6:8.2f} uJ",
    ]
    write_result(
        "sharded_fleet",
        "\n".join(lines),
        config={
            "batch": BATCH,
            "n": N,
            "m": M,
            "window": WINDOW,
            "shards": SHARDS,
        },
        gates={
            # the band reaches down to about MIN_SPEEDUP
            "speedup": ("higher", 0.6),
            "ideal_crossbar_bitwise_equal": ("equal", 0.5),
            "merged_counters_equal": ("equal", 0.5),
        },
        gate_json=payload,
        speed_gates=speed_gates,
    )

    assert max_rel_error <= MAX_COLUMN_REL_ERROR
    assert bitwise_equal
    assert counters_equal
    speed_gates.enforce()
