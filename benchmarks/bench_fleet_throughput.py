"""Fleet throughput trend line: parallel vs serial cross-shard dispatch.

PRs 1-5 bought their speed by vectorizing inside one dispatch; this
benchmark tracks the other axis — running the fleet's independent
shards *concurrently* — as a trend line instead of a one-off ratio.
It emits ``benchmarks/results/BENCH_fleet_throughput.json`` with:

* **MVMs/s vs shard count** at a production shape (A 4096x4096,
  B = 4096) for ``parallelism="serial"`` and ``"threads"``, with the
  per-shard-count speedup and scaling efficiency
  (speedup / min(shards, cores));
* **recoveries/s vs shard count** for batched AMP compressed-sensing
  recovery through ideal-device crossbar fleets, where the threaded
  path also pipelines each sweep via ``fused_sweep``;
* **bitwise serial-equivalence gates in the same run** — the threaded
  production dispatch must equal the serial dispatch bit for bit on
  the dense backend (same gemm widths both modes; the 8-shard fleets'
  warm-up products), and a quantized ideal-crossbar fleet must match
  serially-dispatched results, merged counters, and loads exactly.

Each shard count times its serial and threaded fleet in ``REPEATS``
interleaved rounds after a warm-up round; each speedup is the median
of the round-by-round ratios.

Scaling-efficiency gate — thread-level speedup is physically bounded by
the cores the runner exposes, so the wall-clock gate adapts (the
bitwise gates never relax):

* >= 4 cores (CI runners): threaded dispatch at 8 shards must be
  >= 2.0x serial;
* 2-3 cores: >= 1.2x;
* 1 core: threading cannot win — the gate instead bounds the overhead:
  threaded throughput must stay >= 0.25x serial.

The shard threads rely on NumPy's GIL-releasing BLAS kernels; for the
speedup to be attributable to cross-shard parallelism, BLAS-internal
threading must be pinned, so the gate skips, with the reason, when it
is not (and when the host's speed moved during the run).  The JSON
records the core count and the pinning state so trend lines across
runners stay comparable.

Run (one BLAS thread, as CI does)::

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        PYTHONPATH=src python -m pytest -q benchmarks/bench_fleet_throughput.py
"""

import numpy as np

from _harness import SpeedGates, time_interleaved

from repro.crossbar import ShardedOperator
from repro.devices import PcmDevice
from repro.signal import CsProblem, amp_recover_batch

# Production MVM shape (dense exact backend: replicas share one stored
# matrix, so 8 shards cost no extra memory).
N = M = 4096
BATCH = 4096
SHARD_COUNTS = (1, 2, 4, 8)
GATE_SHARDS = 8
REPEATS = 2

# AMP recovery trend (ideal-device crossbar backend).
CS_N, CS_M, CS_K = 1024, 512, 16
CS_BATCH = 256
CS_SHARD_COUNTS = (1, 2, 4)
CS_SWEEPS = 8

# {fewest cores: floor}; on 1 core an overhead bound, not a speedup.
MIN_SPEEDUPS = {4: 2.0, 2: 1.2, 1: 0.25}
MODES = ("serial", "threads")
COUNTER_KEYS = (
    "n_matvec",
    "n_rmatvec",
    "n_live_matvec",
    "n_live_rmatvec",
    "dac_conversions",
    "adc_conversions",
)


def mode_trend(shards, build, call, items, unit):
    """Time ``call(fleet)`` on the serial and the threaded fleet
    ``build(mode)``.  Returns the trend row (each mode's median seconds
    and ``unit`` per second, and the median serial/threaded speedup),
    the timings, the warm-up outputs and the fleets."""
    fleets = {mode: build(mode) for mode in MODES}
    timings, outputs = time_interleaved(
        {mode: lambda fleet=fleet: call(fleet) for mode, fleet in fleets.items()},
        REPEATS,
    )
    entry = {"shards": shards, "batch_window": items // shards}
    for mode, fleet in fleets.items():
        fleet.shutdown()
        entry[f"{mode}_s"] = timings[mode].median
        entry[f"{mode}_{unit}_per_s"] = items / timings[mode].median
    entry["speedup"] = (timings["serial"] / timings["threads"]).median
    return entry, timings, outputs, fleets


def test_fleet_throughput_trend_and_equivalence(write_result):
    rng = np.random.default_rng(0)
    speed_gates = SpeedGates()
    cores = speed_gates.nproc
    gate_mode = "speedup" if cores >= 2 else "overhead-bound"
    gate_value = speed_gates.core_floor(MIN_SPEEDUPS)

    # -- MVMs/s vs shard count at the production shape -----------------
    matrix = rng.standard_normal((M, N))
    x_block = rng.standard_normal((N, BATCH))
    mvm_trend = []
    for shards in SHARD_COUNTS:
        entry, timings, products, fleets = mode_trend(
            shards,
            lambda mode: ShardedOperator.from_matrix(
                matrix, n_shards=shards, batch_window=BATCH // shards,
                parallelism=mode, backend="exact",
            ),
            lambda fleet: fleet.matmat(x_block), BATCH, "mvms",
        )
        entry["scaling_efficiency"] = entry["speedup"] / min(shards, cores)
        mvm_trend.append(entry)
        if shards == GATE_SHARDS:
            # -- bitwise serial-equivalence gates (same run, same shapes)
            gate_entry = entry
            speed_gates.gate(
                "gate_speedup", timings["serial"] / timings["threads"], gate_value,
                shape=f"A {M}x{N}, B={BATCH}, {shards} shards",
            )
            dense_bitwise = bool(
                np.array_equal(products["serial"], products["threads"])
            )
            dense_state_equal = (
                fleets["serial"].stats == fleets["threads"].stats
                and fleets["serial"].loads == fleets["threads"].loads
            )
        del products

    small = rng.standard_normal((48, 96))
    small_block = rng.standard_normal((96, 24))

    def ideal_fleet(parallelism):
        return ShardedOperator.from_matrix(
            small,
            n_shards=4,
            batch_window=5,
            parallelism=parallelism,
            device=PcmDevice.ideal(),
            stream="per_shard",
            seed=1,
        )

    ideal_serial, ideal_threaded = ideal_fleet("serial"), ideal_fleet("threads")
    crossbar_bitwise = bool(
        np.array_equal(
            ideal_serial.matmat(small_block), ideal_threaded.matmat(small_block)
        )
    )
    crossbar_counters_equal = all(
        ideal_serial.stats[key] == ideal_threaded.stats[key] for key in COUNTER_KEYS
    ) and ideal_serial.loads == ideal_threaded.loads
    ideal_threaded.shutdown()

    # -- recoveries/s vs shard count (AMP through crossbar fleets) -----
    problem = CsProblem.generate_batch(n=CS_N, m=CS_M, k=CS_K, batch=CS_BATCH, seed=2)
    recovery_trend = []
    for shards in CS_SHARD_COUNTS:
        recovery_trend.append(mode_trend(
            shards,
            lambda mode: ShardedOperator.from_matrix(
                problem.matrix, n_shards=shards, batch_window=CS_BATCH // shards,
                parallelism=mode, device=PcmDevice.ideal(), stream="per_shard",
                seed=3,
            ),
            lambda fleet: amp_recover_batch(
                problem.measurements, fleet, problem.n, iterations=CS_SWEEPS,
                tolerance=0.0,  # fixed sweep count: pure throughput
            ),
            CS_BATCH, "recoveries",
        )[0])

    gate_ratio = gate_entry["speedup"]
    gate_passed = gate_ratio >= gate_value

    payload = {
        "shape": {"m": M, "n": N, "batch": BATCH},
        "cores": cores,
        "blas_pinned": {
            key: speed_gates.blas_env[key]
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
        "gate": {
            "shards": GATE_SHARDS,
            "mode": gate_mode,
            "required": gate_value,
            "measured": gate_ratio,
            "passed": gate_passed,
        },
        "mvm_trend": mvm_trend,
        "recovery_trend": recovery_trend,
        "dense_bitwise_equal": dense_bitwise,
        "dense_state_equal": dense_state_equal,
        "ideal_crossbar_bitwise_equal": crossbar_bitwise,
        "ideal_crossbar_counters_equal": crossbar_counters_equal,
    }
    lines = [
        "Fleet throughput trend - parallel vs serial cross-shard dispatch",
        f"  problem               : A {M}x{N}, B={BATCH} (dense exact backend)",
    ]
    for entry in mvm_trend:
        lines.append(
            f"  {entry['shards']:2d} shards             : "
            f"serial {entry['serial_mvms_per_s']:8.0f} MVMs/s | "
            f"threads {entry['threads_mvms_per_s']:8.0f} MVMs/s | "
            f"{entry['speedup']:5.2f}x (eff {entry['scaling_efficiency']:.2f})"
        )
    lines.append(
        f"  AMP recoveries        : B={CS_BATCH} signals, n={CS_N}, m={CS_M}, "
        f"{CS_SWEEPS} sweeps, ideal crossbar"
    )
    for entry in recovery_trend:
        lines.append(
            f"  {entry['shards']:2d} shards             : "
            f"serial {entry['serial_recoveries_per_s']:7.1f} rec/s | "
            f"threads {entry['threads_recoveries_per_s']:7.1f} rec/s | "
            f"{entry['speedup']:5.2f}x"
        )
    lines += [
        f"  dense bitwise         : {dense_bitwise} (state {dense_state_equal})",
        f"  crossbar bitwise      : {crossbar_bitwise} "
        f"(counters {crossbar_counters_equal})",
    ]
    write_result(
        "fleet_throughput",
        "\n".join(lines),
        config={
            "m": M,
            "n": N,
            "batch": BATCH,
            "shard_counts": list(SHARD_COUNTS),
            "gate_shards": GATE_SHARDS,
            "cores": cores,
        },
        metrics={
            "gate_speedup": gate_ratio,
            "gate_scaling_efficiency": gate_entry["scaling_efficiency"],
            "gate_passed": gate_passed,
        },
        gates={
            "gate_speedup": ("higher", 0.9),
            "gate_scaling_efficiency": ("higher", 0.9),
            "gate_passed": ("equal", 0.5),
            "dense_bitwise_equal": ("equal", 0.5),
            "ideal_crossbar_bitwise_equal": ("equal", 0.5),
        },
        gate_json=payload,
        speed_gates=speed_gates,
    )

    # The bitwise gates never relax, whatever the runner's core count.
    assert dense_bitwise and dense_state_equal
    assert crossbar_bitwise and crossbar_counters_equal
    speed_gates.enforce()
