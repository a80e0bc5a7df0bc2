"""Drift-aware fleet lifecycle benchmark: stale vs maintained serving.

A sharded fleet that serves for 1e6 seconds without compensation
accumulates PCM drift and its AMP recoveries degrade; a maintained twin
(same seeds) recalibrates every shard whose staleness crosses the policy
threshold between dispatch windows, paying a small counter-driven
maintenance premium.  This benchmark guards the lifecycle layer
end-to-end and emits ``benchmarks/results/BENCH_drift_fleet.json`` for
CI archival:

* **quality** — on the noisy crossbar backend the maintained fleet's
  mean NMSE must beat the stale fleet's by at least 2x;
* **overhead** — the maintenance share of the maintained fleet's bill
  (calibration-probe overhead + probe conversions, priced from the
  policy's counter deltas) must stay below 25 % and is reported;
* **exactness** — on the ideal-device backend an aged fleet with an
  attached (never-triggered) maintenance policy must stay *bitwise*
  identical to a fresh plain greedy fleet, merged counters included —
  the lifecycle layer is free until it actually acts.

Run:  PYTHONPATH=src python -m pytest -q benchmarks/bench_drift_fleet.py
"""

import numpy as np

from repro.crossbar import FleetMaintenance, ShardedOperator
from repro.devices import PcmDevice
from repro.energy import CrossbarCostModel
from repro.signal import CsProblem, amp_recover_batch

N, M, K = 128, 64, 6
BATCH = 16
SHARDS = 2
WINDOW = 5
AGE_S = 1e6
ITERATIONS = 20
MIN_NMSE_GAIN = 2.0
MAX_MAINTENANCE_FRACTION = 0.25
COUNTER_KEYS = (
    "n_matvec",
    "n_rmatvec",
    "n_live_matvec",
    "n_live_rmatvec",
    "dac_conversions",
    "adc_conversions",
    "n_calibrations",
    "n_calibration_probes",
    "n_reprograms",
    "n_program_pulses",
)


def build_fleet(problem, **kwargs):
    return ShardedOperator.from_matrix(
        problem.matrix,
        n_shards=SHARDS,
        batch_window=WINDOW,
        dac_bits=8,
        adc_bits=8,
        **kwargs,
    )


def test_drift_fleet_lifecycle(write_result):
    problem = CsProblem.generate_batch(n=N, m=M, k=K, batch=BATCH, seed=42)
    recover = dict(iterations=ITERATIONS, ground_truth=problem.signals)
    model = CrossbarCostModel(rows=N, cols=M, devices_per_cell=2)

    # -- noisy backend: stale vs maintained twins ----------------------
    stale = build_fleet(problem, schedule="greedy", seed=1)
    stale.advance_time(AGE_S)
    stale_result = amp_recover_batch(
        problem.measurements, stale, N, **recover
    )
    maintained = build_fleet(problem, schedule="greedy", seed=1)
    maintained.advance_time(AGE_S)
    policy = FleetMaintenance(
        maintained, recalibrate_after_s=1e3, n_probes=16, seed=2
    )
    maintained_result = amp_recover_batch(
        problem.measurements, maintained, N, **recover
    )
    stale_nmse = float(stale_result.final_nmse.mean())
    maintained_nmse = float(maintained_result.final_nmse.mean())
    nmse_gain = stale_nmse / maintained_nmse

    stale_energy = model.energy_from_stats(stale.stats)
    maintained_energy = model.energy_from_stats(maintained.stats)
    maintenance_energy = model.energy_from_stats(policy.stats)
    maintenance_fraction = (
        maintenance_energy["total_energy_j"]
        / maintained_energy["total_energy_j"]
    )

    # -- exact backend: the lifecycle layer is bitwise free ------------
    rng = np.random.default_rng(7)
    x_block = rng.standard_normal((N, 3 * WINDOW + 2))  # ragged windows
    plain = ShardedOperator.from_matrix(
        problem.matrix,
        n_shards=SHARDS,
        batch_window=WINDOW,
        schedule="greedy",
        device=PcmDevice.ideal(),
        seed=3,
    )
    lifecycle = ShardedOperator.from_matrix(
        problem.matrix,
        n_shards=SHARDS,
        batch_window=WINDOW,
        schedule="greedy",
        device=PcmDevice.ideal(),
        seed=3,
    )
    FleetMaintenance(lifecycle, recalibrate_after_s=1e12, seed=4)
    lifecycle.advance_time(AGE_S)  # ideal devices do not drift
    bitwise_equal = bool(
        np.array_equal(lifecycle.matmat(x_block), plain.matmat(x_block))
    )
    merged, reference = lifecycle.stats, plain.stats
    counters_equal = all(
        merged[key] == reference[key] for key in COUNTER_KEYS
    )

    payload = {
        "problem": {"n": N, "m": M, "k": K, "batch": BATCH},
        "shards": SHARDS,
        "batch_window": WINDOW,
        "age_s": AGE_S,
        "stale_nmse": stale_nmse,
        "maintained_nmse": maintained_nmse,
        "nmse_gain": nmse_gain,
        "stale_energy_j": stale_energy["total_energy_j"],
        "maintained_energy_j": maintained_energy["total_energy_j"],
        "maintenance_energy_j": maintenance_energy["total_energy_j"],
        "maintenance_fraction": maintenance_fraction,
        "calibrations": policy.n_calibrations,
        "calibration_probes": policy.n_calibration_probes,
        "reprograms": policy.n_reprograms,
        "gain_dispersion_after": maintained.gain_dispersion(),
        "exact_bitwise_equal": bitwise_equal,
        "exact_counters_equal": counters_equal,
    }
    lines = [
        "Drift-aware fleet lifecycle - stale vs maintained at age 1e6 s",
        f"  problem               : A {M}x{N}, B={BATCH}, "
        f"{SHARDS} shards, window {WINDOW}",
        f"  stale fleet NMSE      : {stale_nmse:8.2e}",
        f"  maintained fleet NMSE : {maintained_nmse:8.2e}  "
        f"({nmse_gain:.1f}x better, required >= {MIN_NMSE_GAIN}x)",
        f"  stale energy          : "
        f"{stale_energy['total_energy_j'] * 1e6:8.2f} uJ",
        f"  maintained energy     : "
        f"{maintained_energy['total_energy_j'] * 1e6:8.2f} uJ",
        f"  of it maintenance     : "
        f"{maintenance_energy['total_energy_j'] * 1e6:8.2f} uJ  "
        f"({maintenance_fraction * 100:.1f} %, required <= "
        f"{MAX_MAINTENANCE_FRACTION * 100:.0f} %)",
        f"  calibrations          : {policy.n_calibrations} "
        f"({policy.n_calibration_probes} probes), "
        f"{policy.n_reprograms} reprograms",
        f"  exact bitwise gate    : {bitwise_equal}",
        f"  exact counters gate   : {counters_equal}",
    ]
    write_result(
        "drift_fleet",
        "\n".join(lines),
        config={
            "n": N,
            "m": M,
            "k": K,
            "batch": BATCH,
            "shards": SHARDS,
            "window": WINDOW,
            "age_s": AGE_S,
            "iterations": ITERATIONS,
        },
        gates={
            "maintained_nmse": ("lower", 1.0),
            "stale_nmse": ("lower", 1.0),
            "maintenance_fraction": ("lower", 1.0),
            "exact_bitwise_equal": ("equal", 0.5),
            "exact_counters_equal": ("equal", 0.5),
        },
        gate_json=payload,
    )

    assert nmse_gain >= MIN_NMSE_GAIN
    assert maintenance_fraction <= MAX_MAINTENANCE_FRACTION
    assert policy.n_calibrations == SHARDS  # one sweep serviced the fleet
    assert bitwise_equal
    assert counters_equal
