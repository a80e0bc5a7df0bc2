"""Fleet lifetime benchmark: predictive maintenance + fault survival.

Drives a 3-shard crossbar fleet through 1.2e6 simulated seconds (60
dispatch windows of 2e4 s) of mixed traffic three times and gates the
lifetime story end-to-end; emits
``benchmarks/results/BENCH_lifetime.json`` and records a
``kind="lifetime"`` run row so ``python -m repro.results trend`` carries
the lifetime metrics across PRs:

* **predictive efficiency** — a drift-model-driven policy
  (``gain_error_budget``) must end the life with an equal-or-better
  NMSE envelope than the wall-clock twin (same seeds,
  ``recalibrate_after_s``) while spending at least 20 % fewer
  calibration probes.  PCM drift is a power law, so the predictor's
  recalibration intervals stretch geometrically while the wall clock
  keeps the early-life cadence forever;
* **fault survival** — with Poisson-arriving stuck-device faults the
  fleet must serve 100 % of dispatch windows while at least one shard
  is escalated through calibrate → reprogram → verify into retirement
  and at least one survivor keeps serving;
* **neutrality** — with the fault process at rate zero and the
  predictive trigger disabled, the fully wired lifetime machinery must
  reproduce the plain maintained fleet bitwise (same NMSE floats, same
  merged counters).

Run:  PYTHONPATH=src python -m pytest -q benchmarks/bench_lifetime.py
"""

import numpy as np

from repro.crossbar import (
    FaultInjector,
    FleetMaintenance,
    LifetimeSimulator,
    ShardedOperator,
)
from repro.energy import CrossbarCostModel

M, N = 64, 128
SHARDS = 3
WINDOW = 8
BATCH = 24
STEP_S = 2e4
STEPS = 60
WALL_CLOCK_S = 4e4
GAIN_BUDGET = 0.01
MIN_PROBE_SAVING = 1.25  # >= 20 % fewer probes
FAULT_RATE = 1 / 1.2e6  # ~1 expected event per shard per lifetime
FAULT_FRACTION = 2e-2


def build_fleet():
    matrix = np.random.default_rng(42).standard_normal((M, N))
    return ShardedOperator.from_matrix(
        matrix,
        n_shards=SHARDS,
        batch_window=WINDOW,
        schedule="greedy",
        stream="per_shard",
        seed=3,
    )


def run_life(policy_kwargs, injector_kwargs=None):
    fleet = build_fleet()
    policy = FleetMaintenance(fleet, n_probes=8, seed=4, **policy_kwargs)
    injector = (
        FaultInjector(fleet, **injector_kwargs)
        if injector_kwargs is not None
        else None
    )
    sim = LifetimeSimulator(
        fleet, injector=injector, step_seconds=STEP_S, batch=BATCH, seed=6
    )
    result = sim.run(STEPS)
    return fleet, policy, result


def test_fleet_lifetime(write_result):
    model = CrossbarCostModel(rows=N, cols=M, devices_per_cell=2)

    # -- gate 1: predictive beats the wall clock probe-for-probe -------
    wall_fleet, wall_policy, wall = run_life(
        dict(recalibrate_after_s=WALL_CLOCK_S)
    )
    pred_fleet, pred_policy, pred = run_life(
        dict(gain_error_budget=GAIN_BUDGET)
    )
    probe_saving = (
        wall_policy.n_calibration_probes / pred_policy.n_calibration_probes
    )
    pred_energy = model.energy_from_stats(pred_policy.stats)["total_energy_j"]
    wall_energy = model.energy_from_stats(wall_policy.stats)["total_energy_j"]

    # -- gate 2: fault arrivals, escalation, retirement, survival ------
    faulted_fleet, faulted_policy, faulted = run_life(
        dict(
            gain_error_budget=GAIN_BUDGET,
            calibration_error_threshold=0.15,
            verify_error_budget=0.1,
        ),
        injector_kwargs=dict(
            rate_per_s=FAULT_RATE, fraction_per_event=FAULT_FRACTION, seed=9
        ),
    )
    survivors = faulted_fleet.n_active_shards
    retire_step = (
        faulted.retirements[0][0] if faulted.retirements else -1
    )

    # -- gate 3: machinery wired but idle is bitwise free --------------
    bare_fleet, _, bare = run_life(dict(recalibrate_after_s=WALL_CLOCK_S))
    wired_fleet, _, wired = run_life(
        dict(recalibrate_after_s=WALL_CLOCK_S),
        injector_kwargs=dict(rate_per_s=0.0, seed=9),
    )
    neutral_results = bare.nmse == wired.nmse
    neutral_counters = bare_fleet.stats == wired_fleet.stats

    payload = {
        "problem": {"m": M, "n": N, "shards": SHARDS, "batch": BATCH},
        "sim_seconds": STEPS * STEP_S,
        "wallclock_nmse_max": wall.nmse_envelope,
        "predictive_nmse_max": pred.nmse_envelope,
        "wallclock_probes": wall_policy.n_calibration_probes,
        "predictive_probes": pred_policy.n_calibration_probes,
        "probe_saving": probe_saving,
        "wallclock_maintenance_energy_uj": wall_energy * 1e6,
        "maintenance_energy_uj": pred_energy * 1e6,
        "faulted_availability": faulted.availability,
        "faulted_retirements": len(faulted.retirements),
        "faulted_survivors": survivors,
        "faulted_fault_events": len(faulted.fault_events),
        "faulted_nmse_max": faulted.nmse_envelope,
        "neutral_results": neutral_results,
        "neutral_counters": neutral_counters,
    }
    lines = [
        "Fleet lifetime - predictive maintenance, faults and retirement "
        f"over {STEPS * STEP_S:.1e} s",
        f"  problem               : A {M}x{N}, {SHARDS} shards, "
        f"window {WINDOW}, B={BATCH}/step",
        f"  wall-clock envelope   : {wall.nmse_envelope:8.2e} NMSE, "
        f"{wall_policy.n_calibration_probes} probes "
        f"({wall_energy * 1e6:.2f} uJ maintenance)",
        f"  predictive envelope   : {pred.nmse_envelope:8.2e} NMSE, "
        f"{pred_policy.n_calibration_probes} probes "
        f"({pred_energy * 1e6:.2f} uJ maintenance)",
        f"  probe saving          : {probe_saving:.1f}x "
        f"(required >= {MIN_PROBE_SAVING}x)",
        f"  faulted availability  : {faulted.availability * 100:.1f} % "
        f"across {len(faulted.fault_events)} fault events",
        f"  retirements           : {len(faulted.retirements)} "
        f"(first at step {retire_step}), {survivors} survivors",
        f"  neutrality (results)  : {neutral_results}",
        f"  neutrality (counters) : {neutral_counters}",
    ]
    write_result(
        "lifetime",
        "\n".join(lines),
        config={
            "m": M,
            "n": N,
            "shards": SHARDS,
            "window": WINDOW,
            "batch": BATCH,
            "step_s": STEP_S,
            "steps": STEPS,
            "wall_clock_s": WALL_CLOCK_S,
            "gain_budget": GAIN_BUDGET,
            "fault_rate_per_s": FAULT_RATE,
            "fault_fraction": FAULT_FRACTION,
        },
        gates={
            "predictive_nmse_max": ("lower", 1.0),
            "probe_saving": ("higher", 0.5),
            "faulted_availability": ("equal", 1e-9),
            "faulted_retirements": ("higher", 0.5),
            "neutral_results": ("equal", 0.5),
            "neutral_counters": ("equal", 0.5),
        },
        gate_json=payload,
        kind="lifetime",
    )

    # gate 1: equal-or-better envelope, >= 20 % fewer probes
    assert pred.nmse_envelope <= wall.nmse_envelope
    assert probe_saving >= MIN_PROBE_SAVING
    # gate 2: full availability through at least one retirement
    assert faulted.availability == 1.0
    assert len(faulted.retirements) >= 1
    assert 1 <= survivors < SHARDS
    assert faulted_policy.n_retirements == len(faulted.retirements)
    # gate 3: idle machinery is bitwise free
    assert neutral_results
    assert neutral_counters
