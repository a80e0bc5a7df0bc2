"""Compressed sensing with AMP on a PCM crossbar (Sec. III.B, Fig. 6).

Programs the measurement matrix into a differential crossbar once, then
runs approximate message passing with both matrix products — A x_t on
the columns and A* z_t on the rows — computed by the same array.
Compares recovery quality against exact floating-point AMP and reports
the Table I energy advantage of the crossbar over the FPGA design.

Run:  python examples/compressed_sensing.py
"""

import numpy as np

from repro.core import format_series, format_table
from repro.crossbar import (
    CrossbarOperator,
    DenseOperator,
    FleetMaintenance,
    ShardedOperator,
)
from repro.energy import CrossbarCostModel, FpgaMvmDesign
from repro.signal import CsProblem, amp_recover, amp_recover_batch

# --- problem setup ---------------------------------------------------------
problem = CsProblem.generate(n=512, m=256, k=24, noise_std=0.0, seed=7)
print(
    f"recovering a {problem.sparsity}-sparse signal of dimension {problem.n} "
    f"from {problem.m} measurements (delta = {problem.undersampling:.2f})"
)

# --- exact baseline ---------------------------------------------------------
exact = amp_recover(
    problem.measurements,
    DenseOperator(problem.matrix),
    problem.n,
    iterations=30,
    ground_truth=problem.signal,
)
print(f"\nexact AMP:    final NMSE = {exact.final_nmse:.3e}")

# --- crossbar execution ------------------------------------------------------
operator = CrossbarOperator(problem.matrix, dac_bits=8, adc_bits=8, seed=8)
analog = amp_recover(
    problem.measurements,
    operator,
    problem.n,
    iterations=30,
    ground_truth=problem.signal,
)
print(f"crossbar AMP: final NMSE = {analog.final_nmse:.3e} "
      f"({operator.n_matvec} column reads, {operator.n_rmatvec} row reads)")

print("\nNMSE vs iteration (first 10):")
print(format_series("  exact   ", exact.nmse_history[:10], precision=2))
print(format_series("  crossbar", analog.nmse_history[:10], precision=2))

# --- Table I energy comparison ------------------------------------------------
fpga = FpgaMvmDesign()
crossbar = CrossbarCostModel()
mvms = operator.n_matvec + operator.n_rmatvec
rows = [
    ("FPGA 4-bit", f"{fpga.dynamic_power_w:.1f} W", f"{fpga.mvm_energy_j() * 1e6:.1f} uJ",
     f"{mvms * fpga.mvm_energy_j() * 1e6:.0f} uJ"),
    ("PCM crossbar", f"{crossbar.total_power_w * 1e3:.0f} mW",
     f"{crossbar.mvm_energy_j * 1e9:.0f} nJ",
     f"{mvms * crossbar.mvm_energy_j * 1e6:.2f} uJ"),
]
print()
print(format_table(
    ("engine", "power", "energy / MVM", f"energy / recovery ({mvms} MVMs)"),
    rows,
    title="Table I comparison (1024x1024 design point):",
))
print(f"crossbar advantage: {crossbar.power_advantage_over(fpga.dynamic_power_w):.0f}x power, "
      f"{crossbar.energy_advantage_over(fpga.mvm_energy_j()):.0f}x energy per MVM")

# --- batched fleet recovery ---------------------------------------------------
# AMP is sequential in t but parallel across problems: the matrix is
# programmed once, so a fleet of measurement vectors rides the
# matmat/rmatmat path, and converged signals leave the working set.
fleet = CsProblem.generate_batch(n=512, m=256, k=24, batch=16, seed=9)
fleet_operator = CrossbarOperator(fleet.matrix, dac_bits=8, adc_bits=8, seed=10)
recovered = amp_recover_batch(
    fleet.measurements,
    fleet_operator,
    fleet.n,
    iterations=30,
    ground_truth=fleet.signals,
)
nmse = recovered.final_nmse
print(
    f"\nbatched recovery of {fleet.batch} signals sharing the array: "
    f"NMSE mean {nmse.mean():.2e} / max {nmse.max():.2e}"
)
print(
    f"  {recovered.sweeps} sweeps; serial readout "
    f"{recovered.readout_cycles('serial')} cycles, parallel "
    f"{recovered.readout_cycles('parallel')} cycles"
)

# --- sharded fleet ------------------------------------------------------------
# Fleets larger than one array's batch window shard across replicas:
# the same matrix is programmed into n_shards arrays and the batch is
# window-scheduled across them.  Results and merged counters are
# identical to the single-array path on exact backends, so the energy
# accounting below prices the fleet without knowing it was sharded.
big_fleet = CsProblem.generate_batch(n=512, m=256, k=24, batch=48, seed=11)
sharded = ShardedOperator.from_matrix(
    big_fleet.matrix,
    n_shards=3,
    batch_window=16,
    dac_bits=8,
    adc_bits=8,
    seed=12,
)
sharded_result = amp_recover_batch(
    big_fleet.measurements,
    sharded,
    big_fleet.n,
    iterations=30,
    ground_truth=big_fleet.signals,
    stagnation_window=4,  # retire columns sitting at the noise floor
)
sized = CrossbarCostModel(rows=512, cols=256, devices_per_cell=2)
priced = sized.energy_from_stats(sharded.stats)
print(
    f"\nsharded fleet: {big_fleet.batch} signals across "
    f"{sharded.n_shards} arrays (window {sharded.batch_window}), "
    f"NMSE max {sharded_result.final_nmse.max():.2e}"
)
print(
    f"  per-shard active columns {list(sharded.loads)}; merged-counter "
    f"energy {priced['total_energy_j'] * 1e6:.2f} uJ "
    f"({priced['total_energy_j'] / big_fleet.batch * 1e6:.3f} uJ / signal)"
)

# --- parallel fleet: threaded cross-shard dispatch ----------------------------
# The shards are independent arrays, so their windows can execute
# concurrently: parallelism="threads" dispatches per-shard reads on a
# thread pool (window->shard scheduling stays serial and deterministic,
# and AMP sweeps pipeline through fused_sweep instead of barriering the
# fleet between rmatmat and matmat).  stream="per_shard" gives each
# replica its own RNG stream so concurrent shards never contend for one
# generator.  The merged counters feed the same pricing path, so the
# bill below sits next to the serial fleet's (different noise streams
# retire columns at slightly different sweeps); with a shared stream on
# an exact backend the whole run — results, counters, bill — is bitwise
# identical (tests/integration/test_parallel_dispatch.py pins this).
threaded = ShardedOperator.from_matrix(
    big_fleet.matrix,
    n_shards=3,
    batch_window=16,
    parallelism="threads",
    stream="per_shard",
    dac_bits=8,
    adc_bits=8,
    seed=12,
)
threaded_result = amp_recover_batch(
    big_fleet.measurements,
    threaded,
    big_fleet.n,
    iterations=30,
    ground_truth=big_fleet.signals,
    stagnation_window=4,
)
threaded.shutdown()
threaded_bill = sized.energy_from_stats(threaded.stats)
print(
    f"\nthreaded fleet: same {big_fleet.batch} signals with concurrent "
    f"per-shard reads, NMSE max {threaded_result.final_nmse.max():.2e}"
)
print(
    f"  bill {threaded_bill['total_energy_j'] * 1e6:.2f} uJ vs serial fleet "
    f"{priced['total_energy_j'] * 1e6:.2f} uJ (same counter-driven pricing)"
)

# --- fleet lifecycle: drift, staleness, scheduled recalibration ---------------
# PCM conductances relax over time, so a fleet left serving for a week
# drifts out of calibration and recovery quality collapses.  Attaching
# a FleetMaintenance policy recalibrates shards whose staleness crosses
# the limit, between dispatch windows (a reprogram_after_s /
# gain_error_threshold would additionally escalate deep drift to a full
# rewrite) — and the bill splits into readout vs maintenance because
# the policy captures the counter deltas of every action.
stale = ShardedOperator.from_matrix(
    big_fleet.matrix, n_shards=3, batch_window=16,
    schedule="greedy", dac_bits=8, adc_bits=8, seed=12,
)
maintained = ShardedOperator.from_matrix(
    big_fleet.matrix, n_shards=3, batch_window=16,
    schedule="greedy", dac_bits=8, adc_bits=8, seed=12,
)
policy = FleetMaintenance(maintained, recalibrate_after_s=1e4, n_probes=16,
                          seed=13)
week = 6.05e5
stale.advance_time(week)
maintained.advance_time(week)
stale_result = amp_recover_batch(
    big_fleet.measurements, stale, big_fleet.n, iterations=30,
    ground_truth=big_fleet.signals, stagnation_window=4,
)
maintained_result = amp_recover_batch(
    big_fleet.measurements, maintained, big_fleet.n, iterations=30,
    ground_truth=big_fleet.signals, stagnation_window=4,
)
total = sized.energy_from_stats(maintained.stats)
upkeep = sized.energy_from_stats(policy.stats)
print(
    f"\nafter a week of drift: stale fleet NMSE max "
    f"{stale_result.final_nmse.max():.2e}; recalibrated fleet "
    f"{maintained_result.final_nmse.max():.2e} "
    f"({policy.n_calibrations} calibrations x {policy.n_probes} probes, "
    f"gains {[f'{g:.2f}' for g in maintained.shard_gains]})"
)
print(
    f"  bill: {total['total_energy_j'] * 1e6:.2f} uJ total = "
    f"{(total['total_energy_j'] - upkeep['total_energy_j']) * 1e6:.2f} uJ "
    f"readout + {upkeep['total_energy_j'] * 1e6:.2f} uJ maintenance "
    f"({upkeep['total_energy_j'] / total['total_energy_j'] * 100:.1f}%)"
)

# --- fleet lifetime: predictive maintenance, faults and retirement ------------
# The drift law is known in closed form, so maintenance does not need a
# wall clock: a DriftPredictor forecasts each shard's gain error from
# the target conductances alone, and the policy calibrates just before
# the forecast crosses the budget — intervals stretch geometrically
# with age (power-law drift), where a wall clock would keep probing at
# the early-life cadence forever.  Poisson-arriving stuck-device faults
# (permanent, rewrite-surviving) are escalated calibrate -> reprogram ->
# verify; a shard that cannot verify is retired and the fleet serves on
# with the survivors.
from repro.crossbar import DriftPredictor, FaultInjector, LifetimeSimulator

aging = ShardedOperator.from_matrix(
    big_fleet.matrix, n_shards=3, batch_window=16,
    schedule="greedy", dac_bits=8, adc_bits=8,
    stream="per_shard", seed=14,
)
lifecycle = FleetMaintenance(
    aging,
    gain_error_budget=0.01,           # predictive trigger: model decides
    calibration_error_threshold=0.3,  # non-scalar damage -> reprogram
    verify_error_budget=0.2,          # can't verify -> retire the shard
    n_probes=16, seed=15,
)
forecast = DriftPredictor.from_operator(aging.shards[0])
print(
    f"\ndrift forecast: after a week uncompensated, gain error "
    f"{forecast.gain_error(6.05e5) * 100:.1f}%; at 1% budget the next "
    f"recalibration is due {forecast.seconds_until(0.01, 6.05e5) / 3600:.1f} h "
    f"after a fresh week-old calibration"
)
faults = FaultInjector(aging, rate_per_s=2e-6, fraction_per_event=2e-2,
                       seed=16)
life = LifetimeSimulator(aging, injector=faults, step_seconds=3.6e3,
                         batch=32, seed=17).run(n_steps=168)  # one week
upkeep = sized.energy_from_stats(lifecycle.stats)
print(
    f"one simulated week under faults: availability "
    f"{life.availability * 100:.1f}%, worst NMSE {life.nmse_envelope:.2e}, "
    f"{len(life.fault_events)} fault events, "
    f"{len(life.retirements)} shard(s) retired, "
    f"{aging.n_active_shards} still serving"
)
print(
    f"  maintenance: {lifecycle.n_calibrations} calibrations, "
    f"{lifecycle.n_reprograms} reprograms, {lifecycle.n_retirements} "
    f"retirements ({upkeep['total_energy_j'] * 1e6:.2f} uJ)"
)

# --- fleet as a service: coalesced requests, tenants, billing -----------------
# Production traffic is not one tidy batch: independent clients submit
# single vectors.  The serving layer coalesces them into batch_window
# blocks under a latency budget (so batching adds at most the budget to
# any request), demultiplexes per-request results, and meters every
# tenant's share of the fleet's counters — the same counters the energy
# model prices, so per-tenant bills fall out of the same machinery.
from repro.serving import FleetServer, VirtualClock

serving_fleet = ShardedOperator.from_matrix(
    big_fleet.matrix, n_shards=3, batch_window=16,
    dac_bits=8, adc_bits=8, stream="per_shard", seed=18,
)
server = FleetServer(
    serving_fleet, VirtualClock(),
    coalesce_budget_s=0.05,    # max latency batching may add
    window_service_s=0.01,     # modelled readout time per window
    slo_s=0.2,
)
arrival_rng = np.random.default_rng(19)
trace = []
t = 0.0
for i in range(64):
    t += float(arrival_rng.exponential(0.004))
    tenant = "amp" if i % 3 else "analytics"
    trace.append((t, tenant, "matvec", arrival_rng.standard_normal(512)))
server.replay(trace)
summary = server.latency_summary()
print(
    f"\nserved {summary['n_served']:.0f} single-vector requests in "
    f"{len(server.block_log)} coalesced blocks: p50 "
    f"{summary['latency_p50_s'] * 1e3:.0f} ms, p99 "
    f"{summary['latency_p99_s'] * 1e3:.0f} ms, "
    f"{summary['slo_violations']:.0f} SLO violations"
)
for tenant in server.tenants:
    bill = sized.energy_from_stats(server.tenant_stats(tenant))
    counts = server.tenant_requests(tenant)
    print(
        f"  {tenant:9s}: {counts['served']} served, "
        f"{bill['total_energy_j'] * 1e6:.2f} uJ billed"
    )
