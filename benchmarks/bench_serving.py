"""Fleet-as-a-service trend line: coalesced serving vs per-request dispatch.

The serving layer's whole argument is that a crossbar fleet behind a
request queue should cost what batched dispatch costs, not what
per-request dispatch costs.  This benchmark pins that argument three
ways and emits ``benchmarks/results/BENCH_serving.json`` plus a
``kind="serving"`` trend row:

* **Wall-clock throughput** — K single-vector clients served through
  the coalescing :class:`FleetServer` (submit + step + flush, all
  serving overhead included) versus the same K requests dispatched one
  ``matvec`` at a time on an identical fleet (the median of the
  ratios of ``REPEATS`` interleaved rounds).  Gate, core-aware like the
  fleet-throughput bench (the GEMM-vs-GEMV win needs no threads, so
  the floor stays meaningful on one core):

  - >= 4 cores: coalesced serving must be >= 3.0x per-request dispatch;
  - 2-3 cores: >= 2.0x;
  - 1 core: >= 1.5x (overhead bound: coalescing must still clearly win).

  Both sides run dense GEMMs, so the gate skips, with the reason, when
  BLAS is not pinned to one thread, and when the host's speed moved
  during the run.

* **Latency vs offered load, simulated** — a Poisson arrival trace on
  the virtual clock sweeps offered load from 20% to 200% of the
  service-model capacity (``block_columns / window_service_s``).  The
  p50/p99 queue+service latencies and the served throughput per load
  level are *deterministic* (same trace, same clock), so the gates are
  exact: p99 must stay within the SLO at every load below the knee
  (<= 80% capacity), and served throughput must saturate at >= 90% of
  capacity when offered 2x capacity.

* **Neutrality and conservation** — an idle serving layer must leave
  its fleet bitwise identical to a bare one, and the per-tenant
  counter ledgers of the load sweep must sum exactly (integer
  equality) to the fleet's merged counter deltas.

Run (one BLAS thread, as CI does)::

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        PYTHONPATH=src python -m pytest -q benchmarks/bench_serving.py
"""

import numpy as np

from _harness import SpeedGates, time_interleaved

from repro.crossbar import ShardedOperator
from repro.serving import FleetServer, VirtualClock

# Wall-clock comparison shape: large enough that GEMV vs GEMM matters,
# small enough for a CI smoke step.
N = M = 1024
N_SHARDS = 2
BATCH_WINDOW = 64
N_REQUESTS = 512
REPEATS = 5

# {fewest cores: floor}; on 1 core batching alone must still win.
MIN_SPEEDUPS = {4: 3.0, 2: 2.0, 1: 1.5}

# Simulated load sweep (virtual clock; deterministic).
SIM_N = 128
SIM_WINDOW = 32
SIM_WINDOW_SERVICE_S = 0.025  # capacity = 32 / 0.025 = 1280 req/s
SIM_COALESCE_BUDGET_S = 0.1
SIM_SLO_S = 0.5
SIM_REQUESTS = 1500
LOAD_FRACTIONS = (0.2, 0.5, 0.8, 1.2, 2.0)
KNEE_FRACTION = 0.8
MIN_SATURATED_FRACTION = 0.9
TENANTS = ("alice", "bob", "carol")


def make_fleet(matrix, batch_window):
    return ShardedOperator.from_matrix(
        matrix, n_shards=N_SHARDS, batch_window=batch_window, backend="exact"
    )


def poisson_trace(fleet, rate_rps, n_requests, seed):
    """A seeded Poisson arrival trace over the tenant mix."""
    rng = np.random.default_rng(seed)
    n = fleet.shape[1]
    t = 0.0
    events = []
    for _ in range(n_requests):
        t += float(rng.exponential(1.0 / rate_rps))
        tenant = TENANTS[int(rng.integers(len(TENANTS)))]
        events.append((t, tenant, "matvec", rng.standard_normal(n)))
    return events


def simulate_load(matrix, fraction, capacity_rps):
    fleet = make_fleet(matrix, SIM_WINDOW)
    server = FleetServer(
        fleet,
        VirtualClock(),
        coalesce_budget_s=SIM_COALESCE_BUDGET_S,
        window_service_s=SIM_WINDOW_SERVICE_S,
        slo_s=SIM_SLO_S,
    )
    rate = fraction * capacity_rps
    events = poisson_trace(fleet, rate, SIM_REQUESTS, seed=round(fraction * 10))
    results = server.replay(events)
    makespan = max(result.completed_at_s for result in results)
    summary = server.latency_summary()
    return server, fleet, {
        "offered_fraction": fraction,
        "offered_rps": rate,
        "served_rps": len(results) / makespan,
        "p50_s": summary["latency_p50_s"],
        "p99_s": summary["latency_p99_s"],
        "max_s": summary["latency_max_s"],
        "queue_mean_s": summary["queue_latency_mean_s"],
        "slo_violations": summary["slo_violations"],
    }


def test_serving_throughput_latency_and_neutrality(write_result):
    rng = np.random.default_rng(0)
    speed_gates = SpeedGates()
    cores = speed_gates.nproc
    required = speed_gates.core_floor(MIN_SPEEDUPS)

    # -- wall-clock: coalesced serving vs per-request dispatch ---------
    matrix = rng.standard_normal((M, N))
    vectors = [rng.standard_normal(N) for _ in range(N_REQUESTS)]

    def per_request():
        fleet = make_fleet(matrix, BATCH_WINDOW)
        for vector in vectors:
            fleet.matvec(vector)

    def coalesced():
        fleet = make_fleet(matrix, BATCH_WINDOW)
        server = FleetServer(
            fleet, VirtualClock(), coalesce_budget_s=1.0, window_service_s=1.0
        )
        for vector in vectors:
            server.submit(vector)
            server.step()
        server.flush()

    timings, _ = time_interleaved({"per_request": per_request, "coalesced": coalesced},
                                  REPEATS)
    per_request_s = timings["per_request"].median
    coalesced_s = timings["coalesced"].median
    speedup = speed_gates.gate(
        "coalesced_speedup", timings["per_request"] / timings["coalesced"], required,
        shape=f"A {M}x{N}, {N_REQUESTS} requests",
    )
    gate_passed = speedup >= required

    # -- simulated latency/throughput vs offered load ------------------
    sim_matrix = rng.standard_normal((SIM_N, SIM_N))
    capacity_rps = SIM_WINDOW / SIM_WINDOW_SERVICE_S
    load_curve = []
    below_knee_p99 = []
    conservation_ok = True
    saturated_rps = 0.0
    for fraction in LOAD_FRACTIONS:
        server, fleet, entry = simulate_load(sim_matrix, fraction, capacity_rps)
        load_curve.append(entry)
        if fraction <= KNEE_FRACTION:
            below_knee_p99.append(entry["p99_s"])
        saturated_rps = max(saturated_rps, entry["served_rps"])
        merged = server.served_counters
        for key, value in merged.items():
            conservation_ok &= (
                sum(
                    server.tenant_stats(tenant).get(key, 0)
                    for tenant in server.tenants
                )
                == value
            )
        for key in ("n_matvec", "dac_conversions", "adc_conversions"):
            conservation_ok &= merged.get(key, 0) == fleet.stats.get(key, 0)
    worst_below_knee_p99 = max(below_knee_p99)
    p99_below_knee_ok = worst_below_knee_p99 <= SIM_SLO_S
    saturation_ok = saturated_rps >= MIN_SATURATED_FRACTION * capacity_rps

    # -- idle serving layer is bitwise free ----------------------------
    served_fleet = make_fleet(sim_matrix, SIM_WINDOW)
    bare_fleet = make_fleet(sim_matrix, SIM_WINDOW)
    FleetServer(served_fleet, VirtualClock(), coalesce_budget_s=0.1)
    probe_block = rng.standard_normal((SIM_N, 8))
    idle_neutral = bool(
        np.array_equal(
            served_fleet.matmat(probe_block), bare_fleet.matmat(probe_block)
        )
    ) and served_fleet.stats == bare_fleet.stats

    payload = {
        "shape": {"m": M, "n": N, "requests": N_REQUESTS},
        "cores": cores,
        "gate": {
            "mode": "coalesced vs per-request",
            "required": required,
            "measured": speedup,
            "passed": gate_passed,
        },
        "per_request_rps": N_REQUESTS / per_request_s,
        "coalesced_rps": N_REQUESTS / coalesced_s,
        "coalesced_speedup": speedup,
        "sim": {
            "n": SIM_N,
            "block_columns": SIM_WINDOW,
            "window_service_s": SIM_WINDOW_SERVICE_S,
            "coalesce_budget_s": SIM_COALESCE_BUDGET_S,
            "slo_s": SIM_SLO_S,
            "capacity_rps": capacity_rps,
            "requests_per_level": SIM_REQUESTS,
        },
        "load_curve": load_curve,
        "p99_below_knee_s": worst_below_knee_p99,
        "p99_below_knee_ok": p99_below_knee_ok,
        "saturated_rps": saturated_rps,
        "saturation_ok": saturation_ok,
        "tenant_counters_exact": conservation_ok,
        "idle_neutral": idle_neutral,
    }
    lines = [
        "Fleet serving - coalesced requests vs per-request dispatch",
        f"  problem               : A {M}x{N}, {N_REQUESTS} single-vector clients, "
        f"{N_SHARDS} shards, window {BATCH_WINDOW}",
        f"  per-request dispatch  : {N_REQUESTS / per_request_s:8.0f} req/s",
        f"  coalesced serving     : {N_REQUESTS / coalesced_s:8.0f} req/s",
        f"  simulated load sweep  : capacity {capacity_rps:.0f} req/s, "
        f"SLO {SIM_SLO_S:g} s, budget {SIM_COALESCE_BUDGET_S:g} s "
        f"(virtual clock, deterministic)",
    ]
    for entry in load_curve:
        lines.append(
            f"  load {entry['offered_fraction']:.1f}x capacity    : "
            f"served {entry['served_rps']:7.1f} req/s | "
            f"p50 {entry['p50_s'] * 1e3:7.1f} ms | "
            f"p99 {entry['p99_s'] * 1e3:7.1f} ms"
        )
    lines += [
        f"  p99 below knee        : {worst_below_knee_p99 * 1e3:.1f} ms vs SLO "
        f"{SIM_SLO_S * 1e3:.0f} ms -> {'PASS' if p99_below_knee_ok else 'FAIL'}",
        f"  saturated throughput  : {saturated_rps:.1f} req/s "
        f"(>= {MIN_SATURATED_FRACTION:.0%} of capacity) -> "
        f"{'PASS' if saturation_ok else 'FAIL'}",
        f"  tenant counters exact : {conservation_ok}",
        f"  idle server neutral   : {idle_neutral}",
    ]
    write_result(
        "serving",
        "\n".join(lines),
        kind="serving",
        config={
            "m": M,
            "n": N,
            "n_shards": N_SHARDS,
            "batch_window": BATCH_WINDOW,
            "n_requests": N_REQUESTS,
            "cores": cores,
            "sim_capacity_rps": capacity_rps,
        },
        metrics={
            "coalesced_speedup": speedup,
            "gate_passed": gate_passed,
        },
        gates={
            "coalesced_speedup": ("higher", 0.9),
            "gate_passed": ("equal", 0.5),
            "p99_below_knee_s": ("lower", 0.1),
            "saturated_rps": ("higher", 0.1),
            "p99_below_knee_ok": ("equal", 0.5),
            "tenant_counters_exact": ("equal", 0.5),
            "idle_neutral": ("equal", 0.5),
        },
        gate_json=payload,
        speed_gates=speed_gates,
    )

    # Determinism-backed gates never relax, whatever the runner.
    assert idle_neutral
    assert conservation_ok
    assert p99_below_knee_ok
    assert saturation_ok
    speed_gates.enforce()
