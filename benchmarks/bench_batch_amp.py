"""Batched AMP recovery benchmark: fleet solves on the matmat pipeline.

AMP is sequential in its own iterations but embarrassingly parallel
*across problems* sharing one measurement matrix — the CIM serving
scenario where ``A`` is programmed once and B users' measurements
arrive together.  This benchmark guards the batched solver end-to-end
and emits ``benchmarks/results/BENCH_batch_amp.json`` for CI archival:

* **speed** — recovering 64 signals with one ``amp_recover_batch`` on
  the crossbar backend must beat 64 looped ``amp_recover`` calls by at
  least 3x wall-clock (the median of the ratios of ``REPEATS``
  interleaved rounds, each on a fresh operator).  The looped side runs
  the same read model at B=1 (each ``matvec``/``rmatvec`` is a
  one-column block read), so the ratio measures per-call overhead
  against one wide GEMM: it measures 5.8-12x on a 2-vCPU host with one
  BLAS thread, and the floor keeps about half of that as margin for
  shared CI runners.  The gate skips, with the reason, when BLAS is not
  pinned to one thread or the host's speed moved during the run;
* **equivalence** — on the exact backend the batched estimates must
  match the looped solver column-for-column to <= 1e-10 relative error
  (they are identical trajectories up to gemm-vs-gemv rounding);
* **counter fidelity** — the batched crossbar run must consume exactly
  the looped run's DAC/ADC conversion and live-read counters, so the
  counter-driven energy accounting cannot tell the two apart.

Run (one BLAS thread, as CI does: on a shared 2-vCPU host a threaded
BLAS sometimes stalls every small GEMM by several milliseconds)::

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        PYTHONPATH=src python -m pytest -q benchmarks/bench_batch_amp.py
"""

import numpy as np

from _harness import SpeedGates, time_interleaved

from repro.crossbar import CrossbarOperator, DenseOperator
from repro.energy import CrossbarCostModel
from repro.signal import CsProblem, amp_recover, amp_recover_batch

BATCH = 64
N, M, K = 256, 128, 12
# Below the exact solver's convergence point, so every column runs the
# full cap on both paths and the equivalence gate is iteration-exact.
ITERATIONS = 12
MIN_SPEEDUP = 3.0
MAX_COLUMN_REL_ERROR = 1e-10
REPEATS = 5


def column_errors(estimates, references):
    norms = np.linalg.norm(references, axis=0)
    return np.linalg.norm(estimates - references, axis=0) / norms


def test_batch_amp_speed_and_equivalence(write_result):
    fleet = CsProblem.generate_batch(n=N, m=M, k=K, batch=BATCH, seed=0)
    speed_gates = SpeedGates()

    # -- wall-clock: looped vs batched, each on a fresh operator seeded
    # alike; the checks below read the warm-up round's operators ------
    timings, outputs = time_interleaved({
        "looped": lambda op: (op, [
            amp_recover(fleet.measurements[:, b], op, N, iterations=ITERATIONS)
            for b in range(BATCH)
        ]),
        "batched": lambda op: (
            op, amp_recover_batch(fleet.measurements, op, N, iterations=ITERATIONS)
        ),
    }, REPEATS, setup=dict.fromkeys(
        ("looped", "batched"), lambda: CrossbarOperator(fleet.matrix, seed=1)
    ))
    (looped_op, looped), (batched_op, batched) = outputs["looped"], outputs["batched"]
    looped_s, batched_s = timings["looped"].median, timings["batched"].median
    speedup = speed_gates.gate(
        "speedup", timings["looped"] / timings["batched"], MIN_SPEEDUP,
        shape=f"N={N}, M={M}, B={BATCH}",
    )

    # -- exact-backend column-wise equivalence --------------------------
    exact_batched = amp_recover_batch(
        fleet.measurements,
        DenseOperator(fleet.matrix),
        N,
        iterations=ITERATIONS,
        ground_truth=fleet.signals,
    )
    exact_looped = np.stack(
        [
            amp_recover(
                fleet.measurements[:, b],
                DenseOperator(fleet.matrix),
                N,
                iterations=ITERATIONS,
            ).estimate
            for b in range(BATCH)
        ],
        axis=1,
    )
    max_rel_error = float(column_errors(exact_batched.estimates, exact_looped).max())

    # -- crossbar fidelity + counter-driven pricing ---------------------
    crossbar_nmse = fleet.recovery_nmse(batched.estimates)
    model = CrossbarCostModel(rows=N, cols=M, devices_per_cell=2)
    counted = model.energy_from_stats(batched_op.stats)

    payload = {
        "batch": BATCH,
        "iterations": ITERATIONS,
        "looped_s": looped_s,
        "batched_s": batched_s,
        "speedup": speedup,
        "max_column_rel_error_exact": max_rel_error,
        "crossbar_nmse_mean": float(crossbar_nmse.mean()),
        "crossbar_nmse_max": float(crossbar_nmse.max()),
        "exact_nmse_mean": float(exact_batched.final_nmse.mean()),
        "counter_driven": {
            **counted,
            "dac_conversions": batched_op.stats["dac_conversions"],
            "adc_conversions": batched_op.stats["adc_conversions"],
        },
        "serial_readout_cycles": batched.readout_cycles("serial"),
        "parallel_readout_cycles": batched.readout_cycles("parallel"),
    }
    lines = [
        "Batched AMP recovery - batch-64 fleet benchmark",
        f"  problem               : N={N}, M={M}, k={K}, B={BATCH}, "
        f"{ITERATIONS} iterations",
        f"  looped amp_recover    : {looped_s * 1e3:8.1f} ms / fleet",
        f"  amp_recover_batch     : {batched_s * 1e3:8.1f} ms / fleet",
        f"  exact column error    : {max_rel_error:8.1e}  "
        f"(required <= {MAX_COLUMN_REL_ERROR:.0e})",
        f"  crossbar NMSE mean/max: {crossbar_nmse.mean():.1e} / "
        f"{crossbar_nmse.max():.1e}",
        f"  counter-driven energy : {counted['total_energy_j'] * 1e6:8.2f} uJ "
        f"({counted['total_energy_j'] / BATCH * 1e6:.3f} uJ / signal)",
    ]
    write_result(
        "batch_amp",
        "\n".join(lines),
        config={"n": N, "m": M, "k": K, "batch": BATCH, "iterations": ITERATIONS},
        # the speedup gate's band reaches down to about MIN_SPEEDUP
        gates={"speedup": ("higher", 0.6), "crossbar_nmse_max": ("lower", 1.0)},
        gate_json=payload,
        speed_gates=speed_gates,
    )

    assert max_rel_error <= MAX_COLUMN_REL_ERROR

    # batched counters are exactly the looped run's: the energy layer
    # cannot distinguish the two schedules' work
    assert batched_op.stats == looped_op.stats

    # every looped column stays in the device-noise regime the batched
    # run reports
    looped_nmse = np.array(
        [fleet.problem(b).recovery_nmse(looped[b].estimate) for b in range(BATCH)]
    )
    assert crossbar_nmse.max() < 5e-2
    assert looped_nmse.max() < 5e-2
    speed_gates.enforce()
