"""Smoke benchmark: batched analog pipeline vs the per-sample loop.

The batched MVM path (``CrossbarOperator.matmat`` and
``CimNetwork.forward_batch``) exists to amortize periphery and Python
overhead across a whole batch — the crossbar's inherent parallelism.
This benchmark guards three properties at once:

* **speed** — a batch-64 ``forward_batch`` must beat streaming the same
  64 samples through ``forward_one`` by at least 8x (the median of the
  ratios of ``REPEATS`` interleaved rounds).  The looped side runs the
  same read model at B=1 (each ``matvec`` is a one-column block read),
  so the ratio measures per-call overhead against one wide GEMM per
  layer: it measures 17-20x on a 2-vCPU host with one BLAS thread, and
  the floor keeps about half of that as margin for shared CI runners.
  The gate skips, with the reason, when BLAS is not pinned to one thread
  or the host's speed moved during the run;
* **equivalence** — with deterministic reads the batched path must
  reproduce the looped path to well under the 5% divergence gate (both
  run the same block read, so they agree to rounding; any >5% drift
  fails the build);
* **fidelity under noise** — with the default noisy PCM device, batched
  and looped results (the warm-up round's) are two read-noise
  realizations of the same computation, so each must sit equally close
  to the exact digital reference: batching may not add systematic
  error.

Run (one BLAS thread, as CI does: on a shared 2-vCPU host a threaded
BLAS sometimes stalls every small GEMM by several milliseconds)::

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        PYTHONPATH=src python -m pytest -q benchmarks/bench_batched_mvm.py
"""

import numpy as np

from _harness import SpeedGates, time_interleaved

from repro.crossbar import CrossbarOperator
from repro.devices import PcmDevice
from repro.ml.nn import CimNetwork, Sequential

BATCH = 64
MIN_SPEEDUP = 8.0
MAX_DIVERGENCE = 0.05
REPEATS = 9


def relative_divergence(estimate, reference):
    return float(np.linalg.norm(estimate - reference) / np.linalg.norm(reference))


def test_batched_vs_looped_smoke(write_result):
    rng = np.random.default_rng(0)
    network = Sequential.mlp([64, 96, 10], seed=1)
    inputs = rng.standard_normal((BATCH, 64))
    digital = network.forward(inputs)
    speed_gates = SpeedGates()

    looped = CimNetwork(network, seed=2)
    batched = CimNetwork(network, seed=2)
    timings, outputs = time_interleaved({
        "looped": lambda: np.stack([looped.forward_one(x) for x in inputs]),
        "batched": lambda: batched.forward_batch(inputs),
    }, REPEATS)
    reference, logits = outputs["looped"], outputs["batched"]
    looped_s, batched_s = timings["looped"].median, timings["batched"].median
    speedup = speed_gates.gate(
        "speedup", timings["looped"] / timings["batched"], MIN_SPEEDUP,
        shape=f"{network.layer_dims} MLP, B={BATCH}",
    )

    # Deterministic-read twins: the batched path must reproduce the
    # looped path within the CI divergence gate (it is exact).
    quiet = PcmDevice(read_noise_sigma=0.0)
    quiet_batched = CimNetwork(network, device=quiet, seed=2)
    quiet_looped = CimNetwork(network, device=quiet, seed=2)
    quiet_reference = np.stack(
        [quiet_looped.forward_one(sample) for sample in inputs]
    )
    exact_divergence = relative_divergence(
        quiet_batched.forward_batch(inputs), quiet_reference
    )

    looped_error = relative_divergence(reference, digital)
    batched_error = relative_divergence(logits, digital)

    lines = [
        "Batched analog MVM pipeline - batch-64 smoke benchmark",
        f"  network              : {network.layer_dims} MLP on PCM crossbars",
        f"  looped forward_one   : {looped_s * 1e3:8.2f} ms / batch",
        f"  forward_batch        : {batched_s * 1e3:8.2f} ms / batch",
        f"  exact-path divergence: {exact_divergence:8.2%}  (required <= {MAX_DIVERGENCE:.0%})",
        f"  looped error vs exact: {looped_error:8.2%}",
        f"  batched error vs exact: {batched_error:7.2%}  (may not exceed looped + 1%)",
    ]
    write_result(
        "batched_mvm",
        "\n".join(lines),
        config={"batch": BATCH, "layer_dims": list(network.layer_dims)},
        metrics={
            "speedup": speedup,
            "looped_s": looped_s,
            "batched_s": batched_s,
            "exact_divergence": exact_divergence,
            "looped_error": looped_error,
            "batched_error": batched_error,
        },
        gates={
            # the band reaches down to about MIN_SPEEDUP
            "speedup": ("higher", 0.6),
            "exact_divergence": ("lower", 1.0),
        },
        speed_gates=speed_gates,
    )

    assert exact_divergence <= MAX_DIVERGENCE
    assert batched_error <= looped_error + 0.01
    speed_gates.enforce()


def test_matmat_columns_track_looped_matvec():
    """Column-by-column fidelity and counter equivalence on one operator."""
    rng = np.random.default_rng(3)
    matrix = rng.standard_normal((256, 256))
    x_block = rng.standard_normal((256, BATCH))

    batched = CrossbarOperator(matrix, seed=4)
    looped = CrossbarOperator(matrix, seed=4)
    result = batched.matmat(x_block)
    reference = np.stack(
        [looped.matvec(x_block[:, i]) for i in range(BATCH)], axis=1
    )

    diff = np.linalg.norm(result - reference, axis=0) / np.linalg.norm(
        reference, axis=0
    )
    assert diff.max() <= MAX_DIVERGENCE

    for key in ("n_matvec", "dac_conversions", "adc_conversions"):
        assert batched.stats[key] == looped.stats[key], key
