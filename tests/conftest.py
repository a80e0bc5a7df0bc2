"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.signal import amp_recover_batch, soft_threshold
from repro.signal.amp import AmpBatchResult


@pytest.fixture
def rng():
    """A deterministic RNG for tests that draw random data."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_matrix(rng):
    """A small signed matrix for crossbar tests."""
    return rng.standard_normal((12, 20))


def gather_scatter_amp_recover_batch(
    measurements, operator, n, iterations=30, threshold_factor=1.3,
    ground_truth=None, tolerance=1e-8, stagnation_window=None,
    stagnation_tolerance=0.05,
):
    """Batched AMP with a gather and a scatter per sweep (no argument checks).

    Every sweep gathers the active columns of ``z``, ``x``, ``y`` and the
    ground truth out of full ``(., B)`` arrays and scatters ``z`` and
    ``x`` back.  ``amp_recover_batch`` keeps those columns in contiguous
    working blocks instead and must reproduce this loop bit for bit.
    """
    y = np.asarray(measurements, dtype=float)
    m, batch = y.shape
    truth = None if ground_truth is None else np.asarray(ground_truth, dtype=float)
    x = np.zeros((n, batch))
    z = y.copy()
    iteration_counts = np.zeros(batch, dtype=int)
    converged = np.zeros(batch, dtype=bool)
    residual_norms = [[] for _ in range(batch)]
    thresholds = [[] for _ in range(batch)]
    nmse_histories = [[] for _ in range(batch)]
    active_counts = []
    active = np.arange(batch)
    pipelined = getattr(operator, "parallelism", "serial") == "threads"

    for _ in range(iterations):
        active_counts.append(int(active.size))
        z_active = z[:, active]
        x_active = x[:, active]
        sigma = np.linalg.norm(z_active, axis=0) / np.sqrt(m)
        tau = threshold_factor * sigma
        if pipelined:
            x_new, forward = operator.fused_sweep(
                z_active,
                lambda u, cols: soft_threshold(u + x_active[:, cols], tau[cols]),
            )
        else:
            pseudo_data = operator.rmatmat(z_active) + x_active
            x_new = soft_threshold(pseudo_data, tau)
            forward = operator.matmat(x_new)
        onsager = z_active * (np.count_nonzero(x_new, axis=0) / m)
        z[:, active] = y[:, active] - forward + onsager

        for position, column in enumerate(active):
            residual_norms[column].append(float(sigma[position]))
            thresholds[column].append(float(tau[position]))
        if truth is not None:
            truth_active = truth[:, active]
            errors = np.sum((x_new - truth_active) ** 2, axis=0) / np.sum(
                truth_active**2, axis=0
            )
            for position, column in enumerate(active):
                nmse_histories[column].append(float(errors[position]))

        delta = np.linalg.norm(x_new - x_active, axis=0)
        scale = np.linalg.norm(x_new, axis=0)
        x[:, active] = x_new
        iteration_counts[active] += 1
        with np.errstate(divide="ignore", invalid="ignore"):
            relative = np.where(scale > 0, delta / np.where(scale > 0, scale, 1.0),
                                np.inf)
        stalled = np.zeros(active.size, dtype=bool)
        if stagnation_window is not None:
            for position, column in enumerate(active):
                history = residual_norms[column]
                if len(history) > stagnation_window:
                    past = history[-1 - stagnation_window]
                    improvement = past - history[-1]
                    stalled[position] = improvement <= stagnation_tolerance * past
        done = (delta == 0.0) | (relative < tolerance) | stalled
        if done.any():
            converged[active[done]] = True
            active = active[~done]
            if active.size == 0:
                break

    return AmpBatchResult(
        estimates=x,
        iterations=iteration_counts,
        converged=converged,
        residual_norms=residual_norms,
        nmse_histories=nmse_histories,
        thresholds=thresholds,
        active_counts=active_counts,
    )


def generator_states(operator):
    """Bit-generator states of an operator's (or each shard's) RNG."""
    members = getattr(operator, "shards", [operator])
    return [
        member._rng.bit_generator.state for member in members if hasattr(member, "_rng")
    ]


def assert_matches_gather_scatter(make_operator, measurements, n, **kwargs):
    """Run ``amp_recover_batch`` and the gather/scatter reference on twin
    operators and assert every observable equal bit for bit.

    Compares the estimates (values and C-contiguity), iteration counts,
    convergence flags, the three histories, ``active_counts``, the
    operator counters and the generator states, and checks that the
    caller's ``measurements`` were not written.  Returns the result.
    """
    operator, twin = make_operator(), make_operator()
    untouched = measurements.copy(order="K")
    try:
        result = amp_recover_batch(measurements, operator, n, **kwargs)
        assert np.array_equal(measurements, untouched), "measurements were written"
        reference = gather_scatter_amp_recover_batch(measurements, twin, n, **kwargs)
    finally:
        for fleet in (operator, twin):
            getattr(fleet, "shutdown", lambda: None)()
    assert result.estimates.flags.c_contiguous
    assert reference.estimates.flags.c_contiguous
    assert np.array_equal(result.estimates, reference.estimates)
    assert np.array_equal(result.iterations, reference.iterations)
    assert np.array_equal(result.converged, reference.converged)
    assert result.residual_norms == reference.residual_norms
    assert result.thresholds == reference.thresholds
    assert result.nmse_histories == reference.nmse_histories
    assert result.active_counts == reference.active_counts
    assert operator.stats == twin.stats
    assert generator_states(operator) == generator_states(twin)
    return result


@pytest.fixture
def gather_scatter_amp():
    """``assert_matches_gather_scatter``: ``amp_recover_batch`` against a
    gather/scatter sweep loop on twin operators, bit for bit."""
    return assert_matches_gather_scatter
