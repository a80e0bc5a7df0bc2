"""First-order approximate message passing (AMP) recovery.

Implements the iteration of Sec. III.B.1 (Donoho, Maleki & Montanari,
PNAS 2009)::

    z_t     = y - A x_t + (N/M) z_{t-1} < eta'_{t-1}(A* z_{t-1} + x_{t-1}) >
    x_{t+1} = eta_t(A* z_t + x_t)

with the soft-threshold denoiser ``eta_t(v) = sign(v) max(|v|-tau_t, 0)``
and threshold ``tau_t = alpha * ||z_t||_2 / sqrt(M)`` (the usual
residual-based policy).  For the soft threshold,
``< eta' >`` equals the fraction of components above threshold, so the
Onsager term reduces to ``z_{t-1} * ||x_t||_0 / M``.

The matrix products ``A x_t`` and ``A* z_t`` go through an *operator*
exposing ``matvec``/``rmatvec`` — either the exact
:class:`~repro.crossbar.DenseOperator` or the memristive
:class:`~repro.crossbar.CrossbarOperator`, which is exactly the Fig. 6
system: "the AMP algorithm is run in a dedicated processing unit, while
the computation of q_t = A x_t and u_t = A* z_t is performed using the
(same) crossbar array."

While each recovery is inherently sequential *in t*, AMP is
embarrassingly parallel *across problems* sharing one measurement
matrix — the natural CIM serving scenario, where ``A`` is programmed
once into the array and many users' measurement vectors arrive
concurrently.  :func:`amp_recover_batch` recovers B signals at once by
driving the operator's ``matmat``/``rmatmat`` with the whole working
set: per-column thresholds, per-column Onsager terms, and active-set
convergence masking (converged columns leave the working set, so later
iterations run narrower matmats).  On an exact backend the batched
solver is loop-equivalent: column ``b`` follows precisely the
trajectory :func:`amp_recover` would produce for measurement ``b``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util import (
    check_finite, check_in, check_int, check_nonnegative, check_positive, nmse,
)

__all__ = ["AmpBatchResult", "AmpResult", "amp_recover", "amp_recover_batch",
           "soft_threshold"]


def soft_threshold(values: np.ndarray, tau: float | np.ndarray) -> np.ndarray:
    """Soft-threshold denoiser ``eta(v) = sign(v) * max(|v| - tau, 0)``.

    ``tau`` may be a scalar, or — for a 2-D ``values`` block of shape
    ``(n, B)`` — a length-B vector applying one threshold per column
    (the batched AMP iteration thresholds each problem at its own
    residual level).  Every threshold must be non-negative (NaN is
    rejected too).
    """
    tau = np.asarray(tau, dtype=float)
    if not np.all(tau >= 0):
        raise ValueError("tau must be non-negative")
    values = np.asarray(values, dtype=float)
    return np.sign(values) * np.maximum(np.abs(values) - tau, 0.0)


@dataclass
class AmpResult:
    """Outcome of an AMP recovery run.

    Attributes
    ----------
    estimate:
        Final signal estimate ``x_T``.
    residual_norms:
        ``||z_t||_2 / sqrt(M)`` per iteration (the noise-level track).
    nmse_history:
        Recovery NMSE per iteration when ground truth was supplied.
    thresholds:
        The tau_t sequence actually used.
    converged:
        True when the stopping tolerance was reached before the
        iteration cap.
    """

    estimate: np.ndarray
    residual_norms: list[float] = field(default_factory=list)
    nmse_history: list[float] = field(default_factory=list)
    thresholds: list[float] = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self) -> int:
        return len(self.residual_norms)

    @property
    def final_nmse(self) -> float:
        if not self.nmse_history:
            raise ValueError("ground truth was not supplied to amp_recover")
        return self.nmse_history[-1]


@dataclass
class AmpBatchResult:
    """Outcome of a batched AMP recovery of B signals sharing one matrix.

    Attributes
    ----------
    estimates:
        Final estimate block of shape ``(n, B)`` — one recovered signal
        per column.
    iterations:
        Per-column iteration counts (columns leave the working set as
        they converge, so counts are generally unequal).
    converged:
        Per-column convergence flags.
    residual_norms / nmse_histories / thresholds:
        Per-column histories (list of B lists), identical in meaning to
        the :class:`AmpResult` fields.
    active_counts:
        Working-set width at each global sweep — ``active_counts[t]``
        columns went through the ``rmatmat``/``matmat`` pair of sweep
        ``t``.  This is the record the latency models price from.
    """

    estimates: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    residual_norms: list[list[float]]
    nmse_histories: list[list[float]]
    thresholds: list[list[float]]
    active_counts: list[int] = field(default_factory=list)

    @property
    def batch(self) -> int:
        return self.estimates.shape[1]

    @property
    def sweeps(self) -> int:
        """Global iterations executed (matmat/rmatmat call pairs)."""
        return len(self.active_counts)

    @property
    def all_converged(self) -> bool:
        return bool(self.converged.all())

    @property
    def final_nmse(self) -> np.ndarray:
        """Last tracked NMSE per column (ground truth required)."""
        if any(not history for history in self.nmse_histories):
            raise ValueError("ground truth was not supplied to amp_recover_batch")
        return np.array([history[-1] for history in self.nmse_histories])

    def readout_cycles(self, schedule: str = "serial") -> int:
        """Crossbar read cycles consumed by this run under a schedule.

        Each sweep issues one ``rmatmat`` and one ``matmat`` at the
        current working-set width: serial peripheral reuse digitizes the
        set back-to-back (width cycles per call), parallel converter
        banks digitize it in one cycle per call.  Active-set masking
        therefore shrinks serial latency directly, and frees converter
        banks under the parallel schedule.
        """
        check_in("schedule", schedule, ("serial", "parallel"))
        if schedule == "serial":
            return 2 * int(sum(self.active_counts))
        return 2 * self.sweeps


def _check_amp_parameters(
    n: int, m: int, iterations: int, threshold_factor: float, tolerance: float,
    stagnation_window: int | None, stagnation_tolerance: float,
) -> tuple[int, int, int | None]:
    """Validate the shared AMP arguments; returns the counts as ``int``."""
    n = check_int("n (signal dimensions)", n)
    if m < 1:
        raise ValueError("measurement dimensions must be >= 1")
    iterations = check_int("iterations", iterations)
    check_positive("threshold_factor", threshold_factor)
    check_nonnegative("tolerance", tolerance)
    if stagnation_window is not None:
        stagnation_window = check_int("stagnation_window", stagnation_window)
    check_nonnegative("stagnation_tolerance", stagnation_tolerance)
    return n, iterations, stagnation_window


def _residual_stalled(history: list[float], window: int, tolerance: float) -> bool:
    """True when the residual level stopped improving over ``window``.

    Compares this iteration's residual (``history[-1]``) against the one
    ``window`` iterations ago: an improvement of at most ``tolerance``
    (relative) — including any *worsening*, the signature of estimates
    jittering at the device-noise floor — counts as stagnation.
    """
    if len(history) <= window:
        return False
    past = history[-1 - window]
    return past - history[-1] <= tolerance * past


def amp_recover(
    measurements: np.ndarray,
    operator,
    n: int,
    iterations: int = 30,
    threshold_factor: float = 1.3,
    ground_truth: np.ndarray | None = None,
    tolerance: float = 1e-8,
    stagnation_window: int | None = None,
    stagnation_tolerance: float = 0.05,
) -> AmpResult:
    """Recover a sparse signal from ``y = A x0 + w`` using AMP.

    Parameters
    ----------
    measurements:
        Observed vector ``y`` of length M (use :func:`amp_recover_batch`
        for a ``(m, B)`` block).  Bad measurements or a ground truth
        that is not a finite ``(n,)`` vector raise ``ValueError`` before
        the operator is read.
    operator:
        Object with ``matvec`` (length-n -> length-M) and ``rmatvec``
        (length-M -> length-n); see module docstring.
    n:
        Signal dimension N.
    iterations:
        Maximum AMP iterations.
    threshold_factor:
        The alpha in ``tau_t = alpha * ||z_t|| / sqrt(M)``; 1.1-1.5
        works across the undersampling range used here.
    ground_truth:
        Optional ``x0`` of shape ``(n,)`` for NMSE tracking.
    tolerance:
        Stop when the estimate changes (in relative L2) by less than
        this between iterations.  An exactly unchanged estimate
        (``delta == 0``, e.g. the zero fixed point reached from
        ``y = 0``) always counts as converged.
    stagnation_window / stagnation_tolerance:
        Residual-stagnation stopping rule, off by default.  On a noisy
        crossbar the iterate-change rule never fires — estimates jitter
        at the device-noise floor forever — so with a window set, the
        run also stops once the residual level ``||z_t|| / sqrt(M)``
        has improved by less than ``stagnation_tolerance`` (relative)
        over the last ``stagnation_window`` iterations.
    """
    y = np.asarray(measurements, dtype=float)
    if y.ndim != 1:
        raise ValueError(
            "measurements must be a 1-D vector; use amp_recover_batch for a "
            "(m, B) block"
        )
    m = y.shape[0]
    n, iterations, stagnation_window = _check_amp_parameters(
        n, m, iterations, threshold_factor, tolerance,
        stagnation_window, stagnation_tolerance,
    )
    check_finite("measurements", y)
    if ground_truth is not None:
        ground_truth = np.asarray(ground_truth, dtype=float)
        if ground_truth.shape != (n,):
            raise ValueError(
                f"ground_truth must have shape ({n},), got {ground_truth.shape}"
            )
        check_finite("ground_truth", ground_truth)
        if np.sum(ground_truth**2) == 0.0:
            raise ValueError("reference signal has zero energy")

    x = np.zeros(n)
    z = y.copy()
    result = AmpResult(estimate=x)
    for _ in range(iterations):
        sigma = float(np.linalg.norm(z)) / np.sqrt(m)
        tau = threshold_factor * sigma
        pseudo_data = operator.rmatvec(z) + x
        x_new = soft_threshold(pseudo_data, tau)
        onsager = z * (np.count_nonzero(x_new) / m)
        z = y - operator.matvec(x_new) + onsager

        result.residual_norms.append(sigma)
        result.thresholds.append(tau)
        if ground_truth is not None:
            result.nmse_history.append(nmse(x_new, ground_truth))
        delta = float(np.linalg.norm(x_new - x))
        scale = float(np.linalg.norm(x_new))
        x = x_new
        stalled = stagnation_window is not None and _residual_stalled(
            result.residual_norms, stagnation_window, stagnation_tolerance
        )
        if delta == 0.0 or (scale > 0 and delta / scale < tolerance) or stalled:
            result.converged = True
            break
    result.estimate = x
    return result


def amp_recover_batch(
    measurements: np.ndarray,
    operator,
    n: int,
    iterations: int = 30,
    threshold_factor: float = 1.3,
    ground_truth: np.ndarray | None = None,
    tolerance: float = 1e-8,
    stagnation_window: int | None = None,
    stagnation_tolerance: float = 0.05,
) -> AmpBatchResult:
    """Recover B sparse signals sharing one measurement matrix with AMP.

    Runs the :func:`amp_recover` iteration on all columns of a
    ``(m, B)`` measurement block at once, replacing the per-problem
    ``rmatvec``/``matvec`` pair by one ``rmatmat``/``matmat`` pair over
    the current working set.  Thresholds ``tau_t`` and Onsager terms are
    computed per column, and **active-set convergence masking** removes
    a column from the working set the moment it meets the stopping rule
    — its estimate freezes, and subsequent sweeps drive narrower blocks
    through the array.

    Loop equivalence: on an exact backend every column follows the
    trajectory the looped solver would take, stops at the same
    iteration, and the operator's conversion counters total exactly the
    looped run's (one conversion per element per live column).  On a
    noisy crossbar the batched and looped runs are two read-noise
    realizations of the same computation.

    Sharded fleets built with ``parallelism="threads"`` additionally run
    each sweep through :meth:`~repro.crossbar.ShardedOperator.fused_sweep`,
    pipelining the ``rmatmat``/``matmat`` pair per shard so a sweep is
    no longer a whole-fleet barrier — same counters and schedule as the
    unfused sweep, and the same results bit for bit on exact-device
    backends.  On a noisy per-shard fleet the threaded recovery equals
    the serial one bit for bit where no shard reads two windows of one
    product in a sweep (as in perfbench ``cs_fleet``): the fused sweep
    reads forward windows one at a time, a serial fleet reads a shard's
    windows as one block, and the two draw read noise differently.

    Working set: the active columns of the measurements, the residual
    (column-major) and the estimates live in contiguous blocks that each
    sweep reads and updates directly.  The sweep in which columns retire
    compacts the blocks once and writes the retired estimates out, so no
    sweep gathers or scatters the full ``(n, B)`` arrays.  The caller's
    ``measurements`` are never written.

    Parameters
    ----------
    measurements:
        Observed block ``Y`` of shape ``(m, B)`` — one measurement
        vector per column (use :func:`amp_recover` for a single 1-D
        vector).
    operator:
        Object with ``matmat`` (``(n, B) -> (m, B)``) and ``rmatmat``
        (``(m, B) -> (n, B)``), sharing one stored matrix across the
        batch — e.g. :class:`~repro.crossbar.CrossbarOperator`.
    n:
        Signal dimension N.
    iterations:
        Maximum AMP iterations per column.
    threshold_factor:
        The alpha in ``tau_t = alpha * ||z_t|| / sqrt(M)``, shared by
        all columns (each column still gets its own ``tau_t`` from its
        own residual).
    ground_truth:
        Optional ``(n, B)`` block of finite true signals for NMSE
        tracking; every column must have non-zero energy.
    tolerance:
        Per-column stopping rule, as in :func:`amp_recover`.
    stagnation_window / stagnation_tolerance:
        Per-column residual-stagnation rule, as in :func:`amp_recover`
        (off by default): a column whose residual level has improved by
        less than ``stagnation_tolerance`` over the last
        ``stagnation_window`` of *its own* iterations retires from the
        working set, so noisy-backend fleets stop paying for columns
        that sit at the device-noise floor.
    """
    y = np.asarray(measurements, dtype=float)
    if y.ndim != 2:
        raise ValueError(
            "measurements must be a (m, B) block; use amp_recover for a "
            "single measurement vector"
        )
    m, batch = y.shape
    if batch < 1:
        raise ValueError("measurements must contain at least one column")
    n, iterations, stagnation_window = _check_amp_parameters(
        n, m, iterations, threshold_factor, tolerance,
        stagnation_window, stagnation_tolerance,
    )
    truth = truth_energy = None
    if ground_truth is not None:
        # Column-major like the residual, so each column's energy is a
        # pairwise sum down the column, computed once.
        truth = np.array(ground_truth, dtype=float, order="F")
        if truth.shape != (n, batch):
            raise ValueError(
                f"ground_truth must have shape ({n}, {batch}), got {truth.shape}"
            )
        check_finite("ground_truth", truth)
        truth_energy = np.sum(truth**2, axis=0)
        if np.any(truth_energy == 0.0):
            raise ValueError("reference signal has zero energy")

    x = np.zeros((n, batch))
    iteration_counts = np.zeros(batch, dtype=int)
    converged = np.zeros(batch, dtype=bool)
    residual_norms: list[list[float]] = [[] for _ in range(batch)]
    thresholds: list[list[float]] = [[] for _ in range(batch)]
    nmse_histories: list[list[float]] = [[] for _ in range(batch)]
    active_counts: list[int] = []
    active = np.arange(batch)
    # The working set: column ``position`` of each ``*_active`` block is
    # column ``active[position]`` of the fleet.  Sweeps replace
    # ``x_active`` and update ``z_active`` in place; retirement compacts
    # the blocks once.  ``z_active`` and the zero start of ``x_active``
    # are column-major, the layout a column gather (``[:, keep]``)
    # returns: the operator reads ``z_active`` in it, and
    # ``norm(axis=0)`` sums each contiguous column pairwise, where a
    # row-major block would sum row by row and move the last bit of
    # ``sigma``.
    y_active = y
    z_active = np.array(y, order="F")
    x_active = np.zeros((n, batch), order="F")
    truth_active, energy_active = truth, truth_energy

    # On a threaded sharded fleet, run each sweep through the fleet's
    # pipelined fused_sweep: the rmatmat -> threshold -> matmat round
    # trip overlaps across shards instead of barriering between the two
    # products.  The threshold is a pure per-column function, so the
    # fused sweep is the same computation (bitwise on exact-device
    # backends); serial operators keep the classic two-call path.
    pipelined = getattr(operator, "parallelism", "serial") == "threads" and callable(
        getattr(operator, "fused_sweep", None)
    )

    for _ in range(iterations):
        active_counts.append(int(active.size))
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
        np.subtract(y_active, forward, out=z_active)
        z_active += onsager

        for position, column in enumerate(active):
            residual_norms[column].append(float(sigma[position]))
            thresholds[column].append(float(tau[position]))
        if truth is not None:
            errors = np.sum((x_new - truth_active) ** 2, axis=0) / energy_active
            for position, column in enumerate(active):
                nmse_histories[column].append(float(errors[position]))

        delta = np.linalg.norm(x_new - x_active, axis=0)
        scale = np.linalg.norm(x_new, axis=0)
        x_active = x_new
        iteration_counts[active] += 1
        with np.errstate(divide="ignore", invalid="ignore"):
            relative = np.where(scale > 0, delta / np.where(scale > 0, scale, 1.0),
                                np.inf)
        stalled = np.zeros(active.size, dtype=bool)
        if stagnation_window is not None:
            for position, column in enumerate(active):
                stalled[position] = _residual_stalled(
                    residual_norms[column], stagnation_window, stagnation_tolerance
                )
        done = (delta == 0.0) | (relative < tolerance) | stalled
        if done.any():
            converged[active[done]] = True
            x[:, active[done]] = x_active[:, done]
            keep = ~done
            active = active[keep]
            y_active, z_active, x_active = (
                y_active[:, keep], z_active[:, keep], x_active[:, keep]
            )
            if truth is not None:
                truth_active, energy_active = truth_active[:, keep], energy_active[keep]
            if active.size == 0:
                break
    x[:, active] = x_active

    return AmpBatchResult(
        estimates=x,
        iterations=iteration_counts,
        converged=converged,
        residual_norms=residual_norms,
        nmse_histories=nmse_histories,
        thresholds=thresholds,
        active_counts=active_counts,
    )
