"""A single physical crossbar array of PCM devices.

The array stores a non-negative conductance matrix ``G`` (rows x cols).
Applying voltages to the rows and sensing the columns computes
``I = G^T v`` (Kirchhoff current summation down each column); applying
voltages to the columns and sensing the rows computes ``I = G v``.  The
paper's AMP mapping (Fig. 6) uses both directions on the *same* array to
obtain ``A x_t`` and ``A* z_t``.

Device non-idealities (programming error, read noise) come from the
:class:`~repro.devices.PcmDevice` model; stuck devices, the array-level
effect, come from :mod:`repro.crossbar.nonidealities`.  Every read, of
one vector or of a block, goes through one output-referred read model,
:func:`line_currents`, which a differential tile pair
(:class:`~repro.crossbar.operator.CrossbarOperator`) shares.

An array keeps no clock: a standalone array reads its programmed
state.  Drift (Sec. III) ages a programmed matrix as one unit, so the
clock lives on the operator that owns the array, and its tile pairs
drift the members' programmed conductances to that age when they read.
"""

from __future__ import annotations

import numpy as np

from repro._util import as_rng, check_finite
from repro.crossbar.nonidealities import apply_stuck_faults
from repro.devices import PcmDevice
from repro.crossbar.programming import ProgrammingReport, program_and_verify

__all__ = ["CrossbarArray"]


def line_currents(
    mean: np.ndarray,
    power: np.ndarray | None,
    voltages: np.ndarray,
    axis: int,
    sigma: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample the line currents of one read of a ``(lines, B)`` block.

    The single read-noise law of the simulator.  Each block column is a
    separate temporal read, and each device sees its own i.i.d.
    relative fluctuation ``eps_k ~ N(0, sigma^2)`` on every read
    (:meth:`PcmDevice.read`).  A line current
    ``I = sum_k V_k G_k (1 + eps_k)`` is then exactly
    ``N(sum_k V_k G_k, sigma^2 * sum_k V_k^2 G_k^2)``, so it is sampled
    directly: one GEMM on the ``mean`` matrix (``G``), one GEMM on the
    noise ``power`` matrix (``G**2``, ``None`` when ``sigma == 0``) and
    one standard normal per output line and column, instead of one draw
    per device.  ``axis=0`` drives the rows and senses the columns
    (``G^T v``); ``axis=1`` drives the columns and senses the rows
    (``G v``).  The law is closed under differences of independent
    reads, so a differential pair passes ``G+ - G-`` and
    ``G+**2 + G-**2`` and gets the law of its difference current.

    Precision: a noisy read caches both matrices in float32, casts the
    voltage block to float32 once and runs both GEMMs on it, so a read
    streams half the bytes; the currents come back in float64, the
    float32 mean product plus a float64 noise term.  Each product errs
    by at most ``lines * eps(float32) * |G|^T |v|``: on a 1024x512 pair
    the mean moved a current by at most 2.3e-4 of its own read-noise
    std and 2.2e-5 of one 8-bit ADC level, and the std moves by under
    1e-6 relative.  Voltages, conductances and their squares sit well
    inside float32's normal range.  An aged tile pair also forms both
    matrices in float32 (``_TilePair``): each mean element lies within
    ``8 * eps(float32) * (G+ + G-)`` of the float64 drifted law and the
    power within ``16 * eps(float32)`` relative, so on a 256x256 pair
    at 0.05-3.3 s of drift the mean moved a current by at most 3.7e-5
    of one ADC level.  A noise-free read (``sigma == 0``,
    ``power is None``) keeps a float64 mean and returns its product
    exactly.
    """
    if sigma == 0.0:
        return (mean.T if axis == 0 else mean) @ voltages
    # Cast once: a float32 matrix times float64 voltages would upcast
    # the whole matrix into a float64 copy on every read.
    voltages = voltages.astype(np.float32)
    currents = (mean.T if axis == 0 else mean) @ voltages
    noise_power = (power.T if axis == 0 else power) @ np.square(voltages)
    return currents + sigma * np.sqrt(noise_power) * rng.standard_normal(
        currents.shape
    )


class CrossbarArray:
    """One crossbar tile of PCM devices holding non-negative conductances.

    Parameters
    ----------
    target_conductance:
        Desired conductance matrix in siemens, shape ``(rows, cols)``.
        Values are clipped to the device window during programming;
        an empty matrix, NaN or inf raises ``ValueError`` before any
        programming draw.
    device:
        PCM device model; defaults to the library's standard device.
    seed:
        RNG seed or generator for all stochastic behaviour of this array.
    """

    def __init__(
        self,
        target_conductance: np.ndarray,
        device: PcmDevice | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        target_conductance = np.asarray(target_conductance, dtype=float)
        if target_conductance.ndim != 2:
            raise ValueError("target_conductance must be a 2-D matrix")
        if target_conductance.size == 0:
            raise ValueError(
                "target_conductance must hold at least one device, got shape "
                f"{target_conductance.shape}"
            )
        if np.any(target_conductance < 0):
            raise ValueError("conductances must be non-negative")
        self.device = device if device is not None else PcmDevice()
        self._rng = as_rng(seed)
        self._g_target = target_conductance
        self.programming_report: ProgrammingReport = program_and_verify(
            self.device, target_conductance, seed=self._rng
        )
        self._g_programmed = self.programming_report.conductance
        # Yield/endurance faults are device-permanent: the mask and the
        # stuck conductances persist across reprogramming sessions (a
        # rewrite cannot heal a failed device) and compose across
        # repeated injections — idempotent on already-stuck cells, union
        # on new ones.
        self._stuck_mask = np.zeros(self._g_programmed.shape, dtype=bool)
        self._stuck_values = np.zeros(self._g_programmed.shape)
        # Reads recompute nothing per call: the programmed conductance
        # and its elementwise square are cached until the device state
        # changes (see _invalidate_read_cache).  Both read directions
        # share the entry.  The cached matrices are deterministic
        # functions of the state, so cached and uncached reads are
        # bitwise identical.  ``_read_epoch`` counts those state
        # changes, so a cache built on top of this array's state (a
        # differential tile pair's) can tell that it went stale.
        self._read_cache: tuple[np.ndarray, np.ndarray | None] | None = None
        self._read_epoch = 0
        self.n_row_reads = 0
        self.n_col_reads = 0
        # Maintenance counters: reprogramming sessions after deployment.
        # The initial programming above is a capital (deployment) cost
        # and stays out of the serving-energy ledger; its pulse count is
        # still available as ``programming_report.n_pulses``.
        self.n_reprograms = 0
        self.n_program_pulses = 0

    @property
    def shape(self) -> tuple[int, int]:
        return self._g_programmed.shape

    @property
    def rows(self) -> int:
        return self._g_programmed.shape[0]

    @property
    def cols(self) -> int:
        return self._g_programmed.shape[1]

    def _invalidate_read_cache(self) -> None:
        """Drop cached read matrices after any device-state change."""
        self._read_cache = None
        self._read_epoch += 1

    @property
    def g_target(self) -> np.ndarray:
        """The target conductances this array was programmed toward."""
        return self._g_target

    @property
    def stuck_mask(self) -> np.ndarray:
        """Boolean mask of devices stuck by injected yield faults."""
        return self._stuck_mask.copy()

    @property
    def stuck_fraction(self) -> float:
        """Fraction of this array's devices stuck at a fault value."""
        return float(self._stuck_mask.mean()) if self._stuck_mask.size else 0.0

    def reprogram(self) -> ProgrammingReport:
        """Rewrite the array to its original target conductances.

        Runs a fresh program-and-verify session from the stored target
        (consuming this array's RNG stream, as the initial programming
        did) and counts the applied pulses into the maintenance ledger
        — the drift-compensation escalation when scalar gain
        calibration is no longer enough.  Stuck-fault state injected
        via :meth:`inject_stuck_faults` *survives* the rewrite: failed
        devices cannot be reprogrammed, so their stuck conductances are
        re-asserted after the session — yield and drift compose into
        one lifetime story instead of a rewrite silently healing the
        fault ablation.  Returns the new programming report.
        """
        self.programming_report = program_and_verify(
            self.device, self._g_target, seed=self._rng
        )
        self._g_programmed = self.programming_report.conductance
        if self._stuck_mask.any():
            # copy before re-asserting faults so the programming report
            # keeps the conductances its error metrics were computed on
            self._g_programmed = self._g_programmed.copy()
            self._g_programmed[self._stuck_mask] = self._stuck_values[
                self._stuck_mask
            ]
        self._invalidate_read_cache()
        self.n_reprograms += 1
        self.n_program_pulses += self.programming_report.n_pulses
        return self.programming_report

    def inject_stuck_faults(
        self, fraction: float, seed: int | np.random.Generator | None = None
    ) -> np.ndarray:
        """Force a random device fraction to a stuck state; returns the mask.

        Used by the fault-tolerance ablation: yield/endurance failures
        leave each faulted device stuck at RESET (``g_min``) or SET
        (``g_max``), picked at random.

        Repeated injections *compose deterministically*: a device that
        is already stuck keeps its original stuck conductance even when
        the new draw selects it again (idempotent on the same cells),
        while newly selected devices join the persistent fault mask
        (union on new cells).  The returned mask covers this call's
        draw only; :attr:`stuck_mask` holds the accumulated union that
        :meth:`reprogram` re-asserts after every rewrite.
        """
        faulty, mask = apply_stuck_faults(
            self._g_programmed,
            fraction,
            self.device.g_min,
            self.device.g_max,
            seed=seed if seed is not None else self._rng,
        )
        # Idempotence: cells already stuck keep their recorded value —
        # only the newly faulted cells take this draw's stuck state.
        fresh = mask & ~self._stuck_mask
        self._stuck_values[fresh] = faulty[fresh]
        self._stuck_mask |= mask
        self._g_programmed = np.where(
            self._stuck_mask, self._stuck_values, self._g_programmed
        )
        self._invalidate_read_cache()
        return mask

    def _read_entry(self) -> tuple[np.ndarray, np.ndarray | None]:
        """Cached ``(G, G**2)`` for reads in either direction.

        A noisy device caches both in float32, the precision contract
        of :func:`line_currents`: ``G`` rounded once from the float64
        programmed state, which stays this array's state, and ``G**2``
        squared in float32.  A noise-free device caches the programmed
        matrix itself (no reader writes into it) and no power, so its
        reads stay exact.  The entry lives until
        :meth:`_invalidate_read_cache` (reprogramming, fault injection).
        """
        if self._read_cache is None:
            g = self._g_programmed
            if self.device.read_noise_sigma == 0.0:
                self._read_cache = (g, None)
            else:
                self._read_cache = (
                    g.astype(np.float32),
                    np.square(g, dtype=np.float32),
                )
        return self._read_cache

    def _count_reads(self, columns: int, axis: int) -> None:
        """Tally ``columns`` read events along ``axis``."""
        if axis == 0:
            self.n_col_reads += columns
        else:
            self.n_row_reads += columns

    def _batched_currents(self, voltages: np.ndarray, axis: int) -> np.ndarray:
        """Currents for a 2-D voltage block (one read event per column).

        One :func:`line_currents` read of the cached ``(G, G**2)``.
        One approximation against the device physics: the clip of
        negative instantaneous conductances is ignored (it sits
        ~1/sigma standard deviations away, negligible at realistic
        noise levels).
        """
        mean, power = self._read_entry()
        return line_currents(
            mean, power, voltages, axis, self.device.read_noise_sigma, self._rng
        )

    def _read(self, voltages: np.ndarray, axis: int) -> np.ndarray:
        """Validate a voltage vector or ``(lines, B)`` block and read it.

        A wrong shape or a NaN/inf voltage raises ``ValueError`` before
        any read is counted.
        """
        voltages = np.asarray(voltages, dtype=float)
        lines = self.shape[axis]
        if voltages.ndim not in (1, 2) or voltages.shape[0] != lines:
            raise ValueError(
                f"voltages must have shape ({lines},) or ({lines}, B), "
                f"got {voltages.shape}"
            )
        check_finite("voltages", voltages)
        block = voltages if voltages.ndim == 2 else voltages[:, None]
        self._count_reads(block.shape[1], axis)
        currents = self._batched_currents(block, axis)
        return currents if voltages.ndim == 2 else currents[:, 0]

    def mvm(self, row_voltages: np.ndarray) -> np.ndarray:
        """Drive rows with ``row_voltages``; return column currents.

        Computes ``I_j = sum_i G_ij * V_i`` with read noise applied.
        ``row_voltages`` may also be a 2-D block of shape ``(rows, B)``
        — one input vector per column, exploiting the crossbar's
        inherent parallelism — in which case the result has shape
        ``(cols, B)`` and ``B`` read events are counted.
        """
        return self._read(row_voltages, axis=0)

    def mvm_t(self, col_voltages: np.ndarray) -> np.ndarray:
        """Drive columns with ``col_voltages``; return row currents.

        Computes ``I_i = sum_j G_ij * V_j`` — the transpose read used by
        AMP for ``A* z_t`` (Fig. 6).  A 2-D block of shape ``(cols, B)``
        batches ``B`` transpose reads and returns ``(rows, B)``.
        """
        return self._read(col_voltages, axis=1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CrossbarArray(shape={self.shape})"
