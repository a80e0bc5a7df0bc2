"""High-level linear operators backed by crossbar arrays.

:class:`CrossbarOperator` maps a signed real matrix ``A`` (shape m x n)
onto differential PCM device pairs and exposes the two products the
paper's AMP mapping needs (Fig. 6):

* ``matvec(x)``  -> ``A @ x``   (inputs applied to rows, columns read)
* ``rmatvec(z)`` -> ``A.T @ z`` (inputs applied to columns, rows read)
* ``matmat(X)``  -> ``A @ X``   (batched: one input vector per column)
* ``rmatmat(Z)`` -> ``A.T @ Z`` (batched transpose reads)

Every product is one block read: ``matvec``/``rmatvec`` are the
one-column case of ``matmat``/``rmatmat``.  The arrays are driven with
2-D voltage blocks, one read event per column, and the conversion
counters tally one DAC/ADC conversion per element per live vector, so
the energy models price a block exactly like the same vectors one by
one.

Physically the array stores ``A.T`` — the signal dimension ``n`` runs
along the rows and the measurement dimension ``m`` along the columns, so
that driving the rows with ``x`` accumulates ``A @ x`` on the columns.

:class:`DenseOperator` provides the identical interface with exact
floating-point arithmetic and is the "ideal software" baseline used in
all comparisons.
"""

from __future__ import annotations

import math

import numpy as np

from repro._util import as_rng, check_elapsed, check_finite, check_int
from repro.crossbar.array import CrossbarArray, line_currents
from repro.crossbar.coding import DifferentialCoding
from repro.crossbar.converters import Adc, Dac
from repro.crossbar.tile import split_ranges
from repro.devices import PcmDevice

__all__ = ["CrossbarOperator", "DenseOperator"]

# The ADC full scale sits this many times above the largest line L2-norm
# of the scaled matrix: the worst-case sum current of a dense line is
# ~sqrt(lines) larger than any current that actually occurs and would
# waste ADC levels.
_FULL_SCALE_SIGMAS = 4.0


def _input_vector(x: np.ndarray, lines: int, name: str) -> np.ndarray:
    """Validate a ``(lines,)`` input vector: shape, then finiteness."""
    x = np.asarray(x, dtype=float)
    if x.shape != (lines,):
        raise ValueError(f"{name} must have shape ({lines},), got {x.shape}")
    return check_finite(name, x)


def _input_block(block: np.ndarray, lines: int, name: str) -> np.ndarray:
    """Validate a ``(lines, B)`` input block: shape, then finiteness."""
    block = np.asarray(block, dtype=float)
    if block.ndim != 2 or block.shape[0] != lines:
        raise ValueError(f"{name} must have shape ({lines}, B), got {block.shape}")
    return check_finite(name, block)


class DenseOperator:
    """Exact numpy implementation of the operator interface.

    Implements the full four-product surface (``matvec``/``rmatvec``
    and their batched ``matmat``/``rmatmat`` forms) with counters that
    tally one logical read per input vector, so the ideal-software
    baseline is a drop-in for :class:`CrossbarOperator` in the batched
    solvers and their counter-equivalence tests alike.  Inputs pass the
    same boundary checks: ``matvec``/``rmatvec`` take one 1-D vector,
    ``matmat``/``rmatmat`` one ``(lines, B)`` block, and a wrong shape
    or a NaN/inf entry raises ``ValueError`` before any counter moves.
    """

    def __init__(self, matrix: np.ndarray) -> None:
        self.matrix = np.asarray(matrix, dtype=float)
        if self.matrix.ndim != 2:
            raise ValueError("matrix must be 2-D")
        self.n_matvec = 0
        self.n_rmatvec = 0

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Exact ``A @ x`` for one ``(n,)`` input vector."""
        x = _input_vector(x, self.matrix.shape[1], "x")
        self.n_matvec += 1
        return self.matrix @ x

    def rmatvec(self, z: np.ndarray) -> np.ndarray:
        """Exact ``A.T @ z`` for one ``(m,)`` input vector."""
        z = _input_vector(z, self.matrix.shape[0], "z")
        self.n_rmatvec += 1
        return self.matrix.T @ z

    def matmat(self, x_block: np.ndarray) -> np.ndarray:
        """Exact ``A @ X`` for a block of input vectors (one per column).

        An empty batch (``B = 0``) returns an empty block and counts
        no reads, matching the crossbar operator's accounting.
        """
        x_block = _input_block(x_block, self.matrix.shape[1], "X")
        self.n_matvec += x_block.shape[1]
        return self.matrix @ x_block

    def rmatmat(self, z_block: np.ndarray) -> np.ndarray:
        """Exact ``A.T @ Z`` for a block of input vectors."""
        z_block = _input_block(z_block, self.matrix.shape[0], "Z")
        self.n_rmatvec += z_block.shape[1]
        return self.matrix.T @ z_block

    @property
    def stats(self) -> dict[str, int]:
        """Logical read counters (the exact baseline has no converters)."""
        return {"n_matvec": self.n_matvec, "n_rmatvec": self.n_rmatvec}


class _TilePair:
    """Differential (G+, G-) crossbar pair holding one tile of A.T.

    A tile read senses the difference of the two members' line
    currents.  Each member's current is an independent Gaussian
    (:func:`~repro.crossbar.array.line_currents`), so the difference is
    one Gaussian, ``N((G+ - G-)^T v, sigma^2 (G+**2 + G-**2)^T v**2)``,
    exactly.  The pair therefore reads it as one :func:`line_currents`
    read of the cached ``G+ - G-`` and ``G+**2 + G-**2``: one mean
    GEMM, one noise-power GEMM and one normal per output line and
    column, where reading both members and subtracting takes twice
    each.  Both members still count every read event.  A noisy pair
    caches both matrices in float32, the precision contract of
    :func:`line_currents`.  A noise-free pair caches its float64 mean
    and no power, so its reads stay exact.

    The pair keeps no clock.  Every read takes the owning operator's
    ``age`` and sees the members' programmed conductances drifted to
    it: ``G * ((t0 + age) / t0) ** (-nu(G))``, the law of
    :meth:`PcmDevice.drifted`, which a noise-free pair applies in
    float64.  A fresh noisy read (``age == 0``) subtracts the mean
    ``G+ - G-`` in float64 and rounds it once, and sums the power
    ``G+**2 + G-**2`` from float32 squares.  An aged noisy read drifts
    in float32, the precision of the entry it feeds.  The exponent
    ``-nu(G)`` is fixed until a member's state changes, so the first
    aged read caches each member's exponents and conductances in
    float32, and a read at a new age forms
    ``G32 * exp(e32 * log((t0 + age) / t0))`` per member (one
    multiply, one ``exp`` and one multiply per device), then subtracts
    and squares those in float32.  Each drifted conductance lies within
    ``8 * eps(float32)`` of :meth:`PcmDevice.drifted` relative, each
    mean element within ``8 * eps(float32) * (G+ + G-)`` of the float64
    law and the power within ``16 * eps(float32)`` relative (measured:
    2.3, 2.6 and 5.1 on 256x256 pairs from 0.05 s to 1e8 s).  The bits
    of float32 ``exp`` may differ between CPUs; the bounds hold for an
    ``exp`` within 4 ulps.
    """

    def __init__(
        self,
        g_pos: np.ndarray,
        g_neg: np.ndarray,
        device: PcmDevice,
        rng: np.random.Generator,
    ) -> None:
        self.positive = CrossbarArray(g_pos, device=device, seed=rng)
        self.negative = CrossbarArray(g_neg, device=device, seed=rng)
        self._rng = rng
        # (G+ - G-, G+**2 + G-**2) for both read directions, valid for
        # the age and the members' read epochs in ``_cache_key``.  A
        # new age or a member state change (reprogramming, stuck
        # faults, through the pair or on a member directly) moves the
        # key, and the next read rebuilds the entry.  The members' own
        # caches stay empty unless a member is read directly.
        self._read_cache: tuple[np.ndarray, np.ndarray | None] | None = None
        self._cache_key = (0.0, 0, 0)
        # Per member of a noisy pair, ``(read epoch, float32 -nu(G),
        # float32 G)`` (PcmDevice.drift_exponents): built by the first
        # read at a non-zero age, rebuilt when the member's epoch moves.
        # A pair that never ages, or never reads noisily, holds none.
        self._drift_cache: list[tuple[int, np.ndarray, np.ndarray] | None] = [
            None,
            None,
        ]

    def _drifted32(self, index: int, member: CrossbarArray, log_time: np.float32):
        """``member``'s programmed conductances drifted in float32 to the
        age whose ``log((t0 + age) / t0)`` is ``log_time``: a new array."""
        entry = self._drift_cache[index]
        if entry is None or entry[0] != member._read_epoch:
            g = member._g_programmed
            exponents = member.device.drift_exponents(g).astype(np.float32)
            entry = (member._read_epoch, exponents, g.astype(np.float32))
            self._drift_cache[index] = entry
        drifted = np.multiply(entry[1], log_time)
        np.exp(drifted, out=drifted)
        drifted *= entry[2]
        return drifted

    def _read_entry(self, age: float) -> tuple[np.ndarray, np.ndarray | None]:
        key = (age, self.positive._read_epoch, self.negative._read_epoch)
        if self._read_cache is None or key != self._cache_key:
            device = self.positive.device
            g_pos = self.positive._g_programmed
            g_neg = self.negative._g_programmed
            drifting = age != 0.0 and device.drift_nu != 0.0
            if device.read_noise_sigma == 0.0:
                if drifting:
                    g_pos = device.drifted(g_pos, age)
                    g_neg = device.drifted(g_neg, age)
                self._read_cache = (g_pos - g_neg, None)
            elif drifting:
                log_time = np.float32(math.log(device.drift_time_factor(age)))
                g_pos = self._drifted32(0, self.positive, log_time)
                g_neg = self._drifted32(1, self.negative, log_time)
                mean = g_pos - g_neg
                # Both drifted arrays are new: square them in place.
                power = np.square(g_pos, out=g_pos)
                power += np.square(g_neg, out=g_neg)
                self._read_cache = (mean, power)
            else:
                # Subtracted in float64 and rounded once on store; the
                # buffer is new, so no member's programmed state is hit.
                mean = np.subtract(
                    g_pos, g_neg, out=np.empty_like(g_pos, dtype=np.float32)
                )
                power = np.square(g_pos, dtype=np.float32)
                power += np.square(g_neg, dtype=np.float32)
                self._read_cache = (mean, power)
            self._cache_key = key
        return self._read_cache

    def _read(self, voltages: np.ndarray, axis: int, age: float) -> np.ndarray:
        self.positive._count_reads(voltages.shape[1], axis)
        self.negative._count_reads(voltages.shape[1], axis)
        mean, power = self._read_entry(age)
        return line_currents(
            mean,
            power,
            voltages,
            axis,
            self.positive.device.read_noise_sigma,
            self._rng,
        )

    def column_currents(self, row_voltages: np.ndarray, age: float) -> np.ndarray:
        """Forward read of a ``(rows, B)`` block at ``age`` seconds after
        programming: ``(cols, B)`` currents."""
        return self._read(row_voltages, axis=0, age=age)

    def row_currents(self, col_voltages: np.ndarray, age: float) -> np.ndarray:
        """Transpose read of a ``(cols, B)`` block at ``age`` seconds
        after programming: ``(rows, B)`` currents."""
        return self._read(col_voltages, axis=1, age=age)

    def reprogram(self) -> None:
        self.positive.reprogram()
        self.negative.reprogram()

    @property
    def n_program_pulses(self) -> int:
        return self.positive.n_program_pulses + self.negative.n_program_pulses


class CrossbarOperator:
    """A signed matrix stored in PCM crossbars with converter interfaces.

    Each coefficient is a differential device pair ``(G+, G-)``.  A read
    peak-normalizes every input column, converts it to read voltages
    (DAC), drives every tile pair with the whole block, digitizes each
    tile's difference current (ADC) and accumulates the tile partial
    sums digitally.  The analog step reads each tile pair's difference
    current directly: one Gaussian per output line and column with mean
    ``(G+ - G-)^T v`` and variance ``sigma^2 (G+**2 + G-**2)^T v**2``,
    the exact law of reading both arrays and subtracting (see
    :func:`~repro.crossbar.array.line_currents`).  Every column is its
    own read event with fresh device fluctuations.  All-zero columns
    never touch the hardware, so they bill no conversion.  Non-finite
    inputs are rejected before any counter moves.

    Parameters
    ----------
    matrix:
        The real matrix ``A`` of shape ``(m, n)``, at least one
        coefficient; an empty matrix raises ``ValueError`` before any
        draw.
    device:
        PCM device model (defaults to the library standard device).
    dac_bits / adc_bits:
        Converter resolutions; ``None`` for ideal converters.
    v_read:
        Read voltage magnitude in volts (the paper's analyses assume an
        average of 0.2 V).
    tile_shape:
        Maximum physical array size ``(rows, cols)``; larger matrices
        are tiled and partial sums accumulate digitally after the ADC.
    seed:
        RNG seed or generator for all stochastic device behaviour.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        device: PcmDevice | None = None,
        dac_bits: int | None = 8,
        adc_bits: int | None = 8,
        v_read: float = 0.2,
        tile_shape: tuple[int, int] = (1024, 1024),
        seed: int | np.random.Generator | None = None,
    ) -> None:
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("matrix must be 2-D")
        if matrix.size == 0:
            raise ValueError(
                f"matrix must hold at least one coefficient, got shape {matrix.shape}"
            )
        self.matrix = matrix
        self.device = device if device is not None else PcmDevice()
        rng = as_rng(seed)

        if np.shape(tile_shape) != (2,):
            raise ValueError(f"tile_shape must be (rows, cols), got {tile_shape!r}")
        tile_rows = check_int("tile_shape rows", tile_shape[0])
        tile_cols = check_int("tile_shape cols", tile_shape[1])

        stored = matrix.T  # rows = signal dim n, cols = measurement dim m
        n, m = stored.shape
        self._row_spans = split_ranges(n, tile_rows)
        self._col_spans = split_ranges(m, tile_cols)

        # One shared scale across tiles keeps decoding a single divide.
        coding = DifferentialCoding(self.device)
        g_pos_full, g_neg_full = coding.encode(stored)
        self._scale = coding.scale
        # The converters come first: a bad width raises before any draw.
        self.dac = Dac(bits=dac_bits, v_max=v_read)
        squares = (stored * self._scale * v_read) ** 2
        col_fs = float(np.sqrt(squares.sum(axis=0)).max())
        row_fs = float(np.sqrt(squares.sum(axis=1)).max())
        del squares  # not held through programming
        self.adc_columns = Adc(
            bits=adc_bits, full_scale=max(col_fs * _FULL_SCALE_SIGMAS, 1e-12)
        )
        self.adc_rows = Adc(
            bits=adc_bits, full_scale=max(row_fs * _FULL_SCALE_SIGMAS, 1e-12)
        )
        self._tiles: dict[tuple[int, int], _TilePair] = {}
        for ri, (r0, r1) in enumerate(self._row_spans):
            for ci, (c0, c1) in enumerate(self._col_spans):
                self._tiles[(ri, ci)] = _TilePair(
                    g_pos_full[r0:r1, c0:c1],
                    g_neg_full[r0:r1, c0:c1],
                    device=self.device,
                    rng=rng,
                )
        self.v_read = v_read
        self.n_matvec = 0
        self.n_rmatvec = 0
        # Live counts exclude all-zero inputs, which never touch the
        # hardware: the energy models bill device reads from these.
        self.n_live_matvec = 0
        self.n_live_rmatvec = 0
        self._gain = 1.0
        # Lifecycle clocks and maintenance counters: ``age_seconds`` is
        # time since (re)programming, ``staleness_seconds`` time since
        # the last maintenance event of either kind.  Like the
        # reprogramming pulse counters, the calibration counters start
        # at zero — initial programming is a deployment cost, so a
        # fresh operator prices exactly as before this ledger existed.
        self.age_seconds = 0.0
        self._maintained_at_age = 0.0
        self.n_calibrations = 0
        self.n_calibration_probes = 0
        self.n_reprograms = 0
        # Health measurements from the last maintenance events: the
        # residual relative error after the last gain fit, and the
        # verify error of the last reprogram-and-verify session
        # (``None`` until the respective event happens).
        self.last_calibration_error: float | None = None
        self.last_reprogram_error: float | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    @property
    def n_tiles(self) -> int:
        return len(self._tiles)

    @property
    def n_devices(self) -> int:
        """Total PCM devices used (two per coefficient, differential)."""
        return 2 * self.matrix.size

    @property
    def n_program_pulses(self) -> int:
        """Maintenance reprogramming pulses applied across all tiles."""
        return sum(pair.n_program_pulses for pair in self._tiles.values())

    @property
    def gain(self) -> float:
        """The digital output gain fitted by the last calibration."""
        return self._gain

    @property
    def staleness_seconds(self) -> float:
        """Seconds of drift since the last maintenance event.

        Zero on a fresh or freshly reprogrammed operator; calibration
        resets it without resetting :attr:`age_seconds` (the devices
        keep drifting — only the digital compensation is fresh).
        """
        return self.age_seconds - self._maintained_at_age

    def advance_time(self, seconds: float) -> None:
        """Let the programmed matrix drift for ``seconds`` (Sec. III).

        :attr:`age_seconds` is the one drift clock of the matrix: every
        tile pair reads at that age, so ageing is one validated add.
        ``seconds`` must be finite and non-negative.
        """
        self.age_seconds += check_elapsed("seconds", seconds)

    def reprogram(
        self,
        verify_probes: int | None = None,
        verify_seed: int | np.random.Generator | None = None,
    ) -> int:
        """Rewrite every tile from the stored target matrix.

        The heavy drift-maintenance action: a full program-and-verify
        session per tile pair, after which the drift and staleness clocks
        restart and the digital gain returns to unity.  Devices stuck
        by injected yield faults survive the rewrite (see
        :meth:`CrossbarArray.reprogram`).  Pulses are counted into
        :attr:`stats` for the energy layer; returns the pulse count of
        this session.

        ``verify_probes`` adds a post-rewrite verify step: the fresh
        state is probed with that many random vectors (drawn from
        ``verify_seed``) and the relative read error against the stored
        target lands in :attr:`last_reprogram_error` — the number an
        escalation policy compares against its NMSE budget to decide
        whether the shard is still serviceable or must be retired
        (stuck faults make the error floor irreducible by rewriting).
        Without ``verify_probes`` the attribute resets to ``None``.
        """
        before = self.n_program_pulses
        for pair in self._tiles.values():
            pair.reprogram()
        self._gain = 1.0
        self.age_seconds = 0.0
        self._maintained_at_age = 0.0
        self.n_reprograms += 1
        if verify_probes is not None:
            self.last_reprogram_error = self.read_error(
                n_probes=verify_probes, seed=verify_seed
            )
        else:
            self.last_reprogram_error = None
        return self.n_program_pulses - before

    def read_error(
        self, n_probes: int = 8, seed: int | np.random.Generator | None = None
    ) -> float:
        """Probe the live relative read error against the stored target.

        Drives ``n_probes`` random vectors through :meth:`matmat` (the
        digital gain applies, exactly as serving traffic sees it) and
        returns ``||observed - A @ probes|| / ||A @ probes||`` — the
        verify measurement behind reprogram-and-verify and retirement
        decisions.  Probes bill like calibration probes: their
        conversions land in the ordinary DAC/ADC counters and their
        count in ``n_calibration_probes`` (physically they are the same
        probe-vector operation), so verify work is priced by
        ``energy_from_stats`` without any new energy key.  A reference
        with no signal (an all-zero matrix) raises ``RuntimeError``
        before any probe is read or billed.
        """
        n_probes = check_int("n_probes", n_probes)
        rng = as_rng(seed)
        m, n = self.shape
        probes = rng.standard_normal((n_probes, n)).T
        reference = self.matrix @ probes
        denominator = float(np.linalg.norm(reference))
        if denominator == 0.0:
            raise RuntimeError("verify probes produced no reference signal")
        observed = self.matmat(probes)
        self.n_calibration_probes += n_probes
        return float(np.linalg.norm(observed - reference)) / denominator

    def inject_stuck_faults(
        self, fraction: float, seed: int | np.random.Generator | None = None
    ) -> int:
        """Inject stuck devices into every tile; returns the fault count.

        Faults are permanent and compose across calls (idempotent on
        already-stuck devices, union on new ones) and survive
        :meth:`reprogram` — see :meth:`CrossbarArray.inject_stuck_faults`.
        The returned count covers this call's draw; the accumulated
        fault load is :attr:`stuck_fraction`.
        """
        rng = as_rng(seed)
        total = 0
        for pair in self._tiles.values():
            total += int(pair.positive.inject_stuck_faults(fraction, rng).sum())
            total += int(pair.negative.inject_stuck_faults(fraction, rng).sum())
        return total

    @property
    def stuck_fraction(self) -> float:
        """Fraction of this operator's devices stuck at a fault value."""
        stuck = sum(
            int(pair.positive._stuck_mask.sum())
            + int(pair.negative._stuck_mask.sum())
            for pair in self._tiles.values()
        )
        return stuck / self.n_devices if self.n_devices else 0.0

    def calibrate(
        self, n_probes: int = 8, seed: int | np.random.Generator | None = None
    ) -> float:
        """Re-fit the digital output gain against the known target matrix.

        PCM drift decays all conductances together, which to first
        order scales the analog output by a common factor.  Periodic
        calibration — probing with random vectors and comparing to the
        digitally stored target ``A`` — recovers that factor without
        reprogramming the devices (the standard drift-compensation
        technique for PCM-based computing).  The probes are counted
        into the maintenance ledger (:attr:`stats`) and reset the
        staleness clock.  Returns the fitted gain.

        The residual relative error *after* the fit —
        ``||gain * observed - reference|| / ||reference||`` — lands in
        :attr:`last_calibration_error`: uniform drift leaves it near
        the noise floor, while non-scalar degradation (stuck faults,
        state-dependent drift dispersion) keeps it high no matter the
        gain, which is the signal an escalation policy uses to order a
        full rewrite.  A reference with no signal (an all-zero matrix)
        raises ``RuntimeError`` before any probe is read or billed, as
        in :meth:`read_error`; an all-zero observation raises after the
        read, with the gain unchanged.
        """
        n_probes = check_int("n_probes", n_probes)
        rng = as_rng(seed)
        m, n = self.shape
        # One batched read of all probes; drawing (n_probes, n) and
        # transposing keeps probe i identical to what the former
        # per-probe loop would have drawn from the same seed.
        probes = rng.standard_normal((n_probes, n)).T
        reference = self.matrix @ probes
        reference_norm = float(np.linalg.norm(reference))
        if reference_norm == 0.0:
            raise RuntimeError(
                "calibration reference has no signal (an all-zero matrix)"
            )
        previous_gain = self._gain
        self._gain = 1.0  # probe the raw (uncorrected) output
        try:
            observed = self.matmat(probes)
            numerator = float(np.sum(observed * reference))
            denominator = float(np.sum(observed * observed))
        finally:
            self._gain = previous_gain
        if denominator == 0.0:
            raise RuntimeError("calibration probes produced no signal")
        self._gain = numerator / denominator
        self.last_calibration_error = float(
            np.linalg.norm(self._gain * observed - reference)
        ) / reference_norm
        self.n_calibrations += 1
        self.n_calibration_probes += n_probes
        self._maintained_at_age = self.age_seconds
        return self._gain

    def _normalize_block(self, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-column peak normalization; zero columns normalize to zero."""
        normalized = np.abs(block)
        peaks = normalized.max(axis=0) if block.size else np.zeros(block.shape[1])
        safe = np.where(peaks == 0.0, 1.0, peaks)
        return np.divide(block, safe, out=normalized), peaks

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Analog evaluation of ``A @ x``: a one-column :meth:`matmat`."""
        return self._forward(_input_vector(x, self.shape[1], "x")[:, None])[:, 0]

    def rmatvec(self, z: np.ndarray) -> np.ndarray:
        """Analog evaluation of ``A.T @ z``: a one-column :meth:`rmatmat`."""
        return self._transpose(_input_vector(z, self.shape[0], "z")[:, None])[:, 0]

    def matmat(self, x_block: np.ndarray) -> np.ndarray:
        """Analog evaluation of ``A @ X`` for a block of input vectors.

        ``x_block`` has shape ``(n, B)`` — one input vector per column,
        matching the crossbar's natural parallelism.  Each column is
        peak-normalized independently and is its own read event;
        all-zero columns never touch the hardware (so DAC/ADC
        conversion counters count live columns only), and tile partial
        sums accumulate digitally after the ADC.  An empty batch
        (``B = 0``) returns an empty block, never touches the hardware,
        and bills nothing.  A block holding NaN or inf raises
        ``ValueError`` before any counter moves.
        """
        return self._forward(_input_block(x_block, self.shape[1], "X"))

    def rmatmat(self, z_block: np.ndarray) -> np.ndarray:
        """Analog evaluation of ``A.T @ Z`` (batched transpose reads).

        ``z_block`` has shape ``(m, B)``; the result has shape
        ``(n, B)``.  Semantics and accounting mirror :meth:`matmat`.
        """
        return self._transpose(_input_block(z_block, self.shape[0], "Z"))

    def _forward(self, x_block: np.ndarray) -> np.ndarray:
        """:meth:`matmat` of a validated ``(n, B)`` block."""
        m = self.shape[0]
        self.n_matvec += x_block.shape[1]

        def tile_currents(voltages):
            for ri, (r0, r1) in enumerate(self._row_spans):
                v_block = voltages[r0:r1]
                for ci, (c0, c1) in enumerate(self._col_spans):
                    yield (c0, c1), self._tiles[(ri, ci)].column_currents(
                        v_block, self.age_seconds
                    )

        result, live = self._batched_product(x_block, m, self.adc_columns, tile_currents)
        self.n_live_matvec += live
        return result

    def _transpose(self, z_block: np.ndarray) -> np.ndarray:
        """:meth:`rmatmat` of a validated ``(m, B)`` block."""
        n = self.shape[1]
        self.n_rmatvec += z_block.shape[1]

        def tile_currents(voltages):
            for ri, (r0, r1) in enumerate(self._row_spans):
                for ci, (c0, c1) in enumerate(self._col_spans):
                    yield (r0, r1), self._tiles[(ri, ci)].row_currents(
                        voltages[c0:c1], self.age_seconds
                    )

        result, live = self._batched_product(z_block, n, self.adc_rows, tile_currents)
        self.n_live_rmatvec += live
        return result

    def _batched_product(self, block, out_dim, adc, tile_currents):
        """Shared block read: normalize columns, convert, accumulate.

        ``tile_currents(voltages)`` yields ``((o0, o1), currents)``
        pairs — the output span and the analog currents of one tile
        read — in a fixed tile order, so the RNG consumption is
        reproducible.  All-zero input columns never reach the
        converters.  Returns ``(product, live_count)`` — the single
        definition of which columns touched the hardware, so the
        live-read counters the energy models bill from cannot drift
        from the skip logic.
        """
        normalized, peaks = self._normalize_block(block)
        batch = block.shape[1]
        # All-live fast path (the common case for solver traffic): run
        # the converters on the normalized block itself and scale the
        # accumulator in place — no live-column gather, no second
        # (out_dim, B) buffer, no multiply temporary.  Same values as
        # the gather path bit for bit.
        all_live = bool(peaks.all())
        live = slice(None) if all_live else np.flatnonzero(peaks)
        n_live = batch if all_live else live.size
        if n_live == 0:
            return np.zeros((out_dim, batch)), 0
        voltages = self.dac.to_voltages(normalized[:, live])
        # One tile accumulates into its own ADC codes: ``0.0 + code`` in
        # place, as into a zero accumulator, so a -0.0 code reads +0.0.
        result = np.zeros((out_dim, n_live)) if self.n_tiles > 1 else None
        for (o0, o1), currents in tile_currents(voltages):
            codes = adc.quantize(currents)
            if result is None:
                result = np.add(codes, 0.0, out=codes)
            else:
                result[o0:o1] += codes
        if all_live:
            result *= self._gain * peaks / (self._scale * self.v_read)
            return result, batch
        out = np.zeros((out_dim, batch))
        out[:, live] = result * (self._gain * peaks[live] / (self._scale * self.v_read))
        return out, n_live

    @property
    def stats(self) -> dict[str, int]:
        """Operation counters for the energy models."""
        return {
            "n_matvec": self.n_matvec,
            "n_rmatvec": self.n_rmatvec,
            "n_live_matvec": self.n_live_matvec,
            "n_live_rmatvec": self.n_live_rmatvec,
            "dac_conversions": self.dac.n_conversions,
            "adc_conversions": self.adc_columns.n_conversions
            + self.adc_rows.n_conversions,
            # Maintenance ledger: probe vectors fitted and reprogramming
            # pulses applied since deployment.  Probe *conversions* bill
            # through the ordinary DAC/ADC counters above; these keys
            # price the extra per-event maintenance work on top.
            "n_calibrations": self.n_calibrations,
            "n_calibration_probes": self.n_calibration_probes,
            "n_reprograms": self.n_reprograms,
            "n_program_pulses": self.n_program_pulses,
            "n_devices": self.n_devices,
            "n_tiles": self.n_tiles,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CrossbarOperator(shape={self.shape}, tiles={self.n_tiles}, "
            f"dac={self.dac.bits}, adc={self.adc_columns.bits})"
        )
