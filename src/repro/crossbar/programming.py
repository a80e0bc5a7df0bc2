"""Iterative program-and-verify conductance programming.

Sec. III.B.2 of the paper: "One possible method to program the
conductance values is by an iterative program-and-verify procedure."
Each round reads the achieved conductance, computes the error against
the target and applies a corrective pulse that itself lands with some
stochastic error.  The residual error shrinks until it is limited by the
per-pulse programming noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util import as_rng, check_finite, check_int
from repro.devices import PcmDevice

__all__ = ["ProgrammingReport", "program_and_verify"]


@dataclass
class ProgrammingReport:
    """Outcome of a program-and-verify session.

    Attributes
    ----------
    conductance:
        Achieved device conductances (siemens), same shape as the target.
    rms_error_history:
        RMS target error (fraction of ``g_max``) after each iteration.
    iterations:
        Number of program/verify rounds executed.
    """

    conductance: np.ndarray
    rms_error_history: list[float] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.rms_error_history)

    @property
    def n_pulses(self) -> int:
        """Corrective pulses applied: one per device per verify round.

        Every round reads the whole array once and applies one
        corrective pulse to every device, so a session over ``d``
        devices spends ``iterations * d`` program/verify pulse events —
        the unit the energy layer's ``program_pulse_energy_j`` prices
        (write pulse plus its verify read).
        """
        return self.iterations * int(self.conductance.size)

    @property
    def final_rms_error(self) -> float:
        if not self.rms_error_history:
            raise ValueError("no programming iterations were executed")
        return self.rms_error_history[-1]


#: Devices per block of a verify round.  One block's verify read and
#: pulse noise (128 KB of float64 each) stay in cache while the round
#: updates that block, where whole-array steps re-stream every buffer.
BLOCK_DEVICES = 1 << 14


def program_and_verify(
    device: PcmDevice,
    target: np.ndarray,
    iterations: int = 5,
    gain: float = 1.0,
    seed: int | np.random.Generator | None = None,
) -> ProgrammingReport:
    """Program ``target`` conductances with an iterative verify loop.

    Each round runs in two passes over blocks of ``BLOCK_DEVICES``
    devices in C order.  The first takes every block's verify read
    through :meth:`PcmDevice.read`; the second draws every block's pulse
    noise into one block-sized buffer and applies the correction, the
    clip and the squared residual in place.  The generator thus draws
    every read and then every pulse of a round in C order, as one
    whole-array read and one whole-array pulse draw would, and the RMS
    error is one mean over the whole residual: conductances (C-order,
    whatever the target's layout), the error history and the generator
    state are those of whole-array rounds, bit for bit.

    Parameters
    ----------
    device:
        The PCM device model supplying noise characteristics.
    target:
        Desired conductances in siemens, at least one device; values
        are clipped to the device's programmable window.  An empty
        target, NaN or inf raises ``ValueError`` before any draw.
    iterations:
        Number of program/verify rounds, an integer >= 1.
    gain:
        Fraction of the measured error corrected per round; values below
        1 trade convergence speed for stability.
    seed:
        RNG seed or generator for the stochastic pulse errors.
    """
    iterations = check_int("iterations", iterations)
    if not 0.0 < gain <= 1.0:
        raise ValueError("gain must lie in (0, 1]")
    target = check_finite("target", np.asarray(target, dtype=float))
    if target.size == 0:
        raise ValueError(
            f"target must hold at least one device, got shape {target.shape}"
        )
    rng = as_rng(seed)
    pulse_sigma = device.prog_noise_sigma * device.g_max

    # One C-order copy of the clipped target: the blocks read it, and an
    # F-order coded member would otherwise be read strided every round.
    # Devices start from an un-programmed (low-conductance) state.
    clipped = np.clip(target, device.g_min, device.g_max, out=np.empty(target.shape))
    conductance = np.full(target.shape, device.g_min)
    residual = np.empty(target.shape)
    flat = clipped.reshape(-1), conductance.reshape(-1), residual.reshape(-1)
    blocks = [
        slice(start, start + BLOCK_DEVICES)
        for start in range(0, target.size, BLOCK_DEVICES)
    ]
    pulse_noise = (
        np.empty(min(target.size, BLOCK_DEVICES)) if pulse_sigma > 0.0 else None
    )
    history: list[float] = []
    for _ in range(iterations):
        for block in blocks:
            wanted, achieved, step = (array[block] for array in flat)
            np.subtract(wanted, device.read(achieved, seed=rng), out=step)
        for block in blocks:
            wanted, achieved, step = (array[block] for array in flat)
            step *= gain
            if pulse_noise is not None:
                noise = pulse_noise[: step.size]
                rng.standard_normal(out=noise)
                noise *= pulse_sigma
                step += noise
            achieved += step
            np.clip(achieved, device.g_min, device.g_max, out=achieved)
            np.subtract(achieved, wanted, out=step)
            np.square(step, out=step)
        history.append(float(np.sqrt(np.mean(residual))) / device.g_max)
    return ProgrammingReport(conductance=conductance, rms_error_history=history)
