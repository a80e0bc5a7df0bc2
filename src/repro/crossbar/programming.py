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


def program_and_verify(
    device: PcmDevice,
    target: np.ndarray,
    iterations: int = 5,
    gain: float = 1.0,
    seed: int | np.random.Generator | None = None,
) -> ProgrammingReport:
    """Program ``target`` conductances with an iterative verify loop.

    Parameters
    ----------
    device:
        The PCM device model supplying noise characteristics.
    target:
        Desired conductances in siemens; values are clipped to the
        device's programmable window.  NaN or inf raises ``ValueError``.
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
    target = device.clip(check_finite("target", np.asarray(target, dtype=float)))
    rng = as_rng(seed)
    pulse_sigma = device.prog_noise_sigma * device.g_max

    # Devices start from an un-programmed (low-conductance) state.  Each
    # round runs in place: the verify read's new array holds the
    # correction and then the residual.  Every buffer is C-order, so
    # the pulse draws fill devices in the order ``rng.normal(size=)``
    # would, and the residual's mean sums in C order.
    conductance = np.full(target.shape, device.g_min)
    pulse_noise = np.empty(target.shape) if pulse_sigma > 0.0 else None
    history: list[float] = []
    for _ in range(iterations):
        step = device.read(conductance, seed=rng)
        np.subtract(target, step, out=step)
        step *= gain
        if pulse_noise is not None:
            rng.standard_normal(out=pulse_noise)
            pulse_noise *= pulse_sigma
            step += pulse_noise
        conductance += step
        np.clip(conductance, device.g_min, device.g_max, out=conductance)
        np.subtract(conductance, target, out=step)
        np.square(step, out=step)
        history.append(float(np.sqrt(np.mean(step))) / device.g_max)
    return ProgrammingReport(conductance=conductance, rms_error_history=history)
