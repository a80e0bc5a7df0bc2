"""Multilevel phase-change memory (PCM) device model.

The compressed-sensing and machine-learning sections of the paper map
real-valued matrix coefficients onto PCM conductances (Le Gallo et al.,
IEEE TED 2018).  This model captures the three non-idealities that
matter for those applications:

* **programming noise** — an iterative program-and-verify loop leaves a
  residual Gaussian error on the target conductance;
* **read noise** — every read sees instantaneous (1/f-like) conductance
  fluctuations;
* **conductance drift** — amorphous-phase structural relaxation decays
  the conductance as ``g(t) = g(t0) * (t / t0) ** (-nu)``.

All methods are vectorized over numpy arrays of device states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from repro._util import as_rng, check_positive

__all__ = ["PcmDevice"]


@dataclass(frozen=True)
class PcmDevice:
    """Parameters of a multilevel PCM device.

    Attributes
    ----------
    g_min:
        Minimum programmable conductance in siemens (RESET-ish state).
    g_max:
        Maximum programmable conductance in siemens (SET state).
    prog_noise_sigma:
        Std-dev of the error of one programming pulse of
        :func:`~repro.crossbar.programming.program_and_verify`,
        expressed as a fraction of ``g_max`` (absolute,
        state-independent).
    read_noise_sigma:
        Relative std-dev of instantaneous read fluctuations.
    drift_nu:
        Drift exponent; 0 disables drift.  Amorphous-dominated states
        drift more, so the effective exponent scales with how close the
        state is to ``g_min``.
    drift_t0:
        Reference time (seconds) at which the programmed conductance is
        defined.
    set_step:
        Mean conductance increase of one partial-SET pulse (siemens),
        used by accumulation-based (CIM-A) computing.
    set_noise_sigma:
        Relative std-dev of the per-pulse crystallization increment
        (PCM SET accumulation is notoriously stochastic, ~30 %).
    """

    g_min: float = 0.1e-6
    g_max: float = 25e-6
    prog_noise_sigma: float = 0.01
    read_noise_sigma: float = 0.01
    drift_nu: float = 0.031
    drift_t0: float = 1.0
    set_step: float = 0.5e-6
    set_noise_sigma: float = 0.3

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not np.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value!r}")
        check_positive("g_max", self.g_max)
        if self.g_min < 0:
            raise ValueError("g_min must be >= 0")
        if self.g_min >= self.g_max:
            raise ValueError("g_min must be below g_max")
        for name in ("prog_noise_sigma", "read_noise_sigma", "drift_nu",
                     "set_noise_sigma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        check_positive("drift_t0", self.drift_t0)
        check_positive("set_step", self.set_step)

    @property
    def dynamic_range(self) -> float:
        """Programmable conductance span ``g_max - g_min`` in siemens."""
        return self.g_max - self.g_min

    def clip(self, conductance: np.ndarray) -> np.ndarray:
        """Clip conductances to the programmable window."""
        return np.clip(np.asarray(conductance, dtype=float), self.g_min, self.g_max)

    def drift_exponents(self, conductance: np.ndarray) -> np.ndarray:
        """Per-device exponent ``-nu(g)`` of the drift law.

        States near ``g_min`` are amorphous-dominated and drift with the
        full exponent ``drift_nu``; crystalline (high-g) states barely
        drift.  The exponent is interpolated linearly in between.  It
        depends on the programmed state only, so a reader that ages one
        programmed matrix can keep it until the devices are rewritten.
        """
        conductance = np.asarray(conductance, dtype=float)
        amorphous_fraction = 1.0 - (conductance - self.g_min) / self.dynamic_range
        return -(self.drift_nu * np.clip(amorphous_fraction, 0.0, 1.0))

    def drift_time_factor(self, elapsed: float) -> float:
        """The drift law's time factor ``(t0 + t) / t0`` after ``elapsed``
        seconds; ``elapsed`` must be finite and non-negative."""
        if not math.isfinite(elapsed) or elapsed < 0:
            raise ValueError("elapsed time must be finite and non-negative")
        return (self.drift_t0 + elapsed) / self.drift_t0

    def drift_factors(self, conductance: np.ndarray, elapsed: float) -> np.ndarray:
        """Multiplicative decay each state suffers after ``elapsed`` seconds.

        The per-device factor ``((t0 + t) / t0) ** (-nu(g))`` that
        :meth:`drifted` applies, exposed separately so predictive
        maintenance can forecast the *gain error* a drifting array will
        accumulate without materializing the drifted conductances
        (see :class:`~repro.crossbar.lifetime.DriftPredictor`, which
        inverts this law to schedule recalibration).
        """
        conductance = np.asarray(conductance, dtype=float)
        time_factor = self.drift_time_factor(elapsed)
        if self.drift_nu == 0.0 or elapsed == 0.0:
            return np.ones_like(conductance)
        return time_factor ** self.drift_exponents(conductance)

    def drifted(self, conductance: np.ndarray, elapsed: float) -> np.ndarray:
        """Conductance after ``elapsed`` seconds of structural drift
        (:meth:`drift_factors` applied to ``conductance``)."""
        conductance = np.asarray(conductance, dtype=float)
        if self.drift_nu == 0.0 or elapsed == 0.0:
            self.drift_time_factor(elapsed)  # validates degenerate cases too
            return conductance.copy()
        return conductance * self.drift_factors(conductance, elapsed)

    def accumulate(
        self,
        conductance: np.ndarray,
        pulses: np.ndarray | float = 1.0,
        seed: int | np.random.Generator | None = None,
    ) -> np.ndarray:
        """Apply partial-SET pulses: accumulation-based computing (CIM-A).

        Each pulse crystallizes a little more material, raising the
        conductance by roughly ``set_step`` with strong per-pulse noise
        and saturation toward ``g_max`` (growth slows as the device
        fills).  ``pulses`` may be fractional (pulse-energy modulation)
        and is broadcast against ``conductance``.  This is the physics
        behind temporal-correlation detection with computational
        phase-change memory (Sebastian et al., Nat. Commun. 2017 — the
        paper's reference [4] and its CIM-Array exemplar).
        """
        conductance = np.asarray(conductance, dtype=float)
        pulses = np.broadcast_to(np.asarray(pulses, dtype=float), conductance.shape)
        if np.any(pulses < 0):
            raise ValueError("pulse counts must be non-negative")
        rng = as_rng(seed)
        headroom = np.clip(
            1.0 - (conductance - self.g_min) / self.dynamic_range, 0.0, 1.0
        )
        increment = pulses * self.set_step * headroom
        if self.set_noise_sigma > 0.0:
            noise = rng.normal(0.0, self.set_noise_sigma, size=conductance.shape)
            increment = increment * np.clip(1.0 + noise, 0.0, None)
        return self.clip(conductance + increment)

    def read(
        self,
        conductance: np.ndarray,
        seed: int | np.random.Generator | None = None,
    ) -> np.ndarray:
        """Instantaneous conductance seen by one read operation.

        Each device sees its own relative fluctuation
        ``N(0, read_noise_sigma**2)``, drawn in C order, and a negative
        instantaneous conductance reads as zero.  The result is one
        new C-order array.
        """
        conductance = np.asarray(conductance, dtype=float)
        if self.read_noise_sigma == 0.0:
            return conductance.copy()
        rng = as_rng(seed)
        observed = rng.standard_normal(conductance.shape)
        observed *= self.read_noise_sigma
        observed += 1.0
        observed *= conductance
        return np.clip(observed, 0.0, None, out=observed)

    @classmethod
    def ideal(cls, g_max: float = 25e-6) -> "PcmDevice":
        """A noiseless, drift-free device (useful for exact baselines)."""
        return cls(
            g_min=0.0 + 1e-12,
            g_max=g_max,
            prog_noise_sigma=0.0,
            read_noise_sigma=0.0,
            drift_nu=0.0,
        )
