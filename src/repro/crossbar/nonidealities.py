"""Array-level crossbar non-idealities: stuck devices.

Yield and endurance failures leave devices stuck at RESET or SET, which
perturbs the stored matrix.  The effect is second-order for the paper's
analyses; the fault ablation benchmark and the fleet lifetime model
inject it.
"""

from __future__ import annotations

import numpy as np

from repro._util import as_rng, check_fraction, check_in

__all__ = ["apply_stuck_faults"]

STUCK_MODES = ("low", "high", "both")


def apply_stuck_faults(
    conductance: np.ndarray,
    fraction: float,
    g_min: float,
    g_max: float,
    mode: str = "both",
    seed: int | np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Force a random fraction of devices to a stuck conductance.

    Parameters
    ----------
    conductance:
        Conductance matrix to perturb (not modified in place).
    fraction:
        Fraction of devices to mark stuck, in ``[0, 1]``.
    g_min, g_max:
        Conductances used for stuck-at-RESET / stuck-at-SET devices.
    mode:
        ``"low"`` (all faults stuck at ``g_min``), ``"high"`` (all at
        ``g_max``) or ``"both"`` (each fault picks one at random).
    seed:
        RNG seed or generator.

    Returns
    -------
    (faulty, mask):
        The perturbed matrix and a boolean mask of fault locations.
    """
    check_fraction("fraction", fraction)
    check_in("mode", mode, STUCK_MODES)
    rng = as_rng(seed)
    conductance = np.asarray(conductance, dtype=float).copy()
    mask = rng.random(conductance.shape) < fraction
    if mode == "low":
        stuck_values = np.full(conductance.shape, g_min)
    elif mode == "high":
        stuck_values = np.full(conductance.shape, g_max)
    else:
        stuck_values = np.where(
            rng.random(conductance.shape) < 0.5, g_min, g_max
        )
    conductance[mask] = stuck_values[mask]
    return conductance, mask
