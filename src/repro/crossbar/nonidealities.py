"""Array-level crossbar non-idealities: IR drop and stuck devices.

These effects are second-order for the paper's analyses but matter for
the ablation benchmarks: IR drop limits usable array sizes and stuck
devices perturb the stored matrix.
"""

from __future__ import annotations

import numpy as np

from repro._util import as_rng, check_fraction, check_in

__all__ = ["ir_drop_factors", "apply_stuck_faults"]

STUCK_MODES = ("low", "high", "both")


def ir_drop_factors(
    conductance: np.ndarray, wire_resistance: float, axis: int
) -> np.ndarray:
    """First-order IR-drop attenuation factors for each device.

    A device far from the line driver sees a reduced effective voltage
    because the cumulative line current drops across the wire segments
    before it.  This first-order model attenuates device ``k`` along the
    driven axis by ``1 / (1 + R_w * sum_{j<=k} G_line[j])`` where the sum
    accumulates the conductance loading between the driver and the
    device — exact for a single energized line feeding a virtual-ground
    termination, and a good upper bound on the error for full-array
    operation.

    Parameters
    ----------
    conductance:
        Device conductance matrix ``(rows, cols)`` in siemens.
    wire_resistance:
        Per-segment wire resistance in ohms.
    axis:
        0 when rows are driven (current flows along each row wire),
        1 when columns are driven.

    Returns
    -------
    numpy.ndarray
        Factors in ``(0, 1]`` with the same shape as ``conductance``.
    """
    check_in("axis", axis, (0, 1))
    if wire_resistance < 0:
        raise ValueError("wire_resistance must be non-negative")
    conductance = np.asarray(conductance, dtype=float)
    if wire_resistance == 0.0:
        return np.ones_like(conductance)
    # Accumulate loading along the wire that distributes the drive
    # voltage: when rows are driven the row wire runs across columns.
    along = 1 if axis == 0 else 0
    loading = np.cumsum(conductance, axis=along)
    return 1.0 / (1.0 + wire_resistance * loading)


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
