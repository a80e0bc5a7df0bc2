"""Mapping signed real matrices to differential conductance pairs.

Sec. III.B.2: "The positive and negative elements of A can be coded on
separate devices together with a subtraction circuit."  Positive
coefficients land on the G+ array, negative coefficients on the G-
array, and the subtraction ``I+ - I-`` recovers the signed product.

A common bias ``g_min`` is added to *both* arrays (devices cannot reach
exactly zero conductance); because both arrays see identical voltages,
the bias cancels in the differential current.
"""

from __future__ import annotations

import numpy as np

from repro._util import check_finite
from repro.devices import PcmDevice

__all__ = ["DifferentialCoding"]


class DifferentialCoding:
    """Encode/decode a signed matrix onto a (G+, G-) device pair.

    Parameters
    ----------
    device:
        PCM device model supplying the conductance window.
    utilization:
        Fraction of the window ``g_max - g_min`` used by the largest
        coefficient; values below 1 leave headroom for drift and
        programming error.
    """

    def __init__(self, device: PcmDevice, utilization: float = 1.0) -> None:
        if not 0.0 < utilization <= 1.0:
            raise ValueError("utilization must lie in (0, 1]")
        self.device = device
        self.utilization = utilization
        self._scale: float | None = None

    @property
    def scale(self) -> float:
        """Siemens per matrix unit; defined once :meth:`encode` ran."""
        if self._scale is None:
            raise RuntimeError("encode() must run before scale is available")
        return self._scale

    def encode(self, matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split ``matrix`` into target conductances (G+, G-).

        Returns matrices in siemens with the same shape as ``matrix``.
        A zero matrix maps both arrays to ``g_min`` and yields scale 1
        (any scale decodes a zero differential current correctly).  A
        matrix holding NaN or inf raises ``ValueError`` before any
        scaling: it has no finite peak to scale by.
        """
        matrix = check_finite("matrix", np.asarray(matrix, dtype=float))
        peak = float(np.max(np.abs(matrix))) if matrix.size else 0.0
        window = self.utilization * self.device.dynamic_range
        scale = window / peak if peak > 0 else 1.0
        if not np.isfinite(scale):
            # Subnormal peaks overflow the ratio; such coefficients are
            # below any representable conductance — encode as zero.
            matrix = np.zeros_like(matrix)
            scale = 1.0
        self._scale = scale
        positive = np.maximum(matrix, 0.0) * self._scale
        negative = np.maximum(-matrix, 0.0) * self._scale
        g_pos = self.device.g_min + positive
        g_neg = self.device.g_min + negative
        return g_pos, g_neg

    def decode(self, current_pos: np.ndarray, current_neg: np.ndarray) -> np.ndarray:
        """Convert differential currents back to matrix-domain values.

        The result still carries the voltage scaling of the drive; the
        caller divides by its own volts-per-unit factor.
        """
        return (np.asarray(current_pos) - np.asarray(current_neg)) / self.scale
