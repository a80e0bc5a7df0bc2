"""DAC and ADC quantization models for the crossbar periphery.

The paper's CIM-P crossbar applies inputs through digital-to-analog
converters and senses column currents through analog-to-digital
converters; their finite resolution is one of the key precision limits
discussed in Sec. IV.A.2.  Both models quantize symmetric signed ranges
to ``2**bits`` uniform levels and count conversions so energy models can
charge per conversion.  Both accept arrays of any shape — in particular
the 2-D ``(lines, batch)`` voltage/current blocks of the batched MVM
pipeline — and always count one conversion per element, so a batch of
``B`` vectors is charged exactly like ``B`` per-vector calls.
"""

from __future__ import annotations

import numpy as np

from repro._util import check_int, check_positive

__all__ = ["Dac", "Adc"]


def _quantize_midtread(values: np.ndarray, full_scale: float, bits: int) -> np.ndarray:
    """Uniform symmetric quantizer over ``[-full_scale, +full_scale]``.

    Uses ``2**bits - 1`` signed levels including zero, placed so the
    extreme levels sit exactly at +-full_scale; the symmetric level set
    keeps the quantizer odd (``q(-x) == -q(x)``).  One bit degenerates
    to a sign comparator.
    """
    clipped = np.clip(values, -full_scale, full_scale)
    if bits == 1:
        return np.sign(clipped) * full_scale
    top_index = 2 ** (bits - 1) - 1
    step = full_scale / top_index
    indices = np.clip(np.round(clipped / step), -top_index, top_index)
    return indices * step


class Dac:
    """Digital-to-analog converter driving crossbar lines.

    Parameters
    ----------
    bits:
        Resolution; ``None`` models an ideal (continuous) driver.
    v_max:
        Maximum output magnitude in volts.  Inputs are expected in the
        normalized range ``[-1, 1]`` and map linearly to
        ``[-v_max, +v_max]``; out-of-range inputs saturate.
    """

    def __init__(self, bits: int | None = 8, v_max: float = 0.2) -> None:
        if bits is not None:
            check_int("bits", bits)
        check_positive("v_max", v_max)
        self.bits = bits
        self.v_max = v_max
        self.n_conversions = 0

    def to_voltages(self, normalized: np.ndarray) -> np.ndarray:
        """Convert normalized values in ``[-1, 1]`` into drive voltages.

        Works element-wise on any shape (vector or ``(lines, batch)``
        block) and counts one conversion per element.
        """
        normalized = np.asarray(normalized, dtype=float)
        voltages = np.clip(normalized, -1.0, 1.0) * self.v_max
        if self.bits is not None:
            voltages = _quantize_midtread(voltages, self.v_max, self.bits)
        self.n_conversions += normalized.size
        return voltages

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Dac(bits={self.bits}, v_max={self.v_max})"


class Adc:
    """Analog-to-digital converter sensing crossbar currents.

    Parameters
    ----------
    bits:
        Resolution; ``None`` models an ideal readout.
    full_scale:
        Magnitude (in amperes) of the largest representable current.
        Larger currents saturate, exactly as a real converter clips.
    """

    def __init__(self, bits: int | None = 8, full_scale: float = 1e-3) -> None:
        if bits is not None:
            check_int("bits", bits)
        check_positive("full_scale", full_scale)
        self.bits = bits
        self.full_scale = full_scale
        self.n_conversions = 0

    def quantize(self, currents: np.ndarray) -> np.ndarray:
        """Quantize sensed currents; returns values in amperes.

        Works element-wise on any shape (vector or ``(lines, batch)``
        block) and counts one conversion per element.
        """
        currents = np.asarray(currents, dtype=float)
        self.n_conversions += currents.size
        if self.bits is None:
            return np.clip(currents, -self.full_scale, self.full_scale)
        return _quantize_midtread(currents, self.full_scale, self.bits)

    @property
    def lsb(self) -> float:
        """Current step of one least-significant bit (0.0 when ideal)."""
        if self.bits is None:
            return 0.0
        if self.bits == 1:
            return 2.0 * self.full_scale
        return self.full_scale / (2 ** (self.bits - 1) - 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Adc(bits={self.bits}, full_scale={self.full_scale:g})"
