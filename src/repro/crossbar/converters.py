"""DAC and ADC quantization models for the crossbar periphery.

The paper's CIM-P crossbar applies inputs through digital-to-analog
converters and senses column currents through analog-to-digital
converters; their finite resolution is one of the key precision limits
discussed in Sec. IV.A.2.  Both models quantize symmetric signed ranges
to ``2**bits`` uniform levels and count conversions so energy models can
charge per conversion.  Both accept arrays of any shape — in particular
the 2-D ``(lines, batch)`` voltage/current blocks of the batched MVM
pipeline — and always count one conversion per element, so a batch of
``B`` vectors is charged exactly like ``B`` per-vector calls.  A
conversion copies its input once and clips, scales and rounds that copy
in place; the input is never written.
"""

from __future__ import annotations

import numpy as np

from repro._util import check_int, check_positive

__all__ = ["Dac", "Adc"]


# The widest converter modelled.  Up to it the top level index
# ``top = 2**(bits - 1) - 1`` stays below 2**31, so the rounded index of
# a clipped value never leaves ``[-top, top]`` and needs no clip:
# ``|x / step| <= top * (1 + 3 * 2**-53) < top + 1/2``.
MAX_BITS = 32


def _check_bits(bits: int | None) -> int | None:
    """``bits`` unchanged; ``ValueError`` unless ``None`` or 1..MAX_BITS."""
    if bits is not None and check_int("bits", bits) > MAX_BITS:
        raise ValueError(f"bits must be <= {MAX_BITS}, got {bits!r}")
    return bits


def _clip(values: np.ndarray, limit: float) -> np.ndarray:
    """Clip ``values`` to ``[-limit, limit]`` in place."""
    np.maximum(values, -limit, out=values)
    return np.minimum(values, limit, out=values)


def _quantize_midtread(values: np.ndarray, full_scale: float, bits: int) -> np.ndarray:
    """Uniform symmetric quantizer over ``[-full_scale, +full_scale]``,
    in place on ``values``, which the caller has clipped to that range.

    Uses ``2**bits - 1`` signed levels including zero, placed so the
    extreme levels sit exactly at +-full_scale; the symmetric level set
    keeps the quantizer odd (``q(-x) == -q(x)``).  One bit degenerates
    to a sign comparator.
    """
    if bits == 1:
        np.sign(values, out=values)
        values *= full_scale
        return values
    step = full_scale / (2 ** (bits - 1) - 1)
    values /= step
    np.rint(values, out=values)
    values *= step
    return values


class Dac:
    """Digital-to-analog converter driving crossbar lines.

    Parameters
    ----------
    bits:
        Resolution, 1 to ``MAX_BITS``; ``None`` models an ideal
        (continuous) driver.
    v_max:
        Maximum output magnitude in volts.  Inputs are expected in the
        normalized range ``[-1, 1]`` and map linearly to
        ``[-v_max, +v_max]``; out-of-range inputs saturate.
    """

    def __init__(self, bits: int | None = 8, v_max: float = 0.2) -> None:
        self.bits = _check_bits(bits)
        self.v_max = check_positive("v_max", v_max)
        self.n_conversions = 0

    def to_voltages(self, normalized: np.ndarray) -> np.ndarray:
        """Convert normalized values in ``[-1, 1]`` into drive voltages.

        Works element-wise on any shape (vector or ``(lines, batch)``
        block) and counts one conversion per element.
        """
        voltages = _clip(np.array(normalized, dtype=float), 1.0)
        voltages *= self.v_max
        if self.bits is not None:
            _quantize_midtread(voltages, self.v_max, self.bits)
        self.n_conversions += voltages.size
        return voltages

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Dac(bits={self.bits}, v_max={self.v_max})"


class Adc:
    """Analog-to-digital converter sensing crossbar currents.

    Parameters
    ----------
    bits:
        Resolution, 1 to ``MAX_BITS``; ``None`` models an ideal readout.
    full_scale:
        Magnitude (in amperes) of the largest representable current.
        Larger currents saturate, exactly as a real converter clips.
    """

    def __init__(self, bits: int | None = 8, full_scale: float = 1e-3) -> None:
        self.bits = _check_bits(bits)
        self.full_scale = check_positive("full_scale", full_scale)
        self.n_conversions = 0

    def quantize(self, currents: np.ndarray) -> np.ndarray:
        """Quantize sensed currents; returns values in amperes.

        Works element-wise on any shape (vector or ``(lines, batch)``
        block) and counts one conversion per element.
        """
        codes = _clip(np.array(currents, dtype=float), self.full_scale)
        self.n_conversions += codes.size
        if self.bits is None:
            return codes
        return _quantize_midtread(codes, self.full_scale, self.bits)

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
