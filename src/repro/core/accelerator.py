"""The CIM accelerator facade (Fig. 1a).

"The CIM core may consist of very dense memristive crossbar array and
CMOS peripheral circuitry responsible for the communication and control
from/to the crossbar ... Like the main memory, CIM core is addressable
from the processor and uses an extended address space.  The CIM core is
initialized with data from the external memory; this initialization
needs to be performed only once."

The facade exposes that model to software: named *regions* are either
bit regions (backed by a :class:`~repro.logic.BitwiseEngine`) or matrix
regions (backed by a :class:`~repro.crossbar.CrossbarOperator`), and
compute happens in place against them.
"""

from __future__ import annotations

import numpy as np

from repro._util import as_rng
from repro.crossbar import CrossbarOperator
from repro.devices import BinaryMemristor, PcmDevice
from repro.logic import BitwiseEngine

__all__ = ["CimAccelerator"]


class CimAccelerator:
    """Address-mapped CIM core holding bit and matrix regions.

    Parameters
    ----------
    binary_device:
        Device model for bit regions (Scouting Logic fabric).
    analog_device:
        Device model for matrix regions (MVM crossbars).
    dac_bits / adc_bits:
        Converter resolutions of the analog periphery.
    seed:
        RNG seed or generator shared by all regions.
    """

    def __init__(
        self,
        binary_device: BinaryMemristor | None = None,
        analog_device: PcmDevice | None = None,
        dac_bits: int | None = 8,
        adc_bits: int | None = 8,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        self._rng = as_rng(seed)
        self.binary_device = binary_device if binary_device is not None else BinaryMemristor()
        self.analog_device = analog_device if analog_device is not None else PcmDevice()
        self.dac_bits = dac_bits
        self.adc_bits = adc_bits
        self._bit_regions: dict[str, BitwiseEngine] = {}
        self._matrix_regions: dict[str, CrossbarOperator] = {}

    # -- region management -----------------------------------------------------
    def _check_free(self, name: str) -> None:
        if name in self._bit_regions or name in self._matrix_regions:
            raise ValueError(f"region {name!r} already exists")

    def store_bits(
        self, name: str, bit_matrix: np.ndarray, scratch_rows: int = 4
    ) -> BitwiseEngine:
        """Create a bit region initialized with ``bit_matrix``.

        ``scratch_rows`` extra rows are provisioned for intermediate
        results of chained bitwise operations.
        """
        self._check_free(name)
        bit_matrix = np.asarray(bit_matrix, dtype=np.uint8)
        if bit_matrix.ndim != 2:
            raise ValueError("bit_matrix must be 2-D (rows x bits)")
        if scratch_rows < 0:
            raise ValueError("scratch_rows must be non-negative")
        engine = BitwiseEngine(
            n_rows=bit_matrix.shape[0] + scratch_rows,
            width=bit_matrix.shape[1],
            device=self.binary_device,
            seed=self._rng,
        )
        engine.load(bit_matrix)
        self._bit_regions[name] = engine
        return engine

    def store_matrix(
        self, name: str, matrix: np.ndarray, **operator_kwargs
    ) -> CrossbarOperator:
        """Create a matrix region programmed with ``matrix``.

        The region is one :class:`~repro.crossbar.CrossbarOperator` on
        the accelerator's analog device; ``operator_kwargs`` (e.g.
        ``tile_shape`` or converter bits) pass through to it.
        """
        self._check_free(name)
        dac_bits = operator_kwargs.pop("dac_bits", self.dac_bits)
        adc_bits = operator_kwargs.pop("adc_bits", self.adc_bits)
        operator = CrossbarOperator(
            matrix,
            device=self.analog_device,
            dac_bits=dac_bits,
            adc_bits=adc_bits,
            seed=self._rng,
            **operator_kwargs,
        )
        self._matrix_regions[name] = operator
        return operator

    def bit_region(self, name: str) -> BitwiseEngine:
        try:
            return self._bit_regions[name]
        except KeyError:
            raise KeyError(f"unknown bit region {name!r}") from None

    def matrix_region(self, name: str) -> CrossbarOperator:
        try:
            return self._matrix_regions[name]
        except KeyError:
            raise KeyError(f"unknown matrix region {name!r}") from None

    @property
    def regions(self) -> dict[str, str]:
        """Region name -> kind mapping."""
        out = {name: "bits" for name in self._bit_regions}
        out.update({name: "matrix" for name in self._matrix_regions})
        return out

    # -- compute ---------------------------------------------------------------
    def bitwise(
        self, region: str, op: str, rows: list[int], dest: int | None = None
    ) -> np.ndarray:
        """One Scouting-Logic instruction inside a bit region."""
        return self.bit_region(region).bitwise(op, rows, dest=dest)

    def matvec(self, region: str, x: np.ndarray) -> np.ndarray:
        """Analog ``A @ x`` against a matrix region."""
        return self.matrix_region(region).matvec(x)

    def rmatvec(self, region: str, z: np.ndarray) -> np.ndarray:
        """Analog ``A.T @ z`` against a matrix region."""
        return self.matrix_region(region).rmatvec(z)

    def _check_batch(self, region: str, block: np.ndarray, expected: int) -> np.ndarray:
        block = np.asarray(block, dtype=float)
        if block.ndim != 2:
            raise ValueError(
                f"batch for region {region!r} must be 2-D (features x batch), "
                f"got {block.ndim}-D"
            )
        if block.shape[0] != expected:
            raise ValueError(
                f"batch for region {region!r} must have {expected} rows, "
                f"got {block.shape[0]}"
            )
        return block

    def matmat(self, region: str, x_block: np.ndarray) -> np.ndarray:
        """Batched analog ``A @ X`` (one input vector per column)."""
        operator = self.matrix_region(region)
        return operator.matmat(self._check_batch(region, x_block, operator.shape[1]))

    def rmatmat(self, region: str, z_block: np.ndarray) -> np.ndarray:
        """Batched analog ``A.T @ Z`` (one input vector per column)."""
        operator = self.matrix_region(region)
        return operator.rmatmat(self._check_batch(region, z_block, operator.shape[0]))

    # -- accounting --------------------------------------------------------------
    @property
    def stats(self) -> dict[str, dict[str, float]]:
        """Per-region operation counters."""
        out: dict[str, dict[str, float]] = {}
        for name, engine in self._bit_regions.items():
            out[name] = dict(engine.stats)
        for name, operator in self._matrix_regions.items():
            out[name] = {k: float(v) for k, v in operator.stats.items()}
        return out
