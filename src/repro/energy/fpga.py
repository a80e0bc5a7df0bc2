"""Analytical model of the FPGA dot-product engine of Table I.

The paper compares the memristive crossbar against an FPGA design that
"operates at the same speed and the same precision at which we expect a
PCM-based crossbar to perform": 1024 dot-product units, each holding one
1024-element matrix row at 4-bit precision in a 32 Kbit BlockRAM, with
8 MACs per cycle per unit.  Table I reports the resource utilization and
power on a Xilinx ``xckul15`` device.

Timing model from Sec. III.B.3: one dot-product takes
``vector_size / lanes + pipeline_depth`` cycles; at 200 MHz a
1024x1024 MVM therefore takes 133 cycles = 665 ns, and with 26.6 W of
dynamic power consumes 17.7 uJ.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util import check_int, check_positive

__all__ = ["FpgaMvmDesign"]


@dataclass(frozen=True)
class FpgaMvmDesign:
    """The Table I FPGA matrix-vector-multiply engine."""

    n_units: int = 1024
    lanes: int = 8
    """MAC lanes per dot-product unit (vector elements per cycle)."""
    pipeline_depth: int = 5
    """Cycles to drain the accumulation pipeline."""
    clock_mhz: float = 200.0
    dynamic_power_w: float = 26.6
    """Estimated dynamic on-chip power during MVM (text value; the
    table's tool report is 26.4 W)."""
    static_power_w: float = 4.04
    luts: int = 307_908
    flipflops: int = 180_368
    block_rams: int = 1024
    lut_utilization: float = 0.464
    ff_utilization: float = 0.136
    bram_utilization: float = 0.474
    precision_bits: int = 4

    def __post_init__(self) -> None:
        check_positive("clock_mhz", self.clock_mhz)
        check_positive("dynamic_power_w", self.dynamic_power_w)
        if self.n_units < 1 or self.lanes < 1:
            raise ValueError("n_units and lanes must be >= 1")

    @property
    def clock_period_s(self) -> float:
        return 1.0 / (self.clock_mhz * 1e6)

    def dot_product_cycles(self, vector_size: int) -> int:
        """Cycles for one dot product: stream + pipeline drain."""
        if vector_size < 1:
            raise ValueError("vector_size must be >= 1")
        stream = -(-vector_size // self.lanes)  # ceil division
        return stream + self.pipeline_depth

    def mvm_cycles(self, rows: int, vector_size: int) -> int:
        """Cycles for a full MVM; rows beyond ``n_units`` serialize."""
        if rows < 1:
            raise ValueError("rows must be >= 1")
        passes = -(-rows // self.n_units)
        return passes * self.dot_product_cycles(vector_size)

    def mvm_latency_s(self, rows: int = 1024, vector_size: int = 1024) -> float:
        """Wall time of one MVM (665 ns for the 1024x1024 design point)."""
        return self.mvm_cycles(rows, vector_size) * self.clock_period_s

    def mvm_energy_j(self, rows: int = 1024, vector_size: int = 1024) -> float:
        """Dynamic energy of one MVM (17.7 uJ at the design point)."""
        return self.mvm_latency_s(rows, vector_size) * self.dynamic_power_w

    def matmat_cycles(
        self, batch: int, rows: int = 1024, vector_size: int = 1024
    ) -> int:
        """Cycles for a batch-B matmat with back-to-back input streaming.

        Consecutive vectors keep the MAC pipelines full, so the
        accumulation drain is paid once per pass instead of once per
        vector — the FPGA's (only) batch amortization.
        """
        check_int("batch", batch)
        if rows < 1:
            raise ValueError("rows must be >= 1")
        if vector_size < 1:
            raise ValueError("vector_size must be >= 1")
        passes = -(-rows // self.n_units)
        stream = -(-vector_size // self.lanes)
        return passes * (batch * stream + self.pipeline_depth)

    def matmat_latency_s(
        self, batch: int, rows: int = 1024, vector_size: int = 1024
    ) -> float:
        """Wall time of a batch-B matmat (665 ns at B = 1)."""
        return self.matmat_cycles(batch, rows, vector_size) * self.clock_period_s

    def matmat_energy_j(
        self, batch: int, rows: int = 1024, vector_size: int = 1024
    ) -> float:
        """Dynamic energy of a batch-B matmat."""
        return self.matmat_latency_s(batch, rows, vector_size) * self.dynamic_power_w
