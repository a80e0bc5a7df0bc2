"""Memory-traffic model for neighbourhood filtering kernels.

Sec. III.A: next-generation image/video kernels "require data access
which goes beyond the immediate local neighbours ... typically 7x7 up
to 11x11 pixels of 2-3 bytes", which "do not directly fit in the local
register-files, so they need to be accessed from SRAM caches or
scratchpad memories", limiting GPU mapping efficiency.  The proposed
fix: "store the data in a large non-volatile memristive array and
enable irregular memory access by modifying the address decoder of the
memory macro."

This model counts the traffic both ways:

* **conventional** — per output pixel, the window is gathered from an
  SRAM scratchpad; row-major locality lets a line buffer reuse
  ``2r`` of the ``2r+1`` window rows, so each pixel is *fetched* from
  the next memory level once but *accessed* from SRAM ``(2r+1)^2``
  times per output.
* **CIM-P** — the modified address decoder activates the whole
  neighbourhood in one macro access per window row group, charging one
  array activation per window row plus per-bit sensing energy.  The
  row-burst variant (:meth:`NeighborhoodAccessModel.cim_burst`) amortizes
  each activation over a burst of horizontally adjacent outputs instead
  of streaming per pixel.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util import check_int, check_positive

__all__ = ["NeighborhoodAccessModel", "AccessReport"]


@dataclass(frozen=True)
class AccessReport:
    """Traffic and energy of filtering one image on one substrate."""

    accesses: float
    """Word-granularity accesses issued by the kernel."""
    energy_j: float
    time_s: float

    def per_pixel(self, n_pixels: int) -> tuple[float, float]:
        """(accesses, energy) per output pixel."""
        if n_pixels < 1:
            raise ValueError("n_pixels must be >= 1")
        return self.accesses / n_pixels, self.energy_j / n_pixels


@dataclass(frozen=True)
class NeighborhoodAccessModel:
    """Compare conventional vs CIM-P access cost of window kernels.

    Default energies: SRAM scratchpad access ~10 pJ (32 KB-class),
    per-access issue overhead ~2 pJ; CIM row activation ~5 pJ with
    ~20 fJ per sensed bit; timings of 1 ns per SRAM access versus
    10 ns per CIM macro activation (the paper's CIM instruction time).
    """

    bits_per_pixel: int = 24
    sram_access_energy_pj: float = 10.0
    issue_overhead_pj: float = 2.0
    sram_access_time_ns: float = 1.0
    cim_activation_energy_pj: float = 5.0
    cim_bit_sense_energy_pj: float = 0.02
    cim_activation_time_ns: float = 10.0

    def __post_init__(self) -> None:
        if self.bits_per_pixel < 1:
            raise ValueError("bits_per_pixel must be >= 1")
        for name in (
            "sram_access_energy_pj",
            "sram_access_time_ns",
            "cim_activation_energy_pj",
            "cim_activation_time_ns",
        ):
            check_positive(name, getattr(self, name))
        for name in ("issue_overhead_pj", "cim_bit_sense_energy_pj"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @staticmethod
    def _validate(height: int, width: int, radius: int) -> None:
        if height < 1 or width < 1:
            raise ValueError("image dimensions must be >= 1")
        if radius < 1:
            raise ValueError("radius must be >= 1")

    def window_pixels(self, radius: int) -> int:
        return (2 * radius + 1) ** 2

    def conventional(self, height: int, width: int, radius: int) -> AccessReport:
        """Scratchpad-based gather: (2r+1)^2 SRAM accesses per output."""
        self._validate(height, width, radius)
        n_pixels = height * width
        accesses = n_pixels * self.window_pixels(radius)
        energy = accesses * (
            self.sram_access_energy_pj + self.issue_overhead_pj
        ) * 1e-12
        time = accesses * self.sram_access_time_ns * 1e-9
        return AccessReport(accesses=accesses, energy_j=energy, time_s=time)

    def cim(self, height: int, width: int, radius: int) -> AccessReport:
        """Modified-address-decoder gather: one activation per window row.

        The decoder activates a full window row (2r+1 pixels) per
        macro access, so each output pixel costs ``2r+1`` activations;
        sensing energy is charged per bit actually delivered.
        """
        self._validate(height, width, radius)
        n_pixels = height * width
        rows_per_window = 2 * radius + 1
        activations = n_pixels * rows_per_window
        sensed_bits = n_pixels * self.window_pixels(radius) * self.bits_per_pixel
        energy = (
            activations * self.cim_activation_energy_pj
            + sensed_bits * self.cim_bit_sense_energy_pj
        ) * 1e-12
        time = activations * self.cim_activation_time_ns * 1e-9
        return AccessReport(
            accesses=activations, energy_j=energy, time_s=time
        )

    def cim_burst(
        self, height: int, width: int, radius: int, burst: int = 1
    ) -> AccessReport:
        """Row-burst CIM-P gather: one activation serves a whole burst.

        Instead of streaming per output pixel, the modified address
        decoder activates the *union* window row of ``burst``
        horizontally adjacent outputs — ``2r + burst`` pixels wide — so
        a row of ``W`` outputs needs ``ceil(W / burst)`` activations per
        window row instead of ``W``.  Sensing energy is still charged
        per bit actually delivered (the union rows of a ragged final
        burst are narrower).  ``burst = 1`` reproduces :meth:`cim`
        exactly, access for access and joule for joule.
        """
        self._validate(height, width, radius)
        burst = check_int("burst", burst)
        rows_per_window = 2 * radius + 1
        groups_per_row = -(-width // burst)  # ceil division, ragged tail
        activations = height * groups_per_row * rows_per_window
        # Each group's union row spans (2r + group width) pixels; over a
        # full image row the group widths sum to W exactly.
        sensed_pixels = height * rows_per_window * (
            groups_per_row * 2 * radius + width
        )
        sensed_bits = sensed_pixels * self.bits_per_pixel
        energy = (
            activations * self.cim_activation_energy_pj
            + sensed_bits * self.cim_bit_sense_energy_pj
        ) * 1e-12
        time = activations * self.cim_activation_time_ns * 1e-9
        return AccessReport(accesses=activations, energy_j=energy, time_s=time)

    def comparison_rows(
        self, height: int, width: int, radii: tuple[int, ...] = (3, 4, 5)
    ) -> list[dict[str, float]]:
        """Energy/access comparison over the paper's window range."""
        rows = []
        for radius in radii:
            conv = self.conventional(height, width, radius)
            cim = self.cim(height, width, radius)
            rows.append(
                {
                    "window": 2 * radius + 1,
                    "conventional_accesses": conv.accesses,
                    "cim_activations": cim.accesses,
                    "conventional_energy_j": conv.energy_j,
                    "cim_energy_j": cim.energy_j,
                    "energy_gain": conv.energy_j / cim.energy_j,
                }
            )
        return rows
