"""Design-space sweeps producing the planes of Figs. 3 and 4.

The paper plots, for X in {30, 60, 90} % and PS ~= 32 GB, the normalized
delay (Fig. 3) and normalized energy (Fig. 4) of both architectures over
an (L1 miss rate, L2 miss rate) grid.  Both metrics are normalized to
the CIM architecture's value at zero miss rates, which puts the flat CIM
plane at ~1 exactly as in the published axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro._util import check_int
from repro.arch.cim import CimArchitectureModel
from repro.arch.conventional import ConventionalArchitectureModel
from repro.arch.params import CimArchParams

__all__ = [
    "MissRateSweep",
    "banked_offload_rows",
    "miss_rate_sweep",
    "offload_sweep",
]


@dataclass
class MissRateSweep:
    """Normalized delay/energy planes for one accelerated fraction X.

    All grids have shape ``(len(m1_axis), len(m2_axis))`` with ``m1``
    along axis 0.  ``*_norm`` grids are normalized to the CIM value at
    ``(m1, m2) = (0, 0)``.
    """

    x_fraction: float
    m1_axis: np.ndarray
    m2_axis: np.ndarray
    conventional_delay_norm: np.ndarray
    cim_delay_norm: np.ndarray
    conventional_energy_norm: np.ndarray
    cim_energy_norm: np.ndarray
    delay_reference_ns: float
    energy_reference_pj: float

    @property
    def speedup(self) -> np.ndarray:
        """Pointwise conventional/CIM delay ratio (>1 = CIM faster)."""
        return self.conventional_delay_norm / self.cim_delay_norm

    @property
    def energy_gain(self) -> np.ndarray:
        """Pointwise conventional/CIM energy ratio (>1 = CIM greener)."""
        return self.conventional_energy_norm / self.cim_energy_norm

    @property
    def max_speedup(self) -> float:
        return float(self.speedup.max())

    @property
    def max_energy_gain(self) -> float:
        return float(self.energy_gain.max())

    @property
    def cim_ever_slower(self) -> bool:
        """True when some corner has the CIM architecture slower."""
        return bool(np.any(self.speedup < 1.0))

    @property
    def cim_ever_costlier(self) -> bool:
        """True when some corner has the CIM architecture using more energy."""
        return bool(np.any(self.energy_gain < 1.0))

    def rows(self) -> list[tuple[float, float, float, float, float, float]]:
        """Flat (m1, m2, conv_delay, cim_delay, conv_energy, cim_energy)."""
        out = []
        for i, m1 in enumerate(self.m1_axis):
            for j, m2 in enumerate(self.m2_axis):
                out.append(
                    (
                        float(m1),
                        float(m2),
                        float(self.conventional_delay_norm[i, j]),
                        float(self.cim_delay_norm[i, j]),
                        float(self.conventional_energy_norm[i, j]),
                        float(self.cim_energy_norm[i, j]),
                    )
                )
        return out


def miss_rate_sweep(
    x_fraction: float,
    m1_axis: np.ndarray | None = None,
    m2_axis: np.ndarray | None = None,
    conventional: ConventionalArchitectureModel | None = None,
    cim: CimArchitectureModel | None = None,
) -> MissRateSweep:
    """Evaluate both architecture models over a miss-rate grid.

    Parameters
    ----------
    x_fraction:
        Fraction of instructions accelerated on the CIM core (the
        paper's X, e.g. 0.3 / 0.6 / 0.9).
    m1_axis, m2_axis:
        L1 and L2 miss-rate sample points; default 0..1 in steps of 0.25
        (the figures' grid).
    conventional, cim:
        Architecture models; library defaults when omitted.
    """
    if m1_axis is None:
        m1_axis = np.linspace(0.0, 1.0, 5)
    if m2_axis is None:
        m2_axis = np.linspace(0.0, 1.0, 5)
    m1_axis = np.asarray(m1_axis, dtype=float)
    m2_axis = np.asarray(m2_axis, dtype=float)
    conventional = conventional or ConventionalArchitectureModel()
    cim = cim or CimArchitectureModel()

    m1_grid, m2_grid = np.meshgrid(m1_axis, m2_axis, indexing="ij")
    conv_delay = np.asarray(
        conventional.delay_per_instruction_ns(x_fraction, m1_grid, m2_grid)
    )
    cim_delay = np.asarray(
        cim.delay_per_instruction_ns(x_fraction, m1_grid, m2_grid)
    )
    conv_energy = np.asarray(
        conventional.energy_per_instruction_pj(x_fraction, m1_grid, m2_grid)
    )
    cim_energy = np.asarray(
        cim.energy_per_instruction_pj(x_fraction, m1_grid, m2_grid)
    )

    delay_ref = float(cim.delay_per_instruction_ns(x_fraction, 0.0, 0.0))
    energy_ref = float(cim.energy_per_instruction_pj(x_fraction, 0.0, 0.0))
    return MissRateSweep(
        x_fraction=x_fraction,
        m1_axis=m1_axis,
        m2_axis=m2_axis,
        conventional_delay_norm=conv_delay / delay_ref,
        cim_delay_norm=cim_delay / delay_ref,
        conventional_energy_norm=conv_energy / energy_ref,
        cim_energy_norm=cim_energy / energy_ref,
        delay_reference_ns=delay_ref,
        energy_reference_pj=energy_ref,
    )


def offload_sweep(
    x_fractions: np.ndarray | list[float],
    m1: float,
    m2: float,
    conventional: ConventionalArchitectureModel | None = None,
    cim: CimArchitectureModel | None = None,
) -> list[dict[str, float]]:
    """Speedup/energy-gain vs accelerated fraction at fixed miss rates.

    Supports the Sec. II.C observation that "at least 30% of a database
    application could be accelerated": the rows show where offloading
    starts to pay off.
    """
    conventional = conventional or ConventionalArchitectureModel()
    cim = cim or CimArchitectureModel()
    rows = []
    for x in x_fractions:
        conv_d = float(conventional.delay_per_instruction_ns(x, m1, m2))
        cim_d = float(cim.delay_per_instruction_ns(x, m1, m2))
        conv_e = float(conventional.energy_per_instruction_pj(x, m1, m2))
        cim_e = float(cim.energy_per_instruction_pj(x, m1, m2))
        rows.append(
            {
                "x_fraction": float(x),
                "speedup": conv_d / cim_d,
                "energy_gain": conv_e / cim_e,
                "conventional_delay_ns": conv_d,
                "cim_delay_ns": cim_d,
                "conventional_energy_pj": conv_e,
                "cim_energy_pj": cim_e,
            }
        )
    return rows


def banked_offload_rows(
    bank_counts: tuple[int, ...] = (1, 4, 16, 64),
    x_fraction: float = 0.6,
    m1: float = 0.8,
    m2: float = 0.8,
    conventional: ConventionalArchitectureModel | None = None,
    cim_params: CimArchParams | None = None,
) -> list[dict[str, float]]:
    """System speedup/energy-gain for a sweep of converter-bank counts.

    ``k`` converter banks multiply the CIM core's effective issue width
    by ``k``, which shortens the accelerated part of the delay *and* the
    static-leakage energy charged over it.  ``k = 1`` is serial
    peripheral reuse (the :func:`offload_sweep` row at the same
    ``x_fraction``) and ``k = B`` gives every vector of a B-column batch
    its own bank (fully parallel); each row reports the system-level
    payoff of one deployment.
    """
    base = cim_params if cim_params is not None else CimArchParams()
    conventional = conventional or ConventionalArchitectureModel()
    conv_d = float(conventional.delay_per_instruction_ns(x_fraction, m1, m2))
    conv_e = float(conventional.energy_per_instruction_pj(x_fraction, m1, m2))
    rows = []
    for banks in bank_counts:
        check_int("bank counts", banks)
        widened = replace(
            base,
            cim=replace(base.cim, parallel_width=base.cim.parallel_width * int(banks)),
        )
        model = CimArchitectureModel(widened)
        cim_d = float(model.delay_per_instruction_ns(x_fraction, m1, m2))
        cim_e = float(model.energy_per_instruction_pj(x_fraction, m1, m2))
        rows.append(
            {
                "banks": float(int(banks)),
                "speedup": conv_d / cim_d,
                "energy_gain": conv_e / cim_e,
                "cim_delay_ns": cim_d,
                "cim_energy_pj": cim_e,
            }
        )
    return rows
