"""Architectural analytical models for Figs. 3-4 (substrate S4).

Two first-order models — one for a conventional multicore (Intel Xeon
E5-2680-class) and one for the host + CIM-core architecture of Fig. 1 —
predict delay and energy as a function of the fraction ``X`` of
instructions accelerated in the CIM core and the L1/L2 cache miss rates
of the dataset instructions.  See DESIGN.md Sec. 5 for the calibration
against the paper's published anchors.
"""

from repro.arch.cim import CimArchitectureModel
from repro.arch.conventional import ConventionalArchitectureModel
from repro.arch.params import (
    CimArchParams,
    CimCoreParams,
    ConventionalParams,
    CoreParams,
)
from repro.arch.sweep import (
    MissRateSweep,
    banked_offload_rows,
    miss_rate_sweep,
    offload_sweep,
)

__all__ = [
    "CimArchParams",
    "CimArchitectureModel",
    "CimCoreParams",
    "ConventionalArchitectureModel",
    "ConventionalParams",
    "CoreParams",
    "MissRateSweep",
    "banked_offload_rows",
    "miss_rate_sweep",
    "offload_sweep",
]
