"""Data-analytics kernels of Sec. II (systems S5, S6).

* :class:`BitmapIndex` — bitmap (bin) representation of a table
  (Fig. 2b), the data layout the CIM core stores.
* :class:`QuerySelect` — conjunctive bitmap queries (TPC-H query-06)
  executed either on the CPU or inside a
  :class:`~repro.logic.BitwiseEngine` via Scouting Logic.
"""

from repro.analytics.bitmap import BitmapIndex
from repro.analytics.correlation import (
    CorrelatedProcesses,
    TemporalCorrelationDetector,
)
from repro.analytics.query import QuerySelect, tpch_query6

__all__ = [
    "BitmapIndex",
    "CorrelatedProcesses",
    "QuerySelect",
    "TemporalCorrelationDetector",
    "tpch_query6",
]
