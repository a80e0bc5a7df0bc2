"""Analog memristive crossbar simulator (substrate S2).

The crossbar performs matrix-vector multiplication in the analog domain
using Ohm's law and Kirchhoff's current summation law (Sec. III.B and
Fig. 6 of the paper): matrix coefficients are stored as device
conductances, input vectors are applied as voltages through DACs, and
output currents are digitized by ADCs.

Public API
----------
* :class:`CrossbarArray` — one physical array of PCM devices, read at
  its programmed state (it keeps no drift clock).
* :class:`CrossbarOperator` — a signed real matrix mapped onto
  differential device pairs with DAC/ADC interfaces and optional tiling;
  exposes ``matvec`` (rows driven, columns read) and ``rmatvec``
  (columns driven, rows read), exactly as the AMP mapping requires,
  as the one-column case of the batched forms ``matmat``/``rmatmat``
  that drive 2-D voltage blocks (one input vector per column) with
  loop-equivalent conversion accounting.  Its ``age_seconds`` is the
  one drift clock of the programmed matrix.
* :class:`ShardedOperator` — window-schedules batches larger than one
  array's readout window across operator replicas (round-robin or
  greedy-by-active-columns) with exactly merged conversion counters
  and one drift time axis; per-shard reads run serially or on a
  thread pool (``parallelism="threads"``) with identical scheduling,
  results and counters.
* :class:`FleetMaintenance` — scheduled recalibration/reprogramming of
  drifting shards between dispatch windows, with separable counters,
  predictive (drift-model-driven) triggers and calibrate → reprogram →
  retire escalation.
* :class:`DriftPredictor` / :class:`FaultInjector` /
  :class:`LifetimeSimulator` — forecast drift-induced gain error from
  the device law, deliver Poisson-arriving stuck-device faults, and
  simulate whole fleet lifetimes (availability, NMSE envelope,
  retirement timeline).
* :class:`Dac` / :class:`Adc` — converter quantization models.
* :func:`program_and_verify` — iterative conductance programming.
"""

from repro.crossbar.array import CrossbarArray
from repro.crossbar.coding import DifferentialCoding
from repro.crossbar.converters import Adc, Dac
from repro.crossbar.mixed_precision import (
    MixedPrecisionSolver,
    SolveResult,
    spd_test_system,
)
from repro.crossbar.lifetime import (
    DriftPredictor,
    FaultEvent,
    FaultInjector,
    LifetimeResult,
    LifetimeSimulator,
)
from repro.crossbar.maintenance import FleetMaintenance, MaintenanceAction
from repro.crossbar.nonidealities import apply_stuck_faults
from repro.crossbar.operator import CrossbarOperator, DenseOperator
from repro.crossbar.programming import ProgrammingReport, program_and_verify
from repro.crossbar.sharding import (
    PARALLELISM_MODES,
    SHARD_SCHEDULES,
    ShardedOperator,
)
from repro.crossbar.tile import split_ranges

__all__ = [
    "Adc",
    "CrossbarArray",
    "CrossbarOperator",
    "Dac",
    "DenseOperator",
    "DifferentialCoding",
    "DriftPredictor",
    "FaultEvent",
    "FaultInjector",
    "FleetMaintenance",
    "LifetimeResult",
    "LifetimeSimulator",
    "MaintenanceAction",
    "MixedPrecisionSolver",
    "PARALLELISM_MODES",
    "ProgrammingReport",
    "SHARD_SCHEDULES",
    "ShardedOperator",
    "SolveResult",
    "apply_stuck_faults",
    "program_and_verify",
    "spd_test_system",
    "split_ranges",
]
