"""Fleet-as-a-service: a serving layer over sharded crossbar fleets.

The crossbar stack below this package answers *"how fast/cheap is one
``(n, B)`` dispatch?"*; this package answers *"what does the fleet look
like as a shared service?"* — many independent clients submitting
single vectors, coalesced into full readout windows under a latency
budget, with admission control at the door, the drift-maintenance
policy's due sweeps scheduled into traffic lulls, and per-tenant
metering that bills each workload through the same experiment store as
every benchmark.

Layering:

* :mod:`~repro.serving.clock` — the deterministic time protocol
  (:class:`VirtualClock`); the whole core is simulation-testable.
* :mod:`~repro.serving.queue` — :class:`Request`/:class:`RequestResult`,
  the deadline-bounded coalescing :class:`RequestQueue`, and
  :class:`AdmissionController` overload behaviour.
* :mod:`~repro.serving.server` — :class:`FleetServer`, the serving
  core: dispatch, demux, latency/SLO tracking, largest-remainder
  per-tenant counter attribution, ``kind="billing"`` store rows.
* :mod:`~repro.serving.windows` — :class:`MaintenanceWindow`,
  scheduling of a detached :class:`FleetMaintenance` policy's due
  sweeps into traffic lulls on the shared service line.
"""

from repro.serving.clock import VirtualClock
from repro.serving.queue import (
    ADMISSION_POLICIES,
    REQUEST_KINDS,
    AdmissionController,
    Request,
    RequestQueue,
    RequestResult,
)
from repro.serving.server import BlockDispatch, FleetServer
from repro.serving.windows import MaintenanceSlot, MaintenanceWindow

__all__ = [
    "ADMISSION_POLICIES",
    "REQUEST_KINDS",
    "AdmissionController",
    "BlockDispatch",
    "FleetServer",
    "MaintenanceSlot",
    "MaintenanceWindow",
    "Request",
    "RequestQueue",
    "RequestResult",
    "VirtualClock",
]
