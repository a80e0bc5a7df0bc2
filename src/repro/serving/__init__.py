"""Fleet-as-a-service: a serving layer over sharded crossbar fleets.

The crossbar stack below this package answers *"how fast/cheap is one
``(n, B)`` dispatch?"*; this package answers *"what does the fleet look
like as a shared service?"* — many independent clients submitting
single vectors, coalesced into full readout windows under a latency
budget, with the drift-maintenance policy's due sweeps scheduled into
traffic lulls, and per-tenant metering of the fleet's counters that
:meth:`~repro.energy.CrossbarCostModel.energy_from_stats` prices.
Every submitted request is queued, served and counted one way.

Layering:

* :mod:`~repro.serving.clock` — the deterministic time protocol
  (:class:`VirtualClock`); the whole core is simulation-testable.
* :mod:`~repro.serving.queue` — :class:`Request`/:class:`RequestResult`
  and the deadline-bounded coalescing :class:`RequestQueue`.
* :mod:`~repro.serving.server` — :class:`FleetServer`, the serving
  core: dispatch, demux, latency/SLO tracking and largest-remainder
  per-tenant counter attribution.
* :mod:`~repro.serving.windows` — :class:`MaintenanceWindow`,
  scheduling of a detached :class:`FleetMaintenance` policy's due
  sweeps into traffic lulls on the shared service line.
"""

from repro.serving.clock import VirtualClock
from repro.serving.queue import REQUEST_KINDS, Request, RequestQueue, RequestResult
from repro.serving.server import BlockDispatch, FleetServer
from repro.serving.windows import MaintenanceSlot, MaintenanceWindow

__all__ = [
    "REQUEST_KINDS",
    "BlockDispatch",
    "FleetServer",
    "MaintenanceSlot",
    "MaintenanceWindow",
    "Request",
    "RequestQueue",
    "RequestResult",
    "VirtualClock",
]
