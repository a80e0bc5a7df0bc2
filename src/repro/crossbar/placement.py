"""Cost-model-driven shard placement optimization.

Round-robin and greedy-by-active-columns schedule each window in
isolation, and the ``banks=k`` readout configuration is chosen by hand.
This module treats both as one explicit cost-minimization problem — the
same exact-formulation-plus-fast-heuristics structure the districting
literature uses for cut-cost minimization — over a
:class:`~repro.energy.CrossbarCostModel`-derived latency/energy
objective:

* **window → shard** — how the ``batch_window``-column windows of a
  block map onto heterogeneous replicas (different loads, calibration
  gains and staleness);
* **banks = k** — the readout parallelism each shard deploys, trading
  converter area and peak power against latency.

The objective
-------------
A shard whose calibration gain has drifted from unity, or whose
staleness implies uncompensated drift, needs oversampled reads to hit
the same output fidelity; the optimizer models that as a *service
factor* ``f >= 1`` scaling both the time and the energy of every live
column served there (:meth:`PlacementOptimizer.service_factor`).  For
an assignment that serves ``served_i`` active columns on shard ``i``
holding backlog ``load_i``, with ``k`` readout banks::

    latency = max_i (load_i + served_i) * f_i * cycle_time / k
    energy  = sum_i  served_i * f_i * mvm_energy
    cost    = latency_weight * latency/cycle_time
            + energy_weight  * energy/mvm_energy

(the two terms are normalized to cycles and MVM quanta, so the default
weights compare like with like).  Banks scale latency but not energy —
the Walden figure of merit makes conversion energy bank-count
invariant — so ``k`` is bought purely with silicon, which every plan
reports (area and peak power via
:meth:`~repro.energy.CrossbarCostModel.batch_readout` on the shares the
assignment actually produced).

Two solvers, one API
--------------------
* ``solver="exact"`` — branch-and-bound enumeration with lower-bound
  pruning and identical-shard symmetry breaking; the oracle for small
  instances (at most :attr:`~PlacementOptimizer.exact_items` weighted
  items across :attr:`~PlacementOptimizer.exact_shards` shards).
* ``solver="heuristic"`` — cost-greedy labeling (each item goes to the
  shard minimizing its f-weighted completion, lowest index breaking
  ties) followed by first-improvement move/swap local search on the
  true objective.  On a *homogeneous* fleet (equal service factors)
  the labeling reduces exactly to greedy-by-active-columns and the
  local search is skipped by construction, so a fleet dispatching
  through :meth:`assign_windows` reproduces ``schedule="greedy"``
  decision-for-decision — the bitwise gate
  ``benchmarks/bench_placement.py`` enforces.
* ``solver="auto"`` — exact when the instance fits the oracle limits,
  heuristic otherwise (the graceful fleet-scale degradation).

:class:`~repro.crossbar.sharding.ShardedOperator` consumes
:meth:`PlacementOptimizer.assign_windows` as its ``schedule="optimized"``;
:meth:`PlacementOptimizer.optimize` is the offline co-optimization entry
point returning a full :class:`PlacementPlan` (windows and banks
together).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro._util import check_in, check_positive
from repro.energy.crossbar_cost import CrossbarCostModel

__all__ = [
    "PLACEMENT_SOLVERS",
    "PlacementOptimizer",
    "PlacementPlan",
    "ShardState",
]

PLACEMENT_SOLVERS = ("auto", "exact", "heuristic")

#: Strict-improvement slack for the local search and the branch-and-
#: bound pruning: float-noise-sized so equal-cost relabelings are never
#: accepted (determinism) and the exact solver never prunes a true tie.
_EPS = 1e-12


@dataclass(frozen=True)
class ShardState:
    """One candidate array as the optimizer sees it.

    ``index`` is the shard's position in its fleet (what the returned
    assignments refer to), ``load`` its backlog in active columns
    (:attr:`ShardedOperator.loads`), ``gain`` the last calibrated
    digital gain and ``staleness_s`` the seconds since its last
    maintenance event.
    """

    index: int
    load: int = 0
    gain: float = 1.0
    staleness_s: float = 0.0

    def __post_init__(self) -> None:
        if self.load < 0:
            raise ValueError("load must be non-negative")
        if not math.isfinite(self.gain):
            raise ValueError("gain must be finite")
        if not self.staleness_s >= 0.0:
            raise ValueError(
                f"staleness_s must be >= 0, got {self.staleness_s!r}"
            )


@dataclass(frozen=True)
class PlacementPlan:
    """One co-optimized placement: windows and readout banks.

    ``window_to_shard`` maps each window to a *shard index*
    (``ShardState.index``); the report fields price that assignment
    under the chosen bank count, via the same objective both solvers
    minimized.
    """

    window_to_shard: tuple[int, ...]
    banks: int
    cost: float
    latency_s: float
    energy_j: float
    area_m2: float
    peak_power_w: float
    solver: str


class PlacementOptimizer:
    """Minimize modeled latency/energy of window and bank placement.

    Parameters
    ----------
    model:
        The :class:`~repro.energy.CrossbarCostModel` the objective and
        the silicon (area/peak-power) report derive from.
    latency_weight / energy_weight:
        Objective weights on the cycle-normalized makespan and the
        MVM-normalized energy terms.
    error_weight:
        How strongly modeled read error inflates a shard's service
        factor (0 makes every fleet homogeneous to the optimizer).
    staleness_halflife_s:
        Staleness at which the drift term of the modeled error reaches
        one half of its (unit) ceiling.
    solver:
        Default solver for :meth:`optimize`: ``"auto"``, ``"exact"`` or
        ``"heuristic"``.
    exact_items / exact_shards:
        Instance-size ceiling of the exact solver (weighted items x
        candidate shards); beyond it ``"exact"`` raises and ``"auto"``
        degrades to the heuristic.
    local_search_rounds:
        Maximum move/swap improvement rounds of the heuristic.
    banks_candidates:
        Bank counts :meth:`optimize` may deploy.
    """

    def __init__(
        self,
        model: CrossbarCostModel | None = None,
        *,
        latency_weight: float = 1.0,
        energy_weight: float = 1.0,
        error_weight: float = 4.0,
        staleness_halflife_s: float = 1e5,
        solver: str = "auto",
        exact_items: int = 16,
        exact_shards: int = 8,
        local_search_rounds: int = 8,
        banks_candidates: tuple[int, ...] = (1, 2, 4, 8),
    ) -> None:
        self.model = model if model is not None else CrossbarCostModel()
        for name, value in (
            ("latency_weight", latency_weight),
            ("energy_weight", energy_weight),
        ):
            if value < 0:
                raise ValueError(f"{name} must be non-negative")
        if latency_weight == 0 and energy_weight == 0:
            raise ValueError("at least one objective weight must be positive")
        if error_weight < 0:
            raise ValueError("error_weight must be non-negative")
        check_positive("staleness_halflife_s", staleness_halflife_s)
        check_in("solver", solver, PLACEMENT_SOLVERS)
        if exact_items < 1 or exact_shards < 1:
            raise ValueError("exact_items and exact_shards must be >= 1")
        if local_search_rounds < 0:
            raise ValueError("local_search_rounds must be non-negative")
        banks_candidates = tuple(int(k) for k in banks_candidates)
        if not banks_candidates or any(k < 1 for k in banks_candidates):
            raise ValueError("banks_candidates must be integers >= 1")
        self.latency_weight = float(latency_weight)
        self.energy_weight = float(energy_weight)
        self.error_weight = float(error_weight)
        self.staleness_halflife_s = float(staleness_halflife_s)
        self.solver = solver
        self.exact_items = int(exact_items)
        self.exact_shards = int(exact_shards)
        self.local_search_rounds = int(local_search_rounds)
        self.banks_candidates = tuple(sorted(set(banks_candidates)))

    # -- the modeled objective -------------------------------------------------
    def service_factor(self, shard: ShardState) -> float:
        """Modeled per-column slowdown/energy factor of one shard.

        ``1 + error_weight * (|1 - gain| + drift)`` where the drift term
        saturates as ``staleness / (staleness + halflife)`` — a fresh,
        calibrated shard costs exactly 1.0, and equal state means equal
        factor (the homogeneous case every bitwise gate relies on).
        """
        drift = shard.staleness_s / (shard.staleness_s + self.staleness_halflife_s)
        return 1.0 + self.error_weight * (abs(1.0 - shard.gain) + drift)

    def _factors(self, shards: list[ShardState]) -> list[float]:
        if not shards:
            raise ValueError("at least one candidate shard is required")
        return [self.service_factor(shard) for shard in shards]

    @staticmethod
    def _weights(items, name: str) -> list[int]:
        weights = []
        for value in items:
            if value != int(value) or value < 0:
                raise ValueError(f"{name} must be non-negative integers")
            weights.append(int(value))
        return weights

    def _cost_terms(self, served, loads, factors, banks) -> tuple[float, float]:
        """(makespan cycles, energy quanta) of a served-columns vector."""
        busy = max(
            (loads[p] + served[p]) * factors[p] for p in range(len(served))
        )
        energy = sum(served[p] * factors[p] for p in range(len(served)))
        return busy / banks, energy

    def _cost(self, served, loads, factors, banks) -> float:
        cycles, quanta = self._cost_terms(served, loads, factors, banks)
        return self.latency_weight * cycles + self.energy_weight * quanta

    def _silicon(self, served, banks) -> tuple[float, float]:
        """(area_m2, peak_power_w) of the engaged deployment.

        Idle shards cost nothing (matching
        :func:`~repro.energy.sharded_readout_rows`); each active shard
        deploys at most as many banks as it has columns to read.
        """
        reports = [
            self.model.batch_readout(share, banks=min(banks, share))
            for share in served
            if share > 0
        ]
        return (
            sum(report.total_area_m2 for report in reports),
            sum(report.peak_power_w for report in reports),
        )

    def evaluate(
        self,
        assignment,
        weights,
        shards: list[ShardState],
        banks: int = 1,
    ) -> dict[str, float]:
        """Price one window→shard assignment under this objective.

        ``assignment`` maps each item to a *shard index*
        (``ShardState.index``), as returned by
        :meth:`assign_windows`/:meth:`optimize` — or as extracted from
        a :meth:`ShardedOperator.plan_assignments` plan, which is what
        lets the bench price round-robin and greedy dispatch with the
        exact same yardstick.
        """
        weights = self._weights(weights, "weights")
        if len(assignment) != len(weights):
            raise ValueError("assignment and weights must have equal length")
        factors = self._factors(shards)
        position = {shard.index: p for p, shard in enumerate(shards)}
        served = [0] * len(shards)
        for index, weight in zip(assignment, weights):
            if index not in position:
                raise ValueError(f"assignment names unknown shard {index!r}")
            served[position[index]] += weight
        loads = [shard.load for shard in shards]
        cycles, quanta = self._cost_terms(served, loads, factors, banks)
        area_m2, peak_power_w = self._silicon(served, banks)
        return {
            "cost": self.latency_weight * cycles + self.energy_weight * quanta,
            "latency_s": cycles * self.model.cycle_time_s,
            "energy_j": quanta * self.model.mvm_energy_j,
            "area_m2": area_m2,
            "peak_power_w": peak_power_w,
        }

    # -- heuristic solver ------------------------------------------------------
    def _label(self, weights, loads, factors) -> list[int]:
        """Cost-greedy labeling, in item order.

        Each item goes to the shard minimizing its f-weighted completion
        ``(load + pending + weight) * factor``, lowest position breaking
        ties.  With uniform factors the key ordering equals plain
        greedy-by-active-columns (the added ``weight`` is a constant
        shift), tie-sets included — which is exactly what makes
        ``schedule="optimized"`` bitwise-reproduce greedy dispatch on
        homogeneous fleets.
        """
        pending = [float(load) for load in loads]
        assignment = []
        for weight in weights:
            choice = min(
                range(len(loads)),
                key=lambda p: ((pending[p] + weight) * factors[p], p),
            )
            assignment.append(choice)
            pending[choice] += weight
        return assignment

    def _improve(self, assignment, weights, loads, factors, banks) -> list[int]:
        """First-improvement move/swap local search on the true objective.

        Deterministic scan order, strict improvement only — the result
        is a pure function of the instance.  Zero-weight items never
        move (they are cost-free wherever they sit).
        """
        assignment = list(assignment)
        n = len(loads)
        served = [0.0] * n
        for item, weight in zip(assignment, weights):
            served[item] += weight
        cost = self._cost(served, loads, factors, banks)
        for _ in range(self.local_search_rounds):
            improved = False
            for j, weight in enumerate(weights):
                if weight == 0:
                    continue
                current = assignment[j]
                for p in range(n):
                    if p == current:
                        continue
                    served[current] -= weight
                    served[p] += weight
                    candidate = self._cost(served, loads, factors, banks)
                    if candidate < cost - _EPS:
                        cost = candidate
                        assignment[j] = p
                        current = p
                        improved = True
                    else:
                        served[current] += weight
                        served[p] -= weight
            for j in range(len(weights)):
                for k in range(j + 1, len(weights)):
                    pj, pk = assignment[j], assignment[k]
                    wj, wk = weights[j], weights[k]
                    if pj == pk or wj == wk:
                        continue
                    served[pj] += wk - wj
                    served[pk] += wj - wk
                    candidate = self._cost(served, loads, factors, banks)
                    if candidate < cost - _EPS:
                        cost = candidate
                        assignment[j], assignment[k] = pk, pj
                        improved = True
                    else:
                        served[pj] -= wk - wj
                        served[pk] -= wj - wk
            if not improved:
                break
        return assignment

    def _heuristic(self, weights, loads, factors, banks):
        assignment = self._label(weights, loads, factors)
        if max(factors) > min(factors):
            # Homogeneous instances skip the local search by
            # construction: it could only re-shuffle equal-cost ties,
            # and the labeling *is* greedy dispatch there (the bitwise
            # contract of schedule="optimized").
            assignment = self._improve(assignment, weights, loads, factors, banks)
        return assignment

    # -- exact solver ----------------------------------------------------------
    def _exact(self, weights, loads, factors, banks):
        """Branch-and-bound over item→shard labelings (the test oracle).

        Items are branched largest-first; a partial labeling is pruned
        when its lower bound (its makespan so far — which only grows —
        plus the remaining energy at the best factor) cannot beat the
        incumbent.  Shards with identical (load, factor) that have
        received nothing yet are interchangeable, so only the first of
        each such group is branched into.
        """
        n = len(loads)
        items = sorted(
            (j for j in range(len(weights)) if weights[j] > 0),
            key=lambda j: (-weights[j], j),
        )
        if len(items) > self.exact_items or n > self.exact_shards:
            raise ValueError(
                f"instance ({len(items)} items x {n} shards) exceeds the "
                f"exact-solver limits ({self.exact_items} x "
                f"{self.exact_shards}); use the heuristic solver"
            )
        remaining = [0.0] * (len(items) + 1)
        for pos in range(len(items) - 1, -1, -1):
            remaining[pos] = remaining[pos + 1] + weights[items[pos]]
        min_factor = min(factors)
        served = [0.0] * n
        counts = [0] * n
        labels: dict[int, int] = {}
        best_cost = math.inf
        best_labels: dict[int, int] = {}
        initial_busy = max(loads[p] * factors[p] for p in range(n))

        def bound(pos: int, busy: float, energy: float) -> float:
            return (
                self.latency_weight * busy / banks
                + self.energy_weight * (energy + remaining[pos] * min_factor)
            )

        def dfs(pos: int, busy: float, energy: float) -> None:
            nonlocal best_cost, best_labels
            if pos == len(items):
                cost = self.latency_weight * busy / banks + self.energy_weight * energy
                if cost < best_cost - _EPS:
                    best_cost = cost
                    best_labels = dict(labels)
                return
            j = items[pos]
            weight = weights[j]
            seen_fresh = set()
            for p in range(n):
                if counts[p] == 0:
                    signature = (loads[p], factors[p])
                    if signature in seen_fresh:
                        continue
                    seen_fresh.add(signature)
                next_busy = max(
                    busy, (loads[p] + served[p] + weight) * factors[p]
                )
                next_energy = energy + weight * factors[p]
                if bound(pos + 1, next_busy, next_energy) >= best_cost - _EPS:
                    continue
                served[p] += weight
                counts[p] += 1
                labels[j] = p
                dfs(pos + 1, next_busy, next_energy)
                served[p] -= weight
                counts[p] -= 1
                del labels[j]

        dfs(0, initial_busy, 0.0)
        # Replay the optimal labeling to rebuild served, then place the
        # cost-free zero-weight items where the final state's f-weighted
        # completion is smallest (deterministic).
        for j, p in best_labels.items():
            served[p] += weights[j]
        return [
            best_labels[j]
            if weights[j] > 0
            else min(range(n), key=lambda p: ((loads[p] + served[p]) * factors[p], p))
            for j in range(len(weights))
        ]

    def _solve(self, weights, loads, factors, banks, solver):
        check_in("solver", solver, PLACEMENT_SOLVERS)
        if solver == "auto":
            weighted = sum(1 for weight in weights if weight > 0)
            solver = (
                "exact"
                if weighted <= self.exact_items and len(loads) <= self.exact_shards
                else "heuristic"
            )
        if solver == "exact":
            return self._exact(weights, loads, factors, banks)
        return self._heuristic(weights, loads, factors, banks)

    # -- entry points ----------------------------------------------------------
    def assign_windows(self, actives, shards: list[ShardState]) -> list[int]:
        """The dispatch-path planner: one shard index per window.

        Always the heuristic (labeling + local search at ``banks=1``) —
        a deterministic pure function of the window actives and the
        shard states, which is what lets
        :class:`~repro.crossbar.sharding.ShardedOperator` call it under
        the scheduler lock with threaded dispatch staying bitwise
        deterministic.  On homogeneous fleets it *is* greedy dispatch
        (see :meth:`_label`); use :meth:`optimize` for the offline
        exact/banked co-optimization.
        """
        weights = self._weights(actives, "actives")
        loads = [shard.load for shard in shards]
        factors = self._factors(shards)
        assignment = self._heuristic(weights, loads, factors, banks=1)
        return [shards[p].index for p in assignment]

    def optimize(
        self,
        window_actives,
        shards: list[ShardState],
        *,
        solver: str | None = None,
    ) -> PlacementPlan:
        """Co-optimize the window assignment and the ``banks=k`` configuration.

        For every bank count in :attr:`banks_candidates` the window
        assignment is re-solved (the latency/energy trade-off shifts
        with ``k``) and priced; the cheapest deployment wins (fewest
        banks breaking cost ties — silicon is not free).
        """
        solver = self.solver if solver is None else solver
        check_in("solver", solver, PLACEMENT_SOLVERS)
        weights = self._weights(window_actives, "window_actives")
        loads = [shard.load for shard in shards]
        factors = self._factors(shards)
        best = None
        for banks in self.banks_candidates:
            assignment = self._solve(weights, loads, factors, banks, solver)
            served = [0] * len(shards)
            for item, weight in zip(assignment, weights):
                served[item] += weight
            cost = self._cost(served, loads, factors, banks)
            if best is None or (cost, banks) < (best[0], best[1]):
                best = (cost, banks, assignment, served)
        cost, banks, assignment, served = best
        cycles, quanta = self._cost_terms(served, loads, factors, banks)
        area_m2, peak_power_w = self._silicon(served, banks)
        return PlacementPlan(
            window_to_shard=tuple(shards[p].index for p in assignment),
            banks=banks,
            cost=cost,
            latency_s=cycles * self.model.cycle_time_s,
            energy_j=quanta * self.model.mvm_energy_j,
            area_m2=area_m2,
            peak_power_w=peak_power_w,
            solver=solver,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PlacementOptimizer(solver={self.solver!r}, "
            f"banks_candidates={self.banks_candidates}, "
            f"error_weight={self.error_weight})"
        )
