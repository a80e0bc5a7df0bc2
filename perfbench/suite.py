"""The benchmark's four workloads, driven only through public ``repro`` calls.

Every workload is a closed loop of *calls*; ``Workload.call`` generates
its inputs from ``(seed, call index)``, runs the measured operation
inside the runner's timing region, then checks the outputs outside it.
The first ``window_calls`` calls after set-up and warm-up form the
*reference window*: the simulated metrics (``sim_error``,
``energy_uj_per_item`` and, for ``serve_drift``, the modelled
latencies) are computed over it, and the traced run traces its first
``traced_calls`` calls, so every simulated number and every per-layer
count repeats bit for bit at a fixed seed whatever the host speed.
Windows are sized so the simulated metrics vary little across seeds.

``paper_figures``
    All nine ``repro.experiments.REGISTRY`` reports, what
    ``python -m repro run all`` regenerates, with the results store off
    and each report at its own fixed seed (the gates were recorded
    there, so ``--seed`` does not reach this workload).  One pass is one
    item.  About half a pass is ``LanguageCorpus.sample`` and a quarter
    HD n-gram counting; crossbar reads and programming are under 10 %.
``cs_fleet``
    Batched AMP recovery (Fig. 6 at fleet scale): one 512 x 1024
    Gaussian ``A`` programmed into a noisy 4-shard fleet
    (``batch_window=64``, ``stream="per_shard"``, threaded dispatch with
    at most ``nproc`` workers), fed B=256-signal batches; one recovered
    signal is one item.  The only workload on threaded dispatch and
    ``fused_sweep``; array reads dominate the solve and programming
    dominates set-up.  Columns retire by the residual-stagnation rule
    (AMP reaches the read-noise floor in ~10 sweeps), so the active set
    shrinks over the last sweeps.  Signals carry +-1 amplitudes: with
    Gaussian amplitudes the per-signal NMSE swings with signal energy,
    and the median over a few signals moved +-15 % from seed to seed.
``cs_single``
    The same recovery one signal at a time, as Fig. 6 prints it:
    ``amp_recover`` on one noisy ``CrossbarOperator`` through 1-D
    ``matvec``/``rmatvec``, with the same stopping rule.
    ``PcmDevice.read`` draws a full per-device noise matrix on every
    read; this is the B=1 side of the batching choice, where per-call
    overhead and not the GEMM sets the time.  The recovery NMSE moves
    ~7 % from seed to seed with the programmed operator itself, which
    no window length averages away.
``serve_drift``
    An open-loop Poisson trace in virtual time, replayed as fast as the
    host allows (so the generator is never late): single-vector
    requests from three tenants, ~70 % ``matvec`` and 30 % ``rmatvec``,
    into a ``FleetServer`` over a noisy 4-shard 256 x 256 fleet (window
    32) that ages on the server clock.  A ``MaintenanceWindow``
    calibrates every half virtual second of staleness and escalates to
    whole-shard reprograms once the fitted gain drifts past 3.5 %; each
    call replays one 2400-request episode on a fresh server (bounded
    state) over the same ageing fleet.  The offered rate (640 req/s)
    stays below the modelled knee, so backlog and latency do not grow
    with run length.  Drift recomputation after every clock advance,
    the clock fan-out and serving overhead dominate; GEMMs are small.
    The reprogram rate, and with it the energy per request, moves up to
    ~10 % from seed to seed: the time to escalation grows exponentially
    in the gain threshold over the devices' mean drift exponent.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.crossbar import CrossbarOperator, FleetMaintenance, ShardedOperator
from repro.energy import CrossbarCostModel
from repro.serving import FleetServer, MaintenanceWindow, VirtualClock
from repro.signal import amp_recover, amp_recover_batch
from repro.workloads import gaussian_measurement_matrix, sparse_signal, sparse_signal_batch

__all__ = ["Call", "Region", "WORKLOADS", "Workload"]

ROOT = Path(__file__).resolve().parents[1]
BASELINE_DB = ROOT / "benchmarks" / "baseline" / "results_baseline.db"


@dataclass
class Call:
    """One closed-loop call: its host time, items and simulated outputs."""

    seconds: float
    items: int
    failed: int = 0
    errors: list[float] = field(default_factory=list)
    energy_j: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    calibrations: int = 0
    reprograms: int = 0
    # Set by the runner: host time of its reference kernel around the call.
    reference_s: float = 0.0


class Region:
    """Times the measured part of a call and marks it for the tracer."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.seconds = 0.0
        self._start = 0.0

    def __enter__(self) -> "Region":
        if self.tracer is not None:
            self.tracer.phase = "timed"
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = time.perf_counter() - self._start
        if self.tracer is not None:
            self.tracer.phase = "input"


def _energy_j(model: CrossbarCostModel, before: dict, after: dict) -> float:
    """Modelled energy of the counter delta between two ``stats`` reads."""
    delta = {key: after[key] - before.get(key, 0) for key in after}
    return model.energy_from_stats(delta)["total_energy_j"]


class Workload:
    """Base class: set-up, warm-up and one closed-loop call.

    ``setup`` is timed as ``setup_s`` and repeated ``setup_repeats``
    times (the last state is kept); ``warm_up`` runs once, untimed.
    ``serves`` marks a workload whose items are served requests.
    """

    name = ""
    window_calls = 1
    traced_calls = 1
    setup_repeats = 3
    serves = False

    def __init__(self, seed: int, n_workers: int) -> None:
        self.seed = seed
        self.n_workers = n_workers

    def rng(self, *stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream])

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Untimed warm-up beyond what ``setup`` already does."""

    def call(self, index: int, region: Region) -> Call:
        raise NotImplementedError

    def close(self) -> None:
        """Release what ``setup`` built (threads, files)."""


class PaperFigures(Workload):
    name = "paper_figures"
    window_calls = 3
    setup_repeats = 15

    def setup(self) -> None:
        # Set-up is the package import the CLI pays; numpy stays loaded.
        for module in [name for name in sys.modules if name.split(".")[0] == "repro"]:
            del sys.modules[module]
        self.experiments = importlib.import_module("repro.experiments")
        importlib.import_module("repro.results.store").set_active_store(None)

    def warm_up(self) -> None:
        self.call(-1, Region())

    def call(self, index: int, region: Region) -> Call:
        with region:
            results = [report() for _, report in self.experiments.REGISTRY.values()]
        fig6 = next(result for result in results if result.name == "fig6")
        return Call(
            seconds=region.seconds,
            items=1,
            failed=int(bool(self.regressions(results))),
            errors=[fig6.metrics["crossbar_nmse"]],
            energy_j=fig6.metrics["batch_energy_per_signal_uj"] * 1e-6,
        )

    def regressions(self, results) -> list[str]:
        """The reports' gates, checked as ``python -m repro.results diff`` does."""
        store = importlib.import_module("repro.results.store")
        queries = importlib.import_module("repro.results.queries")
        reports = importlib.import_module("repro.results.report_builder")
        current = store.ResultsStore(":memory:")
        baseline = queries.DataProvider(BASELINE_DB)
        try:
            for result in results:
                current.record_run(
                    result.name, "report", config=result.config,
                    metrics=result.metrics, gates=result.gates, git_sha="",
                )
            names = [result.name for result in results]
            gates = sum(
                len(baseline.gates(baseline.latest_run(name).id)) for name in names
            )
            found = reports.history_diff(queries.DataProvider(current), baseline, names)
            problems = [regression.describe() for regression in found]
            if gates != 26:
                problems.append(f"expected 26 baseline gates, found {gates}")
            return problems
        finally:
            baseline.close()
            current.close()


class CsFleet(Workload):
    name = "cs_fleet"
    window_calls = traced_calls = 2
    n, m, k, batch, iterations = 1024, 512, 24, 256, 25
    # A column retires once its residual improves by < 5 % over 3 sweeps:
    # on this noisy fleet AMP reaches its noise floor in ~10 sweeps, and
    # the shrinking active set is what ``signal.amp.active_frac`` shows.
    stagnation_window = 3
    nmse_ceiling = 0.05

    def setup(self) -> None:
        rng = self.rng(0)
        self.matrix = gaussian_measurement_matrix(self.m, self.n, seed=rng)
        self.fleet = ShardedOperator.from_matrix(
            self.matrix, n_shards=4, batch_window=64, stream="per_shard",
            parallelism="threads", n_workers=self.n_workers, seed=rng,
        )
        self.model = CrossbarCostModel(rows=self.n, cols=self.m, devices_per_cell=2)
        # Warm-up: a short recovery starts the worker pool and fills the
        # read caches before anything is timed.
        signals = sparse_signal_batch(
            self.n, self.k, self.batch, amplitude="rademacher", seed=self.rng(1)
        )
        amp_recover_batch(self.matrix @ signals, self.fleet, self.n, iterations=3)

    def call(self, index: int, region: Region) -> Call:
        signals = sparse_signal_batch(
            self.n, self.k, self.batch, amplitude="rademacher", seed=self.rng(2, index)
        )
        measurements = self.matrix @ signals
        before = self.fleet.stats
        with region:
            result = amp_recover_batch(
                measurements, self.fleet, self.n, iterations=self.iterations,
                stagnation_window=self.stagnation_window,
            )
        nmse = np.sum((result.estimates - signals) ** 2, axis=0) / np.sum(
            signals**2, axis=0
        )
        return Call(
            seconds=region.seconds,
            items=self.batch,
            failed=int(np.sum(~(nmse < self.nmse_ceiling))),
            errors=nmse.tolist(),
            energy_j=_energy_j(self.model, before, self.fleet.stats),
        )

    def close(self) -> None:
        fleet = getattr(self, "fleet", None)
        if fleet is not None:
            fleet.shutdown()


class CsSingle(Workload):
    name = "cs_single"
    # The per-signal NMSE jitters at the read-noise floor, so the median
    # needs a couple of dozen signals to settle from seed to seed.
    window_calls, traced_calls = 24, 3
    setup_repeats = 7
    n, m, k, iterations = CsFleet.n, CsFleet.m, CsFleet.k, CsFleet.iterations
    stagnation_window = CsFleet.stagnation_window
    nmse_ceiling = CsFleet.nmse_ceiling

    def setup(self) -> None:
        rng = self.rng(0)
        self.matrix = gaussian_measurement_matrix(self.m, self.n, seed=rng)
        self.operator = CrossbarOperator(self.matrix, seed=rng)
        self.model = CrossbarCostModel(rows=self.n, cols=self.m, devices_per_cell=2)
        signal = sparse_signal(self.n, self.k, amplitude="rademacher", seed=self.rng(1))
        amp_recover(self.matrix @ signal, self.operator, self.n, iterations=2)

    def call(self, index: int, region: Region) -> Call:
        signal = sparse_signal(
            self.n, self.k, amplitude="rademacher", seed=self.rng(2, index)
        )
        measurement = self.matrix @ signal
        before = self.operator.stats
        with region:
            result = amp_recover(
                measurement, self.operator, self.n, iterations=self.iterations,
                stagnation_window=self.stagnation_window,
            )
        nmse = float(np.sum((result.estimate - signal) ** 2) / np.sum(signal**2))
        return Call(
            seconds=region.seconds,
            items=1,
            failed=int(not nmse < self.nmse_ceiling),
            errors=[nmse],
            energy_j=_energy_j(self.model, before, self.operator.stats),
        )


class ServeDrift(Workload):
    name = "serve_drift"
    # Reprograms are what set p99 and the energy per request, and an
    # episode holds only 4-7 of them: 20 episodes keep both within a few
    # per cent from seed to seed (6 episodes let p99 move 10 %).
    window_calls, traced_calls = 20, 3
    setup_repeats = 9
    serves = True
    n, shards, window = 256, 4, 32
    window_service_s = 0.025  # modelled capacity: 32 / 0.025 = 1280 req/s
    coalesce_budget_s = 0.1
    rate_rps = 640.0
    episode = 2400
    warm_up_requests = 480
    matvec_share = 0.7
    tenants = ("alice", "bob", "carol")
    slo_s = 0.5
    max_rel_error = 0.25
    recalibrate_after_s = 0.5
    gain_error_threshold = 0.035
    max_defer_s = 0.05
    pulse_service_s = 4e-8

    def setup(self) -> None:
        rng = self.rng(0)
        self.matrix = gaussian_measurement_matrix(self.n, self.n, seed=rng)
        self.fleet = ShardedOperator.from_matrix(
            self.matrix, n_shards=self.shards, batch_window=self.window,
            stream="per_shard", seed=rng,
        )
        self.policy = FleetMaintenance(
            self.fleet,
            recalibrate_after_s=self.recalibrate_after_s,
            gain_error_threshold=self.gain_error_threshold,
            seed=rng,
            attach=False,
        )
        self.model = CrossbarCostModel(rows=self.n, cols=self.n, devices_per_cell=2)
        self.replay(self.events(self.rng(1), self.warm_up_requests))

    def events(self, rng: np.random.Generator, count: int) -> list[tuple]:
        """A Poisson arrival trace in virtual time over the tenant mix."""
        arrivals = np.cumsum(rng.exponential(1.0 / self.rate_rps, count))
        tenants = rng.integers(len(self.tenants), size=count)
        forward = rng.random(count) < self.matvec_share
        vectors = rng.standard_normal((count, self.n))
        return [
            (float(at), self.tenants[tenant], "matvec" if fwd else "rmatvec", vector)
            for at, tenant, fwd, vector in zip(arrivals, tenants, forward, vectors)
        ]

    def replay(self, events, region: Region | None = None):
        window = MaintenanceWindow(
            self.fleet, self.policy, max_defer_s=self.max_defer_s,
            pulse_service_s=self.pulse_service_s,
        )
        server = FleetServer(
            self.fleet, VirtualClock(), coalesce_budget_s=self.coalesce_budget_s,
            window_service_s=self.window_service_s, slo_s=self.slo_s,
            maintenance=window,
        )
        with region if region is not None else Region():
            results = server.replay(events)
        return results, window

    def call(self, index: int, region: Region) -> Call:
        events = self.events(self.rng(2, index), self.episode)
        before = self.fleet.stats
        results, window = self.replay(events, region)
        energy = _energy_j(self.model, before, self.fleet.stats)
        # A request passes when it was served within the SLO and its value
        # is within max_rel_error of the exact product; shed or rejected
        # requests count as missing the SLO.
        errors, passed = [], 0
        for kind, matrix in (("matvec", self.matrix), ("rmatvec", self.matrix.T)):
            served = [
                row for row in results
                if row.request.kind == kind and row.status == "served"
            ]
            if not served:
                continue
            exact = matrix @ np.array([row.request.vector for row in served]).T
            values = np.array([row.value for row in served]).T
            relative = np.linalg.norm(values - exact, axis=0) / np.linalg.norm(exact, axis=0)
            errors.extend(relative.tolist())
            passed += int(sum(
                row.slo_ok and error <= self.max_rel_error
                for row, error in zip(served, relative)
            ))
        actions = [action.action for slot in window.slots for action in slot.actions]
        return Call(
            seconds=region.seconds,
            items=len(events),
            failed=len(events) - passed,
            errors=errors,
            energy_j=energy,
            latencies_s=[
                row.latency_s if row.status == "served" else np.inf for row in results
            ] + [np.inf] * (len(events) - len(results)),
            calibrations=actions.count("calibrate"),
            reprograms=actions.count("reprogram"),
        )


WORKLOADS = {
    workload.name: workload for workload in (PaperFigures, CsFleet, CsSingle, ServeDrift)
}
