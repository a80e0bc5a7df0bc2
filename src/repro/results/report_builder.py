"""Regenerate reports and cross-PR trends straight from the store.

Three consumers:

* :func:`rebuild_report` / :func:`rebuild_reports` — re-render a
  persisted run's block document.  Rendering is a pure function of the
  stored structure, so the regenerated text is byte-identical to what
  the bench or report wrote directly (CI enforces this with
  ``python -m repro.results rebuild --check``).
* :func:`trend_report` — the cross-PR trend document: speedups, energy
  anchors, NMSE envelopes and fleet scaling efficiency as metric
  histories across every recorded run.
* :func:`history_diff` — the CI gate: compare the latest gated metrics
  against a committed baseline snapshot and report regressions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.report import ReportDocument, ReportSeries, ReportTable, ReportText
from repro.results.queries import DataProvider

__all__ = [
    "Regression",
    "TREND_SECTIONS",
    "history_diff",
    "rebuild_report",
    "rebuild_reports",
    "trend_report",
]


def rebuild_report(provider: DataProvider, name: str) -> str:
    """Render the latest persisted document of run ``name`` from the DB."""
    document = provider.latest_document(name)
    if document is None:
        raise KeyError(f"no persisted report document for run {name!r}")
    return document.render()


def rebuild_reports(
    provider: DataProvider, names: list[str] | None = None
) -> dict[str, str]:
    """Render every (or the named) persisted report, name -> text."""
    if names is None:
        names = [
            name
            for name in provider.run_names()
            if provider.latest_document(name) is not None
        ]
    return {name: rebuild_report(provider, name) for name in names}


# -- cross-PR trend report ----------------------------------------------

#: (section title, [(run name, metric, row label)]) driving the trend
#: report.  Sections tolerate missing runs/metrics so the report renders
#: from any partially populated store.
TREND_SECTIONS = [
    (
        "Batched-MVM / fleet speedups (x, higher is better):",
        [
            ("batched_mvm", "speedup", "batch-64 MVM vs looped"),
            ("batch_amp", "speedup", "batch-64 AMP vs looped"),
            ("sharded_fleet", "speedup", "sharded dispatch vs windows"),
            ("fleet_throughput", "gate_speedup", "threads vs serial @ 8 shards"),
        ],
    ),
    (
        "Energy anchors (stable by construction):",
        [
            ("batch_energy", "anchor_serial_b1_nj", "serial B=1 MVM [nJ] (~222)"),
            ("table1", "crossbar_energy_nj", "crossbar MVM [nJ] (~222)"),
            ("table1", "power_advantage", "power advantage [x] (~120)"),
            ("fig6", "counter_energy_uj", "AMP recovery, counter-driven [uJ]"),
            ("fig6", "batch_energy_per_signal_uj", "fleet recovery / signal [uJ]"),
        ],
    ),
    (
        "NMSE envelopes (lower is better):",
        [
            ("fig6", "crossbar_nmse", "single recovery, crossbar"),
            ("fig6", "batch_max_nmse", "fleet recovery, max column"),
            ("fig6", "drift_maintained_nmse", "maintained fleet @ 1e6 s"),
            ("drift_fleet", "maintained_nmse", "bench: maintained @ 1e6 s"),
            ("drift_fleet", "stale_nmse", "bench: stale @ 1e6 s"),
        ],
    ),
    (
        "Fleet scaling efficiency:",
        [
            ("fleet_throughput", "gate_scaling_efficiency", "threads eff @ 8 shards"),
            ("fleet_throughput", "gate_speedup", "threads speedup @ 8 shards"),
            ("drift_fleet", "maintenance_fraction", "maintenance share of bill"),
        ],
    ),
    (
        "Fleet lifetime (predictive maintenance + faults):",
        [
            ("lifetime", "probe_saving", "predictive probe saving [x]"),
            ("lifetime", "predictive_nmse_max", "predictive NMSE envelope"),
            ("lifetime", "wallclock_nmse_max", "wall-clock NMSE envelope"),
            ("lifetime", "faulted_availability", "availability under faults"),
            ("lifetime", "faulted_retirements", "shards retired"),
            ("lifetime", "maintenance_energy_uj", "lifetime maintenance [uJ]"),
        ],
    ),
    (
        "Fleet serving (coalesced multi-tenant requests):",
        [
            ("serving", "coalesced_speedup", "coalesced vs per-request [x]"),
            ("serving", "per_request_rps", "per-request dispatch [req/s]"),
            ("serving", "coalesced_rps", "coalesced serving [req/s]"),
            ("serving", "p99_below_knee_s", "p99 below the knee [s]"),
            ("serving", "saturated_rps", "saturated throughput [req/s]"),
        ],
    ),
]


def _format_value(value: float) -> float:
    return float(value)


def trend_report(
    provider: DataProvider,
    sections=None,
    history_limit: int = 12,
) -> ReportDocument:
    """Build the cross-PR trend document from metric histories.

    Each section is one table (runs / first / latest / change per
    metric) followed by the most recent ``history_limit`` values of any
    metric with more than one recorded run, oldest first — the trend
    line a reviewer reads top to bottom.
    """
    if sections is None:
        sections = TREND_SECTIONS
    blocks: list = [ReportText("Cross-PR trend report (from the results DB)")]
    covered = 0
    for title, entries in sections:
        rows = []
        series = []
        for run_name, metric, label in entries:
            history = provider.metric_history(run_name, metric)
            if not history:
                continue
            covered += 1
            first, latest = history[0].value, history[-1].value
            if first == 0.0:
                change = "n/a" if latest != first else "0%"
            else:
                change = f"{(latest - first) / abs(first) * 100:+.1f}%"
            rows.append(
                (
                    label,
                    f"{run_name}.{metric}",
                    len(history),
                    _format_value(first),
                    _format_value(latest),
                    change,
                )
            )
            if len(history) > 1:
                series.append(
                    ReportSeries(
                        f"  {run_name}.{metric}",
                        [p.value for p in history[-history_limit:]],
                        precision=3,
                    )
                )
        if not rows:
            continue
        blocks.append(ReportText(""))
        blocks.append(
            ReportTable(
                ("trend", "metric", "runs", "first", "latest", "change"),
                rows,
                precision=3,
                title=title,
            )
        )
        blocks.extend(series)
    if covered == 0:
        blocks.append(ReportText(""))
        blocks.append(
            ReportText("(no recorded runs yet — run the benches or reports first)")
        )
    return ReportDocument(blocks)


# -- CI history diff ----------------------------------------------------

@dataclass(frozen=True)
class Regression:
    """One gated metric moving the wrong way versus the baseline."""

    run: str
    metric: str
    direction: str
    baseline: float | None
    current: float | None
    rel_tol: float

    @property
    def missing(self) -> bool:
        return self.current is None

    def describe(self) -> str:
        if self.missing:
            return (
                f"{self.run}.{self.metric}: gated in the baseline but absent "
                "from the current DB"
            )
        return (
            f"{self.run}.{self.metric}: {self.current:.6g} vs baseline "
            f"{self.baseline:.6g} ({self.direction} is better, "
            f"rel_tol {self.rel_tol:g})"
        )


def _violates(direction: str, baseline: float, current: float, rel_tol: float) -> bool:
    scale = abs(baseline)
    if direction == "higher":
        return current < baseline - rel_tol * scale
    if direction == "lower":
        return current > baseline + rel_tol * scale
    # "equal": any drift beyond the tolerance band regresses; a zero
    # baseline makes rel_tol act as an absolute band.
    band = rel_tol * scale if scale > 0.0 else rel_tol
    return abs(current - baseline) > band


def history_diff(
    current: DataProvider,
    baseline: DataProvider,
    names: list[str] | None = None,
) -> list[Regression]:
    """Compare latest gated metrics against the baseline snapshot.

    For every run name gated in the baseline (or in ``names``), the
    current store must hold a matching run whose gated metrics did not
    move the wrong way beyond their tolerance.  A gated run missing
    from the current store is itself a regression — a silently
    un-recorded bench must fail the gate, not pass it.
    """
    if names is None:
        names = baseline.run_names()
    regressions = []
    for name in names:
        base_run = baseline.latest_run(name)
        if base_run is None:
            continue
        gates = baseline.gates(base_run.id)
        if not gates:
            continue
        current_run = current.latest_run(name)
        current_metrics = (
            {} if current_run is None else current.metrics(current_run.id)
        )
        for gate in gates:
            value = current_metrics.get(gate.metric)
            rel_tol = gate.rel_tol if gate.rel_tol is not None else 0.0
            if value is None:
                regressions.append(
                    Regression(name, gate.metric, gate.direction, gate.value,
                               None, rel_tol)
                )
            elif _violates(gate.direction, gate.value, value, rel_tol):
                regressions.append(
                    Regression(name, gate.metric, gate.direction, gate.value,
                               value, rel_tol)
                )
    return regressions
