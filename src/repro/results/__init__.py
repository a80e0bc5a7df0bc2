"""The unified experiment store: every bench and report, queryable.

Results used to be scattered across ``benchmarks/results/*.txt`` and
hand-named ``BENCH_*.json`` files with no run metadata.  This package
routes all of them through one SQLite-backed store:

``store``
    :class:`ResultsStore` — the ``runs`` / ``metrics`` / ``artifacts``
    schema (git SHA, timestamp, config JSON, host info per run), plus
    the process-wide *active store* that report functions auto-persist
    into.
``queries``
    :class:`DataProvider` — latest-run lookup, metric history across
    runs, cross-run trend frames.
``report_builder``
    Regenerates every persisted text report byte-for-byte from the
    database, builds the cross-PR trend report, and diffs gated
    metrics against a baseline snapshot for CI.

Layout follows the SimCash paper-builder pattern: report sections pull
from a ``DataProvider`` over persisted experiment runs instead of
re-running experiments or re-parsing text files.
"""

from repro.results.store import (
    ResultsStore,
    active_store,
    default_db_path,
    record_experiment,
    results_dir,
    set_active_store,
)
from repro.results.queries import DataProvider, Run
from repro.results.report_builder import (
    history_diff,
    rebuild_report,
    rebuild_reports,
    trend_report,
)

__all__ = [
    "DataProvider",
    "ResultsStore",
    "Run",
    "active_store",
    "default_db_path",
    "history_diff",
    "rebuild_report",
    "rebuild_reports",
    "record_experiment",
    "results_dir",
    "set_active_store",
    "trend_report",
]
