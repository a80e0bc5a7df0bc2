"""The query layer over the experiment store: a ``DataProvider``.

Report builders and the CI history-diff gate never touch SQL — they
ask a :class:`DataProvider` for latest runs, metric histories ordered
across runs, and cross-run trend frames.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.core.report import ReportDocument
from repro.results.store import ResultsStore

__all__ = ["DataProvider", "Gate", "MetricPoint", "Run"]


@dataclass(frozen=True)
class Run:
    """One recorded experiment run's metadata."""

    id: int
    name: str
    kind: str
    created_at: str
    git_sha: str | None
    config: dict
    host: dict


@dataclass(frozen=True)
class MetricPoint:
    """One metric value from one run, in history order."""

    run_id: int
    created_at: str
    git_sha: str | None
    value: float


@dataclass(frozen=True)
class Gate:
    """A gated metric: its value and the regression rule attached to it."""

    metric: str
    value: float
    direction: str
    rel_tol: float


def _as_run(row) -> Run:
    return Run(
        id=row["id"],
        name=row["name"],
        kind=row["kind"],
        created_at=row["created_at"],
        git_sha=row["git_sha"],
        config=json.loads(row["config"]),
        host=json.loads(row["host"]),
    )


class DataProvider:
    """Read-side API over one results store (or a path to one)."""

    #: History ordering: creation time, then insertion order as the
    #: tie-break so same-timestamp runs stay deterministic.
    _ORDER = "ORDER BY runs.created_at, runs.id"

    def __init__(self, store: ResultsStore | str | Path) -> None:
        if not isinstance(store, ResultsStore):
            store = ResultsStore(store)
        self.store = store
        self._conn = store.connection

    # -- runs ----------------------------------------------------------

    def run_names(self, kind: str | None = None) -> list[str]:
        sql = "SELECT DISTINCT name FROM runs"
        args: tuple = ()
        if kind is not None:
            sql += " WHERE kind = ?"
            args = (kind,)
        rows = self._conn.execute(sql + " ORDER BY name", args)
        return [row["name"] for row in rows]

    def runs(self, name: str) -> list[Run]:
        rows = self._conn.execute(
            f"SELECT * FROM runs WHERE name = ? {self._ORDER}", (name,)
        )
        return [_as_run(row) for row in rows]

    def latest_run(self, name: str) -> Run | None:
        row = self._conn.execute(
            "SELECT * FROM runs WHERE name = ?"
            " ORDER BY created_at DESC, id DESC LIMIT 1",
            (name,),
        ).fetchone()
        return None if row is None else _as_run(row)

    # -- metrics -------------------------------------------------------

    def metrics(self, run_id: int) -> dict[str, float]:
        rows = self._conn.execute(
            "SELECT name, value FROM metrics WHERE run_id = ? ORDER BY name",
            (run_id,),
        )
        return {row["name"]: row["value"] for row in rows}

    def gates(self, run_id: int) -> list[Gate]:
        rows = self._conn.execute(
            "SELECT name, value, direction, rel_tol FROM metrics"
            " WHERE run_id = ? AND direction IS NOT NULL ORDER BY name",
            (run_id,),
        )
        return [
            Gate(row["name"], row["value"], row["direction"], row["rel_tol"])
            for row in rows
        ]

    def metric_history(self, name: str, metric: str) -> list[MetricPoint]:
        """One metric's value across every run of ``name``, oldest first."""
        rows = self._conn.execute(
            "SELECT runs.id AS id, runs.created_at AS created_at,"
            " runs.git_sha AS git_sha, metrics.value AS value"
            " FROM runs JOIN metrics ON metrics.run_id = runs.id"
            f" WHERE runs.name = ? AND metrics.name = ? {self._ORDER}",
            (name, metric),
        )
        return [
            MetricPoint(row["id"], row["created_at"], row["git_sha"], row["value"])
            for row in rows
        ]

    def trend_frame(
        self, name: str, metrics: list[str] | None = None
    ) -> list[dict]:
        """One row per run of ``name`` (oldest first) with metric columns.

        ``metrics`` restricts the columns; by default every metric the
        runs recorded appears.  Missing values are ``None`` so frames
        stay rectangular across schema growth.
        """
        frame = []
        for run in self.runs(name):
            values = self.metrics(run.id)
            names = metrics if metrics is not None else sorted(values)
            row = {
                "run_id": run.id,
                "created_at": run.created_at,
                "git_sha": run.git_sha,
            }
            for metric in names:
                row[metric] = values.get(metric)
            frame.append(row)
        return frame

    # -- artifacts -----------------------------------------------------

    def artifact(self, run_id: int, name: str) -> object | None:
        """The decoded artifact payload, typed by its stored kind."""
        row = self._conn.execute(
            "SELECT kind, payload FROM artifacts WHERE run_id = ? AND name = ?",
            (run_id, name),
        ).fetchone()
        if row is None:
            return None
        if row["kind"] == "document":
            return ReportDocument.from_payload(json.loads(row["payload"]))
        if row["kind"] == "json":
            return json.loads(row["payload"])
        return row["payload"]

    def document(self, run_id: int, name: str = "report") -> ReportDocument | None:
        artifact = self.artifact(run_id, name)
        if artifact is not None and not isinstance(artifact, ReportDocument):
            raise TypeError(f"artifact {name!r} of run {run_id} is not a document")
        return artifact

    def latest_document(self, name: str) -> ReportDocument | None:
        run = self.latest_run(name)
        return None if run is None else self.document(run.id)

    def close(self) -> None:
        self.store.close()
