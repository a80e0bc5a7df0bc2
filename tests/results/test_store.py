"""Tests of the SQLite experiment store: schema, recording, round-trips."""

import sqlite3
import subprocess

import pytest

from repro.core.report import (
    ReportDocument,
    ReportSeries,
    ReportTable,
    ReportText,
)
from repro.experiments import table1_report
from repro.results.queries import DataProvider
from repro.results import store as store_module
from repro.results.store import (
    SCHEMA_VERSION,
    ResultsStore,
    active_store,
    default_db_path,
    record_experiment,
    results_dir,
    scalar_metrics,
    set_active_store,
)


@pytest.fixture()
def store(tmp_path):
    with ResultsStore(tmp_path / "results.db") as s:
        yield s


def sample_document():
    return ReportDocument(
        [
            ReportTable(("a", "b"), ((1, 2.5), (3, 0.0)), title="T:"),
            ReportText(""),
            ReportSeries("series", [1.0, 2.0, 3.0], precision=2),
        ]
    )


class TestSchema:
    def test_empty_db_migrates_to_current_version(self, store):
        assert store.schema_version == SCHEMA_VERSION
        tables = {
            row[0]
            for row in store.connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        assert {"runs", "metrics", "artifacts"} <= tables

    def test_reopening_is_idempotent(self, tmp_path):
        path = tmp_path / "results.db"
        ResultsStore(path).close()
        with ResultsStore(path) as reopened:
            assert reopened.schema_version == SCHEMA_VERSION

    def test_newer_schema_version_is_rejected(self, tmp_path):
        path = tmp_path / "results.db"
        ResultsStore(path).close()
        conn = sqlite3.connect(path)
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
        conn.close()
        with pytest.raises(RuntimeError, match="newer"):
            ResultsStore(path)

    def test_unversioned_tables_are_rejected(self, tmp_path):
        path = tmp_path / "results.db"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE runs (id INTEGER PRIMARY KEY)")
        conn.commit()
        conn.close()
        with pytest.raises(RuntimeError, match="no schema version"):
            ResultsStore(path)


class TestRecordRun:
    def test_round_trip_run_row(self, store):
        run_id = store.record_run(
            "demo",
            "bench",
            config={"n": 4, "flag": True},
            metrics={"speedup": 2.0, "nmse": 0.01},
            gates={"speedup": ("higher", 0.5)},
            document=sample_document(),
            artifacts={"gate": {"speedup": 2.0}, "note": "plain text"},
        )
        provider = DataProvider(store)
        run = provider.latest_run("demo")
        assert run.id == run_id
        assert run.kind == "bench"
        assert run.config == {"n": 4, "flag": True}
        assert run.host["python"]
        assert provider.metrics(run_id) == {"speedup": 2.0, "nmse": 0.01}
        gates = provider.gates(run_id)
        assert [(g.metric, g.direction, g.rel_tol) for g in gates] == [
            ("speedup", "higher", 0.5)
        ]
        assert provider.artifact(run_id, "gate") == {"speedup": 2.0}
        assert provider.artifact(run_id, "note") == "plain text"

    def test_document_round_trip_renders_byte_identical(self, store):
        document = sample_document()
        run_id = store.record_run("demo", "report", document=document)
        restored = DataProvider(store).document(run_id)
        assert restored.render() == document.render()
        assert restored.to_payload() == document.to_payload()

    def test_gate_must_reference_a_metric(self, store):
        with pytest.raises(ValueError, match="missing from metrics"):
            store.record_run(
                "demo", "bench", metrics={}, gates={"ghost": ("higher", 0.1)}
            )

    def test_gate_direction_is_validated(self, store):
        with pytest.raises(ValueError, match="direction"):
            store.record_run(
                "demo",
                "bench",
                metrics={"x": 1.0},
                gates={"x": ("sideways", 0.1)},
            )

    def test_non_numeric_metric_is_rejected(self, store):
        with pytest.raises(TypeError, match="not numeric"):
            store.record_run("demo", "bench", metrics={"x": "fast"})

    def test_snapshot_copies_every_run(self, store, tmp_path):
        store.record_run("demo", "bench", metrics={"x": 1.0})
        snapshot = store.snapshot_to(tmp_path / "copy.db")
        provider = DataProvider(snapshot)
        assert provider.run_names() == ["demo"]
        snapshot.close()

    def test_snapshot_replaces_an_existing_file(self, store, tmp_path):
        store.record_run("first", "bench", metrics={"x": 1.0})
        store.snapshot_to(tmp_path / "copy.db").close()
        store.record_run("second", "bench", metrics={"x": 2.0})
        snapshot = store.snapshot_to(tmp_path / "copy.db")
        assert DataProvider(snapshot).run_names() == ["first", "second"]
        snapshot.close()

    def test_sequence_config_values_round_trip_as_lists(self, store):
        store.record_run("demo", "bench", config={"shape": (4, 8), "seeds": [1]})
        run = DataProvider(store).latest_run("demo")
        assert run.config == {"shape": [4, 8], "seeds": [1]}

    def test_git_sha_comes_from_the_environment(self, store, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_SHA", "0123abc")
        store.record_run("demo", "bench")
        assert DataProvider(store).latest_run("demo").git_sha == "0123abc"

    def test_git_sha_is_null_without_git(self, store, monkeypatch):
        monkeypatch.delenv("REPRO_GIT_SHA", raising=False)
        monkeypatch.delenv("GITHUB_SHA", raising=False)

        def no_git(*args, **kwargs):
            raise OSError("git not installed")

        monkeypatch.setattr(subprocess, "run", no_git)
        store.record_run("demo", "bench")
        assert DataProvider(store).latest_run("demo").git_sha is None


class TestScalarMetrics:
    def test_extracts_top_level_numerics_only(self):
        payload = {
            "speedup": 2.0,
            "count": 3,
            "ok": True,
            "label": "x",
            "nested": {"y": 1.0},
            "series": [1, 2],
        }
        assert scalar_metrics(payload) == {
            "speedup": 2.0,
            "count": 3.0,
            "ok": 1.0,
        }


class TestLocations:
    def test_results_dir_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_RESULTS_DB", raising=False)
        assert results_dir() == tmp_path
        assert default_db_path() == tmp_path / "results.db"

    def test_results_dir_defaults_to_the_bench_results(self, monkeypatch):
        monkeypatch.delenv("REPRO_RESULTS_DIR", raising=False)
        assert results_dir().parts[-2:] == ("benchmarks", "results")


class TestActiveStore:
    def test_record_experiment_noops_without_store(self):
        set_active_store(None)
        try:
            assert record_experiment(table1_report()) is None
        finally:
            set_active_store(None)

    def test_reports_auto_persist_into_active_store(self, store):
        set_active_store(store)
        try:
            result = table1_report()
        finally:
            set_active_store(None)
        provider = DataProvider(store)
        run = provider.latest_run("table1")
        assert run.kind == "report"
        assert provider.metrics(run.id)["power_advantage"] == pytest.approx(
            result.metrics["power_advantage"]
        )
        assert provider.latest_document("table1").render() == result.text

    def test_no_store_without_the_env_var(self, monkeypatch):
        monkeypatch.delenv("REPRO_RESULTS_DB", raising=False)
        monkeypatch.setattr(store_module, "_active", store_module._UNSET)
        assert active_store() is None

    def test_set_active_store_opens_a_path(self, tmp_path):
        db = tmp_path / "active.db"
        active = set_active_store(db)
        try:
            assert isinstance(active, ResultsStore)
            assert active.path == db
            assert active_store() is active
        finally:
            active.close()
            set_active_store(None)

    def test_env_var_opens_store_lazily(self, tmp_path, monkeypatch):
        db = tmp_path / "env.db"
        monkeypatch.setenv("REPRO_RESULTS_DB", str(db))
        set_active_store(None)
        from repro.results import store as store_module

        monkeypatch.setattr(store_module, "_active", store_module._UNSET)
        active = store_module.active_store()
        try:
            assert active is not None
            assert active.path == db
        finally:
            active.close()
            set_active_store(None)
