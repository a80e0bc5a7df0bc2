"""End-to-end tests of ``python -m repro.results`` and report round-trips."""

import pytest

from repro.core.report import ReportDocument, ReportText
from repro.experiments import REGISTRY
from repro.results.cli import main
from repro.results.queries import DataProvider
from repro.results.store import ResultsStore, set_active_store


@pytest.fixture()
def populated(tmp_path):
    """A store holding one run of every report, plus the rendered files."""
    db = tmp_path / "results.db"
    out = tmp_path / "out"
    out.mkdir()
    store = ResultsStore(db)
    set_active_store(store)
    try:
        for name, (_, report_fn) in REGISTRY.items():
            result = report_fn()
            (out / f"{name}.txt").write_text(result.text + "\n")
    finally:
        set_active_store(None)
        store.close()
    return db, out


class TestRoundTrip:
    def test_every_report_regenerates_byte_identical(self, populated, capsys):
        db, out = populated
        exit_code = main(["--db", str(db), "rebuild", "--check", "-o", str(out)])
        assert exit_code == 0
        stdout = capsys.readouterr().out
        assert stdout.count("  ok ") == len(REGISTRY)
        assert "DIFF" not in stdout

    def test_rebuild_writes_missing_files(self, populated, tmp_path, capsys):
        db, _ = populated
        fresh = tmp_path / "fresh"
        assert main(["--db", str(db), "rebuild", "-o", str(fresh)]) == 0
        assert (fresh / "table1.txt").exists()
        assert main(["--db", str(db), "rebuild", "--check", "-o", str(fresh)]) == 0

    def test_check_flags_edited_files(self, populated, capsys):
        db, out = populated
        target = out / "table1.txt"
        target.write_text(target.read_text() + "tampered\n")
        assert main(["--db", str(db), "rebuild", "--check", "-o", str(out)]) == 1
        assert "DIFF" in capsys.readouterr().out


class TestCommands:
    def test_runs_lists_every_report(self, populated, capsys):
        db, _ = populated
        assert main(["--db", str(db), "runs"]) == 0
        stdout = capsys.readouterr().out
        for name in REGISTRY:
            assert name in stdout

    def test_trend_writes_report(self, populated, tmp_path, capsys):
        db, _ = populated
        target = tmp_path / "trend.txt"
        assert main(["--db", str(db), "trend", "-o", str(target)]) == 0
        assert "Cross-PR trend report" in target.read_text()

    def test_diff_clean_against_own_snapshot(self, populated, tmp_path, capsys):
        db, _ = populated
        snapshot = tmp_path / "baseline.db"
        assert main(["--db", str(db), "snapshot", "-o", str(snapshot)]) == 0
        assert main(["--db", str(db), "diff", "--baseline", str(snapshot)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_diff_missing_baseline_is_an_error(self, populated, tmp_path, capsys):
        db, _ = populated
        missing = tmp_path / "nope.db"
        assert main(["--db", str(db), "diff", "--baseline", str(missing)]) == 2

    def test_missing_db_is_an_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--db", str(tmp_path / "nope.db"), "runs"])
        assert excinfo.value.code == 2


def gated_store(path, speedup):
    """A store with one gated bench run and no report document."""
    with ResultsStore(path) as store:
        store.record_run(
            "bench",
            "bench",
            metrics={"speedup": speedup},
            gates={"speedup": ("higher", 0.1)},
        )
    return path


class TestSmallStores:
    """Command paths on hand-built stores, with no report run."""

    def test_diff_prints_regressions_and_fails(self, tmp_path, capsys):
        baseline = gated_store(tmp_path / "baseline.db", 10.0)
        current = gated_store(tmp_path / "current.db", 5.0)
        assert main(["--db", str(current), "diff", "--baseline", str(baseline)]) == 1
        stdout = capsys.readouterr().out
        assert "1 gated metric(s) regressed vs baseline:" in stdout
        assert "bench.speedup: 5 vs baseline 10 (higher is better" in stdout

    def test_rejected_snapshot_leaves_the_target_untouched(self, tmp_path, capsys):
        db = gated_store(tmp_path / "results.db", 10.0)
        keep = tmp_path / "keep.db"
        assert main(["--db", str(db), "snapshot", "-o", str(keep)]) == 0
        before = keep.read_bytes()
        argv = ["--db", str(db), "snapshot", "-o", str(keep), "no_such_run"]
        assert main(argv) == 2
        assert "unknown run name(s): no_such_run" in capsys.readouterr().err
        assert keep.read_bytes() == before

    def test_rebuild_without_documents_is_an_error(self, tmp_path, capsys):
        db = gated_store(tmp_path / "results.db", 10.0)
        assert main(["--db", str(db), "rebuild", "-o", str(tmp_path / "out")]) == 2
        assert "no persisted report documents" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_check_skips_reports_missing_on_disk(self, tmp_path, capsys):
        db = tmp_path / "results.db"
        with ResultsStore(db) as store:
            store.record_run(
                "demo", "report", document=ReportDocument([ReportText("x")])
            )
        out = tmp_path / "out"
        assert main(["--db", str(db), "rebuild", "--check", "-o", str(out)]) == 0
        assert "skip" in capsys.readouterr().out
        assert not out.exists()

    def test_snapshot_replaces_the_target_and_keeps_history_on_request(
        self, tmp_path
    ):
        db = gated_store(tmp_path / "results.db", 10.0)
        with ResultsStore(db) as store:
            store.record_run("bench", "bench", metrics={"speedup": 12.0})
        target = tmp_path / "snapshot.db"
        assert main(["--db", str(db), "snapshot", "--all", "-o", str(target)]) == 0
        assert len(DataProvider(target).runs("bench")) == 2
        assert main(["--db", str(db), "snapshot", "-o", str(target)]) == 0
        (latest,) = DataProvider(target).runs("bench")
        assert DataProvider(target).metrics(latest.id) == {"speedup": 12.0}

    def test_runs_on_an_empty_store(self, tmp_path, capsys):
        db = tmp_path / "empty.db"
        ResultsStore(db).close()
        assert main(["--db", str(db), "runs"]) == 0
        assert capsys.readouterr().out == "no recorded runs\n"
