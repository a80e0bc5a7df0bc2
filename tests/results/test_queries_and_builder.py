"""Tests of the query layer, trend report and the CI history diff."""

import pytest

from repro.core.report import ReportDocument, ReportText
from repro.results.queries import DataProvider
from repro.results.report_builder import (
    Regression,
    history_diff,
    rebuild_report,
    rebuild_reports,
    trend_report,
)
from repro.results.store import ResultsStore


@pytest.fixture()
def store(tmp_path):
    with ResultsStore(tmp_path / "results.db") as s:
        yield s


def record(store, name, value, *, stamp, gates=None, metric="speedup"):
    return store.record_run(
        name,
        "bench",
        metrics={metric: value},
        gates=gates,
        document=ReportDocument([ReportText(f"{name} {metric}={value}")]),
        created_at=stamp,
        git_sha=f"sha-{stamp}",
    )


class TestHistory:
    def test_metric_history_orders_across_runs(self, store):
        # inserted out of creation order: history must sort by timestamp
        record(store, "demo", 2.0, stamp="2026-02-01T00:00:00+00:00")
        record(store, "demo", 1.0, stamp="2026-01-01T00:00:00+00:00")
        record(store, "demo", 3.0, stamp="2026-03-01T00:00:00+00:00")
        provider = DataProvider(store)
        history = provider.metric_history("demo", "speedup")
        assert [point.value for point in history] == [1.0, 2.0, 3.0]
        assert provider.latest_run("demo").git_sha == (
            "sha-2026-03-01T00:00:00+00:00"
        )

    def test_same_timestamp_ties_break_by_insertion(self, store):
        stamp = "2026-01-01T00:00:00+00:00"
        record(store, "demo", 1.0, stamp=stamp)
        last = record(store, "demo", 2.0, stamp=stamp)
        provider = DataProvider(store)
        assert [p.value for p in provider.metric_history("demo", "speedup")] == [
            1.0,
            2.0,
        ]
        assert provider.latest_run("demo").id == last

    def test_trend_frame_is_rectangular(self, store):
        store.record_run(
            "demo", "bench", metrics={"a": 1.0},
            created_at="2026-01-01T00:00:00+00:00",
        )
        store.record_run(
            "demo", "bench", metrics={"a": 2.0, "b": 5.0},
            created_at="2026-02-01T00:00:00+00:00",
        )
        frame = DataProvider(store).trend_frame("demo", ["a", "b"])
        assert [row["a"] for row in frame] == [1.0, 2.0]
        assert [row["b"] for row in frame] == [None, 5.0]


class TestQueries:
    def test_run_names_filter_by_kind(self, store):
        record(store, "bench_run", 1.0, stamp="2026-01-01T00:00:00+00:00")
        store.record_run("report_run", "report", metrics={"x": 1.0})
        provider = DataProvider(store)
        assert provider.run_names() == ["bench_run", "report_run"]
        assert provider.run_names(kind="report") == ["report_run"]

    def test_document_rejects_a_non_document_artifact(self, store):
        run_id = store.record_run(
            "demo", "bench", metrics={"x": 1.0}, artifacts={"report": {"x": 1}}
        )
        with pytest.raises(TypeError, match="not a document"):
            DataProvider(store).document(run_id)


class TestRebuild:
    def test_rebuild_renders_latest_document(self, store):
        record(store, "demo", 1.0, stamp="2026-01-01T00:00:00+00:00")
        record(store, "demo", 2.0, stamp="2026-02-01T00:00:00+00:00")
        provider = DataProvider(store)
        assert rebuild_report(provider, "demo") == "demo speedup=2.0"
        assert rebuild_reports(provider) == {"demo": "demo speedup=2.0"}

    def test_rebuild_unknown_name_raises(self, store):
        with pytest.raises(KeyError):
            rebuild_report(DataProvider(store), "ghost")

    def test_rebuild_skips_runs_without_documents(self, store):
        store.record_run("no_doc", "bench", metrics={"x": 1.0})
        assert rebuild_reports(DataProvider(store)) == {}


class TestTrendReport:
    def test_empty_store_renders_placeholder(self, store):
        text = trend_report(DataProvider(store)).render()
        assert "no recorded runs yet" in text

    def test_histories_appear_with_change_column(self, store):
        record(store, "batched_mvm", 2.0, stamp="2026-01-01T00:00:00+00:00")
        record(store, "batched_mvm", 3.0, stamp="2026-02-01T00:00:00+00:00")
        text = trend_report(DataProvider(store)).render()
        assert "batched_mvm.speedup" in text
        assert "+50.0%" in text
        # the history line lists both recorded values oldest-first
        assert "[2, 3]" in text

    def test_change_from_a_zero_first_value(self, store):
        for name, values in (("grew", (0.0, 0.5)), ("flat", (0.0, 0.0))):
            for index, value in enumerate(values):
                record(
                    store, name, value,
                    stamp=f"2026-0{index + 1}-01T00:00:00+00:00",
                )
        sections = [
            ("Zero baselines", [("grew", "speedup", "grew"),
                                ("flat", "speedup", "flat")]),
        ]
        text = trend_report(DataProvider(store), sections).render()
        assert "grew  | grew.speedup | 2    | 0     | 0.5    | n/a" in text
        assert "flat  | flat.speedup | 2    | 0     | 0      | 0%" in text

    def test_sections_without_data_are_dropped(self, store):
        record(store, "batched_mvm", 2.0, stamp="2026-01-01T00:00:00+00:00")
        text = trend_report(DataProvider(store)).render()
        assert "speedups" in text
        assert "NMSE envelopes" not in text


class TestHistoryDiff:
    def stores(self, tmp_path, base_value, current_value, direction, rel_tol):
        baseline = ResultsStore(tmp_path / "baseline.db")
        record(
            baseline,
            "demo",
            base_value,
            stamp="2026-01-01T00:00:00+00:00",
            gates={"speedup": (direction, rel_tol)},
        )
        current = ResultsStore(tmp_path / "current.db")
        if current_value is not None:
            record(
                current, "demo", current_value,
                stamp="2026-02-01T00:00:00+00:00",
            )
        return DataProvider(current), DataProvider(baseline)

    def test_higher_direction_flags_drops_beyond_tolerance(self, tmp_path):
        current, baseline = self.stores(tmp_path, 2.0, 1.5, "higher", 0.1)
        regressions = history_diff(current, baseline)
        assert [r.metric for r in regressions] == ["speedup"]
        assert "higher is better" in regressions[0].describe()

    def test_higher_direction_tolerates_small_drops(self, tmp_path):
        current, baseline = self.stores(tmp_path, 2.0, 1.9, "higher", 0.1)
        assert history_diff(current, baseline) == []

    def test_lower_direction_flags_increases(self, tmp_path):
        current, baseline = self.stores(tmp_path, 0.01, 0.05, "lower", 1.0)
        assert len(history_diff(current, baseline)) == 1

    def test_equal_direction_flags_any_drift(self, tmp_path):
        current, baseline = self.stores(tmp_path, 222.0, 222.1, "equal", 1e-6)
        assert len(history_diff(current, baseline)) == 1

    def test_equal_direction_zero_baseline_uses_absolute_band(self, tmp_path):
        current, baseline = self.stores(tmp_path, 0.0, 0.2, "equal", 0.5)
        assert history_diff(current, baseline) == []
        current, baseline = self.stores(tmp_path / "b", 0.0, 0.9, "equal", 0.5)
        assert len(history_diff(current, baseline)) == 1

    def test_missing_gated_run_is_a_regression(self, tmp_path):
        current, baseline = self.stores(tmp_path, 2.0, None, "higher", 0.1)
        regressions = history_diff(current, baseline)
        assert len(regressions) == 1
        assert regressions[0].missing
        assert "absent" in regressions[0].describe()

    def test_names_outside_the_baseline_and_ungated_runs_pass(self, tmp_path):
        current, baseline = self.stores(tmp_path, 2.0, 0.5, "higher", 0.1)
        with ResultsStore(tmp_path / "ungated.db") as ungated:
            record(ungated, "demo", 2.0, stamp="2026-01-01T00:00:00+00:00")
            assert history_diff(current, DataProvider(ungated)) == []
        assert history_diff(current, baseline, ["not_in_baseline"]) == []

    def test_improvements_pass(self, tmp_path):
        current, baseline = self.stores(tmp_path, 2.0, 9.0, "higher", 0.1)
        assert history_diff(current, baseline) == []

    def test_regression_dataclass_shape(self):
        regression = Regression("run", "m", "higher", 1.0, 0.5, 0.1)
        assert not regression.missing
