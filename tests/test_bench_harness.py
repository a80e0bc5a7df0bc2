"""Tests of the bench harness's timing and speed-gate primitives
(``benchmarks/_harness.py``)."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.results import DataProvider
from repro.results.store import RESULTS_DB_ENV

HARNESS = Path(__file__).resolve().parents[1] / "benchmarks" / "_harness.py"


@pytest.fixture(scope="module")
def harness():
    spec = importlib.util.spec_from_file_location("bench_harness", HARNESS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def make_gates(harness, monkeypatch, kernel_ms=(20.0, 20.0), pinned=True):
    """SpeedGates on a host whose reference kernel reads ``kernel_ms``
    at the start and at the end of the bench (each is timed once)."""
    readings = iter(kernel_ms)
    monkeypatch.setattr(harness, "reference_seconds", lambda: next(readings) / 1e3)
    for key in harness.BLAS_ENV:
        if pinned:
            monkeypatch.setenv(key, "1")
        else:
            monkeypatch.delenv(key, raising=False)
    return harness.SpeedGates()


class TestTiming:
    def test_median_and_quartiles_of_fixed_samples(self, harness):
        timing = harness.Timing((4.0, 1.0, 3.0, 2.0, 5.0))
        assert timing.median == 3.0
        assert timing.quartiles == (2.0, 4.0)

    def test_even_sample_counts_interpolate(self, harness):
        timing = harness.Timing((1.0, 2.0, 3.0, 4.0))
        assert timing.median == 2.5
        assert timing.quartiles == (1.75, 3.25)

    def test_division_pairs_the_rounds(self, harness):
        ratio = harness.Timing((2.0, 6.0, 3.0)) / harness.Timing((1.0, 2.0, 3.0))
        assert ratio.samples == (2.0, 3.0, 1.0)
        assert ratio.median == 2.0
        assert ratio.quartiles == (1.5, 2.5)


class TestTimeInterleaved:
    def test_warm_up_then_interleaved_rounds(self, harness, monkeypatch):
        """The warm-up round is untimed and its outputs are returned;
        set-ups run untimed before every call and feed it."""
        now = [0.0]
        monkeypatch.setattr(harness.time, "perf_counter", lambda: now[0])
        calls = []
        durations = {"a": [100.0, 1.0, 3.0, 2.0], "b": [100.0, 6.0, 4.0, 5.0]}

        def timed(name):
            def call(*args):
                calls.append((name, args))
                now[0] += durations[name].pop(0)
                return f"{name} warm" if len(calls) <= 2 else f"{name} timed"

            return call

        built = iter(range(10))

        def setup():
            now[0] += 50.0  # set-up time is never counted
            return next(built)

        timings, outputs = harness.time_interleaved(
            {"a": timed("a"), "b": timed("b")}, 3, setup={"a": setup}
        )
        assert [name for name, _ in calls] == ["a", "b"] * 4
        assert [args for name, args in calls if name == "a"] == [(0,), (1,), (2,), (3,)]
        assert [args for name, args in calls if name == "b"] == [()] * 4
        assert timings["a"].samples == (1.0, 3.0, 2.0)
        assert timings["b"].samples == (6.0, 4.0, 5.0)
        assert outputs == {"a": "a warm", "b": "b warm"}


class TestSpeedGates:
    def test_a_value_below_its_floor_fails_on_a_steady_pinned_host(
        self, harness, monkeypatch
    ):
        gates = make_gates(harness, monkeypatch)
        value = gates.gate("speedup", harness.Timing((2.0, 2.5, 1.5)), 3.0, shape="s")
        assert value == 2.0
        with pytest.raises(AssertionError, match="speedup 2.00x below its 3x floor"):
            gates.enforce()

    def test_a_passing_gate_is_enforced_and_recorded(self, harness, monkeypatch):
        gates = make_gates(harness, monkeypatch, kernel_ms=(20.0, 22.0))
        gates.gate("speedup", harness.Timing((4.0, 5.0, 6.0)), 3.0, shape="B=64")
        lines, config = gates.record()
        gates.enforce()  # judged and passing: no assertion, no skip
        assert lines[0].startswith(f"Wall-clock gates - nproc {gates.nproc}, ")
        assert "OPENBLAS_NUM_THREADS=1" in lines[0]
        assert "reference kernel 20.0 -> 22.0 ms" in lines[0]
        assert lines[1] == (
            "  speedup at B=64: 5.00x (IQR 4.50-5.50, 3 rounds), floor 3x -> pass"
        )
        assert config["nproc"] == gates.nproc
        assert config["blas_env"] == dict.fromkeys(harness.BLAS_ENV, "1")
        assert config["reference_kernel_s"] == [0.02, 0.022]
        assert config["gates"]["speedup"] == dict(
            value=5.0, q1=4.5, q3=5.5, floor=3.0, shape="B=64", rounds=3, blas=True,
            passed=True, skipped=None,
        )

    def test_core_floors_follow_the_host(self, harness, monkeypatch):
        gates = make_gates(harness, monkeypatch)
        floors = {4: 3.0, 2: 2.0, 1: 1.5}
        for nproc, floor in ((1, 1.5), (2, 2.0), (3, 2.0), (4, 3.0), (64, 3.0)):
            gates.nproc = nproc
            assert gates.core_floor(floors) == floor

    def test_unpinned_blas_skips_only_the_blas_gates(self, harness, monkeypatch):
        gates = make_gates(harness, monkeypatch, pinned=False)
        gates.gate("gemm", harness.Timing((1.0,)), 3.0, shape="s")
        gates.gate("hd", harness.Timing((4.0,)), 3.0, shape="s", blas=False)
        lines, _ = gates.record()
        assert "skipped: BLAS not pinned to one thread (OPENBLAS_NUM_THREADS=None" in (
            lines[1]
        )
        assert lines[2].endswith("-> pass")
        with pytest.raises(pytest.skip.Exception, match="gemm: BLAS not pinned"):
            gates.enforce()

    def test_a_judged_gate_still_fails_beside_a_skipped_one(self, harness, monkeypatch):
        gates = make_gates(harness, monkeypatch, pinned=False)
        gates.gate("gemm", harness.Timing((1.0,)), 3.0, shape="s")
        gates.gate("hd", harness.Timing((2.0,)), 3.0, shape="s", blas=False)
        with pytest.raises(AssertionError, match="hd 2.00x below"):
            gates.enforce()

    @pytest.mark.parametrize("after_ms", [26.0, 14.0])
    def test_a_host_that_moved_skips_every_gate(self, harness, monkeypatch, after_ms):
        gates = make_gates(harness, monkeypatch, kernel_ms=(20.0, after_ms))
        gates.gate("gemm", harness.Timing((1.0,)), 3.0, shape="s")
        gates.gate("hd", harness.Timing((1.0,)), 3.0, shape="s", blas=False)
        lines, config = gates.record()
        moved = f"{after_ms / 20.0 - 1:+.0%}"
        for line in lines[1:]:
            assert f"skipped: host speed moved {moved} while the bench ran" in line
        assert config["gates"]["hd"]["skipped"].startswith("host speed moved")
        with pytest.raises(pytest.skip.Exception, match="gemm: host speed moved"):
            gates.enforce()

    def test_a_drift_within_the_limit_is_judged(self, harness, monkeypatch):
        limit = harness.MAX_HOST_DRIFT
        gates = make_gates(harness, monkeypatch, kernel_ms=(20.0, 20.0 * (1 + limit)))
        gates.gate("hd", harness.Timing((1.0,)), 3.0, shape="s", blas=False)
        with pytest.raises(AssertionError):
            gates.enforce()


def test_recorder_writes_the_gate_record(harness, monkeypatch, tmp_path):
    """The report, the store row and the gate JSON carry the record."""
    monkeypatch.delenv(RESULTS_DB_ENV, raising=False)
    gates = make_gates(harness, monkeypatch)
    gates.gate("speedup", harness.Timing((4.0, 5.0, 6.0)), 3.0, shape="B=64")
    recorder = harness.BenchRecorder(tmp_path)
    recorder(
        "timed",
        "Timed bench\n  speedup : 5.0x",
        metrics={"speedup": 5.0},
        gate_json={"speedup": 5.0},
        speed_gates=gates,
    )
    recorder.close()
    text = (tmp_path / "timed.txt").read_text().splitlines()
    assert text[:2] == ["Timed bench", "  speedup : 5.0x"]
    assert text[2].startswith("Wall-clock gates - nproc")
    assert text[3].endswith("floor 3x -> pass")
    assert json.loads((tmp_path / "BENCH_timed.json").read_text()) == {
        "speedup": 5.0, "speedup_q1": 4.5, "speedup_q3": 5.5,
    }
    provider = DataProvider(tmp_path / "results.db")
    run = provider.latest_run("timed")
    assert run.config["wall_clock"]["gates"]["speedup"]["floor"] == 3.0
    assert provider.metrics(run.id)["speedup_q3"] == 5.5
    assert provider.latest_document("timed").render().splitlines() == text
