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


def make_gates(harness, monkeypatch, pinned=True):
    """SpeedGates with BLAS pinned to one thread or unpinned."""
    for key in harness.BLAS_ENV:
        if pinned:
            monkeypatch.setenv(key, "1")
        else:
            monkeypatch.delenv(key, raising=False)
    return harness.SpeedGates()


def kernel_runs(wall_ms, cpu_ms, runs=9):
    """``runs`` identical reference-kernel runs, as ``(wall, CPU)`` seconds."""
    return ((wall_ms / 1e3, cpu_ms / 1e3),) * runs


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

    def test_division_keeps_the_kernel_runs(self, harness):
        runs = kernel_runs(20.0, 19.0, runs=2)
        ratio = harness.Timing((2.0,), runs) / harness.Timing((1.0,), runs)
        assert ratio.kernel == runs


class TestTimeInterleaved:
    def test_warm_up_then_interleaved_rounds(self, harness, monkeypatch):
        """The warm-up round is untimed and its outputs are returned;
        set-ups run untimed before every call and feed it; the kernel
        runs are spread over the gaps after the rounds, untimed."""
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

        runs = iter(kernel_runs(20.0, 20.0, runs=4))

        def kernel():
            calls.append(("kernel", ()))
            now[0] += 70.0  # kernel time is never counted
            return next(runs)

        monkeypatch.setattr(harness, "kernel_run", kernel)
        monkeypatch.setattr(harness, "KERNEL_RUNS", 4)
        timings, outputs = harness.time_interleaved(
            {"a": timed("a"), "b": timed("b")}, 3, setup={"a": setup}
        )
        assert [name for name, _ in calls] == [
            "a", "b", "a", "b", "kernel", "a", "b", "kernel", "a", "b", "kernel",
            "kernel",
        ]
        assert [args for name, args in calls if name == "a"] == [(0,), (1,), (2,), (3,)]
        assert [args for name, args in calls if name == "b"] == [()] * 4
        assert timings["a"].samples == (1.0, 3.0, 2.0)
        assert timings["b"].samples == (6.0, 4.0, 5.0)
        assert timings["a"].kernel == timings["b"].kernel == kernel_runs(20.0, 20.0, 4)
        assert outputs == {"a": "a warm", "b": "b warm"}

    @pytest.mark.parametrize("repeats", [2, 3, 25])
    def test_every_kernel_run_is_taken(self, harness, monkeypatch, repeats):
        taken = []
        monkeypatch.setattr(harness, "kernel_run", lambda: taken.append(1) or (1.0, 1.0))
        timings, _ = harness.time_interleaved({"a": lambda: None}, repeats)
        assert len(taken) == len(timings["a"].kernel) == harness.KERNEL_RUNS

    def test_the_kernel_reads_wall_and_cpu_time(self, harness):
        wall, cpu = harness.kernel_run()
        assert 0 < cpu <= wall * 1.05


class TestSpeedGates:
    def test_a_value_below_its_floor_fails_on_a_steady_pinned_host(
        self, harness, monkeypatch
    ):
        gates = make_gates(harness, monkeypatch)
        ratio = harness.Timing((2.0, 2.5, 1.5), kernel_runs(20.0, 20.0))
        value = gates.gate("speedup", ratio, 3.0, shape="s")
        assert value == 2.0
        with pytest.raises(AssertionError, match="speedup 2.00x below its 3x floor"):
            gates.enforce()

    def test_a_passing_gate_is_enforced_and_recorded(self, harness, monkeypatch):
        gates = make_gates(harness, monkeypatch)
        ratio = harness.Timing((4.0, 5.0, 6.0), kernel_runs(20.0, 19.0))
        gates.gate("speedup", ratio, 3.0, shape="B=64")
        lines, config = gates.record()
        gates.enforce()  # judged and passing: no assertion, no skip
        assert lines[0] == (
            f"Wall-clock gates - nproc {gates.nproc}, OPENBLAS_NUM_THREADS=1, "
            "OMP_NUM_THREADS=1, MKL_NUM_THREADS=1"
        )
        assert lines[1] == (
            "  speedup at B=64: 5.00x (IQR 4.50-5.50, 3 rounds), floor 3x, "
            "kernel 20.0 ms, 5% off CPU -> pass"
        )
        assert config["nproc"] == gates.nproc
        assert config["blas_env"] == dict.fromkeys(harness.BLAS_ENV, "1")
        assert config["gates"]["speedup"] == dict(
            value=5.0, q1=4.5, q3=5.5, floor=3.0, shape="B=64", rounds=3, blas=True,
            kernel_s=0.02, off_cpu=pytest.approx(0.05), threads=False,
            other_cpu=None, passed=True, skipped=None,
        )

    def test_core_floors_follow_the_host(self, harness, monkeypatch):
        gates = make_gates(harness, monkeypatch)
        floors = {4: 3.0, 2: 2.0, 1: 1.5}
        for nproc, floor in ((1, 1.5), (2, 2.0), (3, 2.0), (4, 3.0), (64, 3.0)):
            gates.nproc = nproc
            assert gates.core_floor(floors) == floor

    def test_unpinned_blas_skips_only_the_blas_gates(self, harness, monkeypatch):
        gates = make_gates(harness, monkeypatch, pinned=False)
        gates.gate("gemm", harness.Timing((1.0,), kernel_runs(20.0, 20.0)), 3.0,
                   shape="s")
        gates.gate("hd", harness.Timing((4.0,), kernel_runs(20.0, 20.0)), 3.0,
                   shape="s", blas=False)
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

    @pytest.mark.parametrize("cpu_ms", [10.0, 17.0])
    def test_a_cpu_held_by_another_job_skips_the_gate(self, harness, monkeypatch, cpu_ms):
        """Runs off the CPU for more than the limit: the gate is skipped,
        never failed, whatever its value."""
        gates = make_gates(harness, monkeypatch)
        gates.gate("hd", harness.Timing((1.0,), kernel_runs(20.0, cpu_ms)), 3.0,
                   shape="s", blas=False)
        lines, config = gates.record()
        share = f"{1 - cpu_ms / 20.0:.0%}"
        assert lines[1].endswith(
            f"skipped: another job held the CPU for {share} of the reference "
            "kernel's time during its rounds (limit 10%)"
        )
        assert config["gates"]["hd"]["skipped"].startswith("another job held the CPU")
        with pytest.raises(pytest.skip.Exception, match="hd: another job held"):
            gates.enforce()

    def test_a_share_within_the_limit_is_judged(self, harness, monkeypatch):
        gates = make_gates(harness, monkeypatch)
        cpu_ms = 20.0 * (1 - harness.MAX_OFF_CPU) + 1e-6
        gates.gate("hd", harness.Timing((1.0,), kernel_runs(20.0, cpu_ms)), 3.0,
                   shape="s", blas=False)
        with pytest.raises(AssertionError):
            gates.enforce()

    def test_a_slower_host_alone_is_judged(self, harness, monkeypatch):
        """A kernel whose wall time grew on the CPU (the host ran slower,
        no job took the CPU) does not skip the gate."""
        gates = make_gates(harness, monkeypatch)
        gates.gate("hd", harness.Timing((1.0,), kernel_runs(35.0, 35.0)), 3.0,
                   shape="s", blas=False)
        with pytest.raises(AssertionError, match="hd 1.00x below"):
            gates.enforce()

    def test_contention_from_mid_bench_skips_only_the_gates_it_reached(
        self, harness, monkeypatch
    ):
        """A scripted host: the reference kernel runs alone through the
        first timing, then shares its CPU with another job from the
        middle of the second timing's rounds on.  The first gate is
        judged; the second and third, whose ratios the contention bent
        below their floor, are skipped with the reason."""
        now = [0.0]
        monkeypatch.setattr(harness.time, "perf_counter", lambda: now[0])
        quiet, shared = (0.020, 0.020), (0.040, 0.020)
        runs = iter([quiet] * 9 + [quiet] * 4 + [shared] * 5 + [shared] * 9)
        monkeypatch.setattr(harness, "kernel_run", lambda: next(runs))

        def takes(seconds):
            return lambda: now.__setitem__(0, now[0] + seconds)

        gates = make_gates(harness, monkeypatch)
        for name, reference_s in (("first", 2.0), ("second", 1.0), ("third", 1.0)):
            timings, _ = harness.time_interleaved(
                {"fast": takes(1.0), "reference": takes(reference_s)}, 5
            )
            gates.gate(name, timings["reference"] / timings["fast"], 1.5,
                       shape="s", blas=False)
        lines, config = gates.record()
        judged = config["gates"]
        assert lines[1].endswith("kernel 20.0 ms, 0% off CPU -> pass")
        assert judged["first"]["skipped"] is None
        # 4 runs alone and 5 sharing: 180 ms on the CPU of 280 ms
        assert judged["second"]["off_cpu"] == pytest.approx(1 - 180 / 280)
        assert judged["third"]["off_cpu"] == pytest.approx(0.5)
        for line in lines[2:]:
            assert "1.00x" in line
            assert "skipped: another job held the CPU for" in line
        with pytest.raises(pytest.skip.Exception, match="second: another job"):
            gates.enforce()


PROC_STAT = """cpu  900 0 90 9000 10 0 9 40 0 0
cpu0 300 0 30 3000 4 0 3 10 0 0
cpu1 200 0 20 2000 3 0 2 20 0 0
cpu2 400 0 40 4000 3 0 4 10 0 0
intr 12345 0 0
ctxt 6789
"""


class TestHostCpuShare:
    """The share of the CPUs that other processes used, from /proc/stat
    busy time minus this process's own CPU time."""

    def test_a_reading_sums_the_cpus_this_process_may_run_on(
        self, harness, monkeypatch, tmp_path
    ):
        stat = tmp_path / "stat"
        stat.write_text(PROC_STAT)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(harness.os, "sysconf", lambda name: 100)
        monkeypatch.setattr(harness.time, "process_time", lambda: 1.5)
        busy, total, own = harness.host_cpu_reading(stat)
        # cpu0 and cpu1: user, nice, system, irq, softirq and steal are
        # busy; idle and iowait are not.  cpu2 and the summary line are out.
        assert busy == pytest.approx((343 + 242) / 100)
        assert total == pytest.approx((3347 + 2245) / 100)
        assert own == 1.5

    def test_no_reading_without_proc_stat(self, harness, tmp_path):
        assert harness.host_cpu_reading(tmp_path / "missing") is None

    def test_no_reading_without_lines_for_this_process_s_cpus(
        self, harness, monkeypatch, tmp_path
    ):
        stat = tmp_path / "stat"
        stat.write_text(PROC_STAT)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {7})
        assert harness.host_cpu_reading(stat) is None

    def test_the_share_is_busy_time_minus_own_time_over_total(self, harness):
        # 3 s busy over 4 s of two CPUs' time, 1 s of it this process's own
        assert harness.other_cpu_share((10.0, 100.0, 1.0), (13.0, 104.0, 2.0)) == 0.5
        # own time read outside the busy window cannot make the share negative
        assert harness.other_cpu_share((10.0, 100.0, 1.0), (11.0, 104.0, 3.0)) == 0.0
        assert harness.other_cpu_share(None, (13.0, 104.0, 2.0)) is None
        assert harness.other_cpu_share((10.0, 100.0, 1.0), None) is None
        assert harness.other_cpu_share((10.0, 100.0, 1.0), (10.0, 100.0, 1.0)) is None

    def test_time_interleaved_reads_the_host_around_the_rounds(
        self, harness, monkeypatch
    ):
        """One reading after the warm-up and one after the last round; both
        timings and their ratio carry the share."""
        events = []
        readings = iter([(0.0, 0.0, 0.0), (6.0, 10.0, 2.0)])

        def reading():
            events.append("reading")
            return next(readings)

        monkeypatch.setattr(harness, "host_cpu_reading", reading)
        monkeypatch.setattr(harness, "kernel_run", lambda: (1.0, 1.0))
        timings, _ = harness.time_interleaved(
            {"fast": lambda: events.append("fast"),
             "reference": lambda: events.append("reference")}, 2
        )
        assert events == ["fast", "reference", "reading", "fast", "reference",
                          "fast", "reference", "reading"]
        assert timings["fast"].other_cpu == timings["reference"].other_cpu == 0.4
        assert (timings["reference"] / timings["fast"]).other_cpu == 0.4

    @pytest.mark.parametrize("other_cpu", [0.11, 0.5])
    def test_other_processes_on_the_cpus_skip_a_threaded_gate(
        self, harness, monkeypatch, other_cpu
    ):
        """The one-thread kernel ran alone (0 % off CPU) while other
        processes took the CPUs: the threaded gate skips with the share,
        and a one-thread gate timed in the same rounds is judged."""
        gates = make_gates(harness, monkeypatch)
        ratio = harness.Timing((1.0,), kernel_runs(20.0, 20.0), other_cpu)
        gates.gate("fleet", ratio, 1.3, shape="s", blas=False, threads=True)
        gates.gate("one_thread", ratio, 1.3, shape="s", blas=False)
        lines, config = gates.record()
        assert lines[1].endswith(
            f"kernel 20.0 ms, 0% off CPU, other processes {other_cpu:.0%} of the "
            f"CPUs -> skipped: other processes used {other_cpu:.0%} of the CPUs "
            "during its rounds (limit 10%)"
        )
        assert config["gates"]["fleet"]["other_cpu"] == other_cpu
        assert lines[2].endswith("kernel 20.0 ms, 0% off CPU -> FAIL")
        with pytest.raises(AssertionError, match="one_thread 1.00x below"):
            gates.enforce()

    def test_a_threaded_gate_within_the_limit_is_judged(self, harness, monkeypatch):
        gates = make_gates(harness, monkeypatch)
        ratio = harness.Timing((1.0,), kernel_runs(20.0, 20.0), harness.MAX_OTHER_CPU)
        gates.gate("fleet", ratio, 1.3, shape="s", blas=False, threads=True)
        lines, _ = gates.record()
        assert lines[1].endswith("other processes 10% of the CPUs -> FAIL")
        with pytest.raises(AssertionError, match="fleet 1.00x below its 1.3x floor"):
            gates.enforce()

    def test_an_unread_share_is_recorded_as_not_measured(self, harness, monkeypatch):
        gates = make_gates(harness, monkeypatch)
        gates.gate("fleet", harness.Timing((1.5,), kernel_runs(20.0, 20.0)), 1.3,
                   shape="s", blas=False, threads=True)
        lines, config = gates.record()
        assert lines[1].endswith(
            "other processes' CPU share not measured -> pass"
        )
        assert config["gates"]["fleet"]["other_cpu"] is None
        gates.enforce()


def test_recorder_writes_the_gate_record(harness, monkeypatch, tmp_path):
    """The report, the store row and the gate JSON carry the record."""
    monkeypatch.delenv(RESULTS_DB_ENV, raising=False)
    gates = make_gates(harness, monkeypatch)
    ratio = harness.Timing((4.0, 5.0, 6.0), kernel_runs(20.0, 20.0))
    gates.gate("speedup", ratio, 3.0, shape="B=64")
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
    assert text[3].endswith("floor 3x, kernel 20.0 ms, 0% off CPU -> pass")
    assert json.loads((tmp_path / "BENCH_timed.json").read_text()) == {
        "speedup": 5.0, "speedup_q1": 4.5, "speedup_q3": 5.5,
    }
    provider = DataProvider(tmp_path / "results.db")
    run = provider.latest_run("timed")
    assert run.config["wall_clock"]["gates"]["speedup"]["floor"] == 3.0
    assert provider.metrics(run.id)["speedup_q3"] == 5.5
    assert provider.latest_document("timed").render().splitlines() == text
