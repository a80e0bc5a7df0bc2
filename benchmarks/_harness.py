"""The shared bench harness: one write path for every benchmark.

Every ``bench_*.py`` used to hand-roll the same boilerplate — a
``results/`` literal, ``path.write_text(...)``, and for the gated
benches a second ``BENCH_<name>.json`` blob.  The :class:`BenchRecorder`
replaces all of it:

* ``recorder(name, payload)`` writes ``<results dir>/<name>.txt``
  exactly as before (payload may be an
  :class:`~repro.experiments.ExperimentResult` or plain text);
* it records one run row (``kind="bench"`` unless the bench passes a
  different ``kind``, e.g. the lifetime simulation's ``"lifetime"``)
  in the experiment store with the bench's config, metrics, gated
  metrics and the report document, so ``python -m repro.results`` can
  regenerate the text and trend it across PRs;
* ``gate_json=...`` keeps writing ``BENCH_<name>.json`` with the same
  schema and mirrors the payload's top-level scalars into the metrics
  table (explicit ``metrics=`` entries win);
* ``speed_gates=...`` appends a :class:`SpeedGates` record to the text,
  the config, the metrics and the gate JSON (see below).

The results directory resolves through
:func:`repro.results.store.results_dir` — ``REPRO_RESULTS_DIR`` or the
pytest ``--results-dir`` flag redirect everything (text, JSON and DB)
in one move.

The wall-clock benches time with :func:`time_interleaved` and gate with
:class:`SpeedGates`: every speed gate is recorded with its quartiles,
floor, shape, core count, BLAS env, the reference kernel's reading
during its rounds and the share of the CPUs other processes used during
them, and skips (never fails) with its reason when BLAS is unpinned or
another job held the CPU during those rounds.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro.core.report import ReportDocument, ReportText
from repro.experiments import ExperimentResult
from repro.results.store import (
    RESULTS_DB_ENV,
    ResultsStore,
    _jsonify,
    results_dir,
    scalar_metrics,
    set_active_store,
)

__all__ = ["BenchRecorder", "SpeedGates", "Timing", "available_cores",
           "describe_other_cpu", "host_cpu_reading", "kernel_run",
           "time_interleaved"]

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Single reference-kernel runs :func:`time_interleaved` spreads over
#: the gaps between its rounds.
KERNEL_RUNS = 9
#: A speed gate skips when those runs spent more than this share of
#: their wall time off the CPU (see :class:`SpeedGates`).
MAX_OFF_CPU = 0.10
#: A threaded speed gate skips when other processes used more than this
#: share of the CPUs this process may run on during its rounds.
MAX_OTHER_CPU = 0.10
#: The per-CPU counters of /proc/stat that are not idle time, by column:
#: user, nice, system, irq, softirq and steal (idle and iowait are 3
#: and 4; guest time is already inside user and nice).
BUSY_COLUMNS = (0, 1, 2, 5, 6, 7)


def available_cores() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def host_cpu_reading(path="/proc/stat") -> tuple[float, float, float] | None:
    """``(busy, total, own)`` CPU seconds: the busy and total time of the
    CPUs this process may run on, summed from the per-CPU lines of
    ``path``, and this process's own CPU time, all threads.  ``None``
    where ``path`` cannot be read (no procfs, or no line for those CPUs)."""
    own = time.process_time()
    try:
        with open(path) as stat:
            lines = stat.read().splitlines()
    except OSError:
        return None
    cpus = {f"cpu{index}" for index in os.sched_getaffinity(0)}
    busy = total = 0
    for line in lines:
        name, *fields = line.split()
        if name in cpus:
            ticks = [int(field) for field in fields[:8]]
            busy += sum(ticks[column] for column in BUSY_COLUMNS)
            total += sum(ticks)
    if not total:
        return None
    hertz = os.sysconf("SC_CLK_TCK")
    return busy / hertz, total / hertz, own


def other_cpu_share(start, end) -> float | None:
    """The share of the CPUs' time between two :func:`host_cpu_reading`
    results that was busy but not spent by this process: what other
    processes used.  ``None`` if either reading is missing."""
    if start is None or end is None or end[1] <= start[1]:
        return None
    others = (end[0] - start[0]) - (end[2] - start[2])
    return max(0.0, others / (end[1] - start[1]))


@dataclass(frozen=True)
class Timing:
    """Seconds of one callable's timed rounds; ``a / b`` gives the
    round-by-round ratios of two interleaved timings.  ``kernel`` holds
    the ``(wall, CPU)`` seconds of the reference-kernel runs taken
    between those rounds, and ``other_cpu`` the share of the CPUs that
    other processes used from the first round to the last (``None``
    where it could not be read)."""

    samples: tuple[float, ...]
    kernel: tuple[tuple[float, float], ...] = ()
    other_cpu: float | None = None

    @property
    def median(self) -> float:
        return float(np.median(self.samples))

    @property
    def quartiles(self) -> tuple[float, float]:
        return tuple(np.percentile(self.samples, (25, 75)).tolist())

    def __truediv__(self, other: Timing) -> Timing:
        return Timing(tuple(np.divide(self.samples, other.samples).tolist()),
                      self.kernel, self.other_cpu)


def time_interleaved(calls: dict, repeats: int, setup: dict | None = None):
    """Run the named ``calls`` once untimed (a warm-up), then ``repeats``
    timed rounds that run each in turn.  ``setup`` may map a name to a
    callable whose result is built untimed before every call of that
    name and passed to it.  ``KERNEL_RUNS`` runs of :func:`kernel_run`
    are spread over the gaps after the rounds, outside the rounds'
    times.  Returns ``({name: Timing}, {name: warm-up output})``, so a
    bench keeps its bitwise and counter checks; every ``Timing`` carries
    the kernel runs and the share of the CPUs other processes used
    during the rounds (:func:`host_cpu_reading` before the first and
    after the last)."""
    setup = setup or {}

    def run(name):
        args = (setup[name](),) if name in setup else ()
        start = time.perf_counter()
        output = calls[name](*args)
        return time.perf_counter() - start, output

    outputs = {name: run(name)[1] for name in calls}
    samples = {name: [] for name in calls}
    kernel = []
    start = host_cpu_reading()
    for done in range(repeats):
        for name in calls:
            samples[name].append(run(name)[0])
        due = (done + 1) * KERNEL_RUNS // repeats - done * KERNEL_RUNS // repeats
        kernel += [kernel_run() for _ in range(due)]
    other_cpu = other_cpu_share(start, host_cpu_reading())
    return {name: Timing(tuple(times), tuple(kernel), other_cpu)
            for name, times in samples.items()}, outputs


def kernel_run() -> tuple[float, float]:
    """Wall and CPU seconds of one run of a fixed kernel that calls
    nothing in ``repro``: small numpy calls from a Python loop, a normal
    draw and a GEMM.  The CPU time is this thread's, so the gap between
    the two is time the thread was runnable and another job held the CPU."""
    rng, weights = np.random.default_rng(0), np.full(27, 1 / 27)
    block = np.ones((320, 320))
    wall, cpu = time.perf_counter(), time.thread_time()
    for _ in range(600):
        rng.choice(27, p=weights)
    block @ rng.standard_normal((320, 1280))
    return time.perf_counter() - wall, time.thread_time() - cpu


class SpeedGates:
    """The speed floors of one bench and the host they are judged on.

    It reads the core count and the BLAS env when it is made.
    :meth:`record`, which :class:`BenchRecorder` writes into the report
    and the store row, skips a gate, with the reason, when the gated
    code runs BLAS and BLAS is not pinned to one thread, or when another
    job held the CPU during the gate's own rounds: when the reference
    kernel's runs that :func:`time_interleaved` spread over those rounds
    spent more than ``MAX_OFF_CPU`` of their wall time off the CPU.
    Each gate records the kernel's median wall time beside that share.
    The share is 0-3 % on a quiet 2-vCPU guest even while the kernel's
    wall time moves by half with the host, and about 50 % in every run
    that shares a CPU with a busy process; a best-of wall time finds a
    quiet slice between such a process's time slices.

    The kernel runs on one thread, so it cannot see a job that takes a
    CPU the kernel is not on, and code on several threads slows by the
    CPU it lost.  A threaded gate (``threads=True``) is therefore also
    judged on the share of the CPUs that other processes used during its
    rounds (``Timing.other_cpu``): it skips above ``MAX_OTHER_CPU``,
    and records "not measured" where /proc/stat cannot be read.
    :meth:`enforce`, the bench's last step, asserts the other gates.
    """

    def __init__(self) -> None:
        self.nproc = available_cores()
        self.blas_env = {key: os.environ.get(key) for key in BLAS_ENV}
        self.gates: dict[str, dict] = {}

    def core_floor(self, floors: dict) -> float:
        """The floor for this host from ``{fewest cores: floor}``."""
        return floors[max(cores for cores in floors if cores <= self.nproc)]

    def gate(self, name, ratio: Timing, floor, shape, blas=True,
             threads=False) -> float:
        """Gate the median of ``ratio`` (round-by-round ``slow / fast``) at
        ``floor`` and return it; ``blas``: the timed code runs BLAS;
        ``threads``: it runs on several threads."""
        q1, q3 = ratio.quartiles
        kernel_s = off_cpu = None
        if ratio.kernel:
            wall, cpu = np.asarray(ratio.kernel).T
            kernel_s = float(np.median(wall))
            off_cpu = max(0.0, float(1 - cpu.sum() / wall.sum()))
        self.gates[name] = dict(value=ratio.median, q1=q1, q3=q3, floor=floor,
                                shape=shape, rounds=len(ratio.samples), blas=blas,
                                kernel_s=kernel_s, off_cpu=off_cpu, threads=threads,
                                other_cpu=ratio.other_cpu)
        return ratio.median

    def record(self) -> tuple[list[str], dict]:
        """Judge the gates; return the report lines and the config entry."""
        env = ", ".join(f"{key}={value}" for key, value in self.blas_env.items())
        lines = [f"Wall-clock gates - nproc {self.nproc}, {env}"]
        for name, gate in self.gates.items():
            gate["passed"] = gate["value"] >= gate["floor"]
            gate["skipped"] = None
            off_cpu = gate["off_cpu"]
            if gate["blas"] and set(self.blas_env.values()) != {"1"}:
                gate["skipped"] = f"BLAS not pinned to one thread ({env})"
            elif off_cpu is not None and off_cpu > MAX_OFF_CPU:
                gate["skipped"] = (f"another job held the CPU for {off_cpu:.0%} of "
                                   f"the reference kernel's time during its rounds "
                                   f"(limit {MAX_OFF_CPU:.0%})")
            elif gate["threads"] and (gate["other_cpu"] or 0.0) > MAX_OTHER_CPU:
                gate["skipped"] = (f"other processes used {gate['other_cpu']:.0%} of "
                                   f"the CPUs during its rounds "
                                   f"(limit {MAX_OTHER_CPU:.0%})")
            kernel = ("kernel not run" if off_cpu is None else
                      f"kernel {gate['kernel_s'] * 1e3:.1f} ms, {off_cpu:.0%} off CPU")
            if gate["threads"]:
                kernel += ", " + describe_other_cpu(gate["other_cpu"])
            verdict = "pass" if gate["passed"] else "FAIL"
            lines.append(
                f"  {name} at {gate['shape']}: {gate['value']:.2f}x (IQR "
                f"{gate['q1']:.2f}-{gate['q3']:.2f}, {gate['rounds']} rounds), "
                f"floor {gate['floor']:g}x, {kernel} -> "
                + (f"skipped: {gate['skipped']}" if gate["skipped"] else verdict)
            )
        return lines, {"nproc": self.nproc, "blas_env": self.blas_env,
                       "gates": self.gates}

    def enforce(self) -> None:
        """Assert every judged gate, then skip naming any unjudged one."""
        self.record()
        failed = [f"{name} {gate['value']:.2f}x below its {gate['floor']:g}x floor"
                  for name, gate in self.gates.items()
                  if not (gate["skipped"] or gate["passed"])]
        assert not failed, "; ".join(failed)
        skipped = [f"{name}: {gate['skipped']}"
                   for name, gate in self.gates.items() if gate["skipped"]]
        if skipped:
            pytest.skip("; ".join(skipped))


def describe_other_cpu(share: float | None) -> str:
    """The report's words for :attr:`Timing.other_cpu`."""
    if share is None:
        return "other processes' CPU share not measured"
    return f"other processes {share:.0%} of the CPUs"


def _as_document(payload: object) -> tuple[str, ReportDocument]:
    """Normalise a bench payload to (rendered text, block document)."""
    if isinstance(payload, ExperimentResult):
        return payload.text, payload.document
    if isinstance(payload, ReportDocument):
        return payload.render(), payload
    if isinstance(payload, str):
        # line-wrapping renders back byte-identically: ReportDocument
        # joins block renders with "\n" and ReportText is the identity
        return payload, ReportDocument(
            [ReportText(line) for line in payload.split("\n")]
        )
    raise TypeError(f"unsupported bench payload type: {type(payload)!r}")


class BenchRecorder:
    """Session-wide writer for bench text, gate JSON and store rows."""

    def __init__(
        self,
        out_dir: str | Path | None = None,
        db_path: str | Path | None = None,
    ) -> None:
        self.out_dir = Path(out_dir) if out_dir else results_dir()
        self.out_dir.mkdir(parents=True, exist_ok=True)
        if db_path is None:
            db_path = os.environ.get(RESULTS_DB_ENV) or self.out_dir / "results.db"
        self.store = ResultsStore(db_path)
        # Deliberately NOT installed as the active store: several benches
        # invoke report functions inside pytest-benchmark timing loops,
        # which would record one run per timed round.  Each bench records
        # exactly one row here; the canonical report runs come from
        # ``python -m repro run all``.
        set_active_store(None)

    def __call__(
        self,
        name: str,
        payload: object,
        *,
        metrics: dict | None = None,
        gates: dict | None = None,
        config: dict | None = None,
        gate_json: dict | None = None,
        kind: str = "bench",
        speed_gates: SpeedGates | None = None,
    ) -> None:
        run_metrics: dict = {}
        run_config: dict = {}
        run_gates: dict = {}
        if speed_gates is not None:
            lines, run_config["wall_clock"] = speed_gates.record()
            payload = "\n".join([payload, *lines])
            run_metrics.update((f"{name}_{q}", gate[q]) for name, gate
                               in speed_gates.gates.items() for q in ("q1", "q3"))
            if gate_json is not None:
                gate_json = {**gate_json, **run_metrics}  # adds the quartiles
        text, document = _as_document(payload)
        if isinstance(payload, ExperimentResult):
            run_metrics.update(payload.metrics)
            run_config.update(payload.config)
            run_gates.update(payload.gates)
        artifacts = {}
        if gate_json is not None:
            run_metrics.update(scalar_metrics(gate_json))
            artifacts["gate"] = _jsonify(gate_json)
            json_path = self.out_dir / f"BENCH_{name}.json"
            json_path.write_text(
                json.dumps(_jsonify(gate_json), indent=2) + "\n"
            )
        run_metrics.update(metrics or {})
        run_config.update(config or {})
        run_gates.update(gates or {})

        path = self.out_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[written to {path}]")

        self.store.record_run(
            name,
            kind,
            config=run_config,
            metrics=run_metrics,
            gates=run_gates,
            document=document,
            artifacts=artifacts,
        )

    def close(self) -> None:
        set_active_store(None)
        self.store.close()
