"""Tests for the benchmark itself (not part of the tier-1 suite).

Run from the repository root::

    python -m pytest -q perfbench/selftest.py

They check that simulated metrics repeat exactly at a seed and move with
it, that host-time metrics follow the reference kernel and window
metrics the reference window only, that span self time is duration minus same-thread children (with
worker-thread spans pointing at the span that submitted them), that a
traced run restores every wrapped attribute, and that an unpinned
process refuses to report.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import suite  # noqa: E402


def simulated(workload, calls):
    """The end-to-end metrics that must repeat exactly at a seed."""
    metrics = run.end_to_end(workload, calls, setups=[(1.0, 1.0)], rss_mb=0.0)
    names = ["ok_frac", "sim_error", "energy_uj_per_item"]
    if workload.serves:
        names += ["p50_latency_ms", "p99_latency_ms"]
    return {name: metrics[name] for name in names}


def reference_window(name, seed):
    workload = suite.WORKLOADS[name](seed=seed, n_workers=2)
    try:
        workload.setup()
        workload.warm_up()
        calls = run.timed_phase(
            workload, 0.0, workload.traced_calls, max_calls=workload.traced_calls
        )
    finally:
        workload.close()
    return workload, calls


# paper_figures last: its set-up re-imports the whole repro package.
@pytest.mark.parametrize("name", ["cs_single", "serve_drift", "cs_fleet", "paper_figures"])
def test_same_seed_repeats_and_other_seed_differs(name):
    workload, first = reference_window(name, seed=1)
    _, again = reference_window(name, seed=1)
    assert simulated(workload, first) == simulated(workload, again)
    assert [call.errors for call in first] == [call.errors for call in again]
    assert all(call.failed == 0 for call in first)
    _, other = reference_window(name, seed=2)
    if name == "paper_figures":
        # The reports keep their own seeds, where their gates were recorded.
        assert [call.errors for call in other] == [call.errors for call in first]
    else:
        assert [call.errors for call in other] != [call.errors for call in first]


def test_host_metrics_follow_the_reference_and_the_window_only():
    """A slower host reads the same; late calls move no window metric."""
    workload = suite.CsSingle(seed=1, n_workers=1)
    window = [
        suite.Call(seconds=0.4 + 0.01 * i, items=1, errors=[0.01], energy_j=1e-6,
                   reference_s=run.REFERENCE_S)
        for i in range(workload.window_calls)
    ]
    slow_host = [
        suite.Call(seconds=1.3 * call.seconds, items=1, errors=[0.01], energy_j=1e-6,
                   reference_s=1.3 * run.REFERENCE_S)
        for call in window
    ]
    late = [suite.Call(seconds=0.9, items=1, failed=1, errors=[0.5],
                       reference_s=run.REFERENCE_S)] * 30
    setups = [(1.0, run.REFERENCE_S)]
    fast, slow, longer = (
        run.end_to_end(workload, calls, setups, rss_mb=0.0)
        for calls in (window, slow_host, window + late)
    )
    for name in ("items_per_s", "p50_latency_ms", "p99_latency_ms"):
        assert slow[name] == pytest.approx(fast[name])
    for name in ("ok_frac", "sim_error", "energy_uj_per_item"):
        assert longer[name] == fast[name]
    assert run.latency_samples(workload, window)[1] == run.latency_samples(
        workload, window + late
    )[1]
    assert run.problems_of(workload, window + late)  # late failures still fail


def _fake_layers():
    module = types.ModuleType("fake_layers")

    class Fake:
        def outer(self, pool):
            self.inner(0.02)
            futures = [pool.submit(self.leaf) for _ in range(2)]
            self.inner(0.01)
            return [future.result() for future in futures]

        def inner(self, seconds):
            time.sleep(seconds)

        def leaf(self):
            time.sleep(0.03)
            return threading.get_ident()

    module.Fake = Fake
    return module


def test_self_time_subtracts_same_thread_children_only(monkeypatch):
    monkeypatch.setitem(sys.modules, "fake_layers", _fake_layers())
    probes = tuple(
        (layer, "fake_layers", f"Fake.{layer}", None, spans._calls)
        for layer in ("outer", "inner", "leaf")
    )
    tracer = spans.Tracer(probes=probes)
    fake = sys.modules["fake_layers"].Fake()
    with ThreadPoolExecutor(max_workers=2) as pool, tracer.installed():
        tracer.phase = "timed"
        fake.outer(pool)
    records = tracer.records()
    by_id = {record[0]: record for record in records}
    outer = next(record for record in records if record[1] == "outer")
    main = outer[5]
    for span, record in zip(tracer.spans, records):
        children = [
            child for child in records
            if child[4] == record[0] and child[5] == record[5]
        ]
        expected = record[3] - record[2] - sum(child[3] - child[2] for child in children)
        assert spans.self_time(span) == pytest.approx(expected, abs=1e-9)
    leaves = [record for record in records if record[1] == "leaf"]
    inners = [record for record in records if record[1] == "inner"]
    assert len(leaves) == 2 and len(inners) == 2
    assert all(by_id[leaf[4]] is outer and leaf[5] != main for leaf in leaves)
    assert all(by_id[inner[4]] is outer and inner[5] == main for inner in inners)
    outer_self = spans.self_time(tracer.spans[outer[0]])
    assert outer_self == pytest.approx(
        outer[3] - outer[2] - sum(inner[3] - inner[2] for inner in inners), abs=1e-9
    )
    assert outer_self > 0.02  # the wait for the workers stays with the caller


def _originals(tracer):
    """Every attribute the probes would patch, with its current value."""
    found = {}
    for _, module_name, attribute, _, _ in tracer.probes:
        owner = importlib.import_module(module_name)
        *path, name = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        found[(id(owner), name)] = (owner, name, owner.__dict__[name])
    found[(id(ThreadPoolExecutor), "submit")] = (
        ThreadPoolExecutor, "submit", ThreadPoolExecutor.__dict__["submit"]
    )
    return found


def test_traced_run_restores_every_wrapped_attribute():
    from repro.crossbar import CrossbarOperator

    tracer = spans.Tracer()
    before = _originals(tracer)
    with tracer.installed():
        patched = tracer.patched
        operator = CrossbarOperator(suite.np.ones((4, 6)), seed=0)
        operator.matmat(suite.np.ones((6, 2)))
    assert len(patched) > len(before)  # module functions patched in many places
    for owner, name, original in patched:
        assert owner.__dict__[name] is original
    for owner, name, original in before.values():
        assert owner.__dict__[name] is original
    recorded = len(tracer.spans)
    assert recorded > 0
    CrossbarOperator(suite.np.ones((4, 6)), seed=0).matmat(suite.np.ones((6, 2)))
    assert len(tracer.spans) == recorded


def test_unpinned_process_refuses_to_report(capsys, monkeypatch):
    monkeypatch.setattr(run.os, "environ", dict(run.os.environ))
    assert "numpy" in sys.modules
    assert run.main(["--workload", "cs_single", "--seconds", "1"]) == 2
    assert "refusing" in capsys.readouterr().err
