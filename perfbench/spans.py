"""Outside-in span tracer for the benchmark's traced run.

The tracer wraps the public entry points of each layer of ``repro`` at
runtime (class attributes and module-level functions, patched in every
``repro`` module and in the benchmark's ``suite`` wherever they hold a
reference, so names imported with ``from ... import`` are caught too)
and restores every attribute on
exit.  Nothing in ``src/`` changes.

Each span records its layer, start, end, causing span, thread, phase and
item id.  Parent stacks are thread-local; a span opened on a worker
thread of a ``ThreadPoolExecutor`` (the fleet's threaded dispatch) points
to the span that submitted the work, because ``submit`` is wrapped to
carry the submitter's open span into the worker.  Counts are recorded
at the same boundaries, from call shapes, results and public counters
read before and after the call, and stored on the span, so no two
threads ever update one total.

A span's self time is its duration minus the time covered by its
children on the same thread.  On one thread the self times of the spans
opened inside a timed region, plus the region time no span covers,
add up to the region; ``trace.unattributed_frac`` is that uncovered
share on the calling thread.  Worker-thread spans run concurrently with
the dispatch span that waits for them, so across threads self times can
sum past the wall time.

Layer -> metric -> workload map (``crossbar.sharding.advance`` spans are
reported as ``crossbar.sharding.advance_s``/``advance_calls``; the
``devices`` read and drift entry points are reported as ``read_*`` and
``drift_*``):

=====================  ===========================================  ============================  =========================
layer                  per-layer metrics                            should move                   dominant on / ~idle on
=====================  ===========================================  ============================  =========================
workloads              self_s calls                                 items_per_s                   paper_figures / others
ml.hd                  self_s calls                                 items_per_s                   paper_figures / others
devices                read_s read_calls read_cells                 items_per_s, setup_s          cs_single / cs_fleet timed
devices                drift_s drift_calls                          items_per_s                   serve_drift / cs_* (0)
crossbar.programming   self_s calls cells                           setup_s; serve_drift via      cs_fleet set-up / cs_* timed
                                                                    reprograms
crossbar.array         self_s calls columns vector_calls            items_per_s                   cs_fleet / paper_figures
                       redrift_frac
crossbar.converters    self_s conversions                           items_per_s, energy           cs_fleet / paper_figures
crossbar.operator      self_s calls live_frac                       items_per_s                   cs_single, serve_drift
crossbar.sharding      self_s dispatches windows imbalance          items_per_s                   serve_drift, cs_fleet /
                       advance_s advance_calls                                                    cs_single, paper_figures
crossbar.maintenance   self_s sweeps probes pulses                  items_per_s, energy,          serve_drift / others
                                                                    sim_error, p99_latency_ms
signal.amp             self_s sweeps active_frac                    items_per_s, energy           cs_fleet, cs_single /
                                                                                                  serve_drift
serving                self_s blocks block_fill queue_wait_ms       items_per_s, p50/p99,         serve_drift / others
                       maintenance_busy_s failed                    ok_frac, peak_rss_mb
trace                  overhead_frac unattributed_frac              --                            all
=====================  ===========================================  ============================  =========================

Two interactions matter when reading the numbers.  Under threaded
dispatch the slower shard sets each sweep's time, so
``crossbar.sharding.imbalance`` (max over mean of the per-shard
``loads`` delta) can move ``cs_fleet`` throughput by more than its self
time suggests.  In ``serve_drift`` maintenance takes over the modelled
service line, so ``serving.maintenance_busy_s`` raises
``p99_latency_ms`` before throughput falls.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

__all__ = ["Tracer", "layer_metrics"]

# Span fields, stored as lists for speed: [layer, start, end, parent,
# thread, phase, item, child_time, counts].
_LAYER, _START, _END, _PARENT, _THREAD, _PHASE, _ITEM, _CHILD, _COUNTS = range(9)


def _calls(before, result, *args, **kwargs):
    return None


def _cells(before, result, owner, values, *args, **kwargs):
    return {"cells": getattr(values, "size", 1)}


def _program_cells(before, result, device, target, *args, **kwargs):
    return {"cells": getattr(target, "size", 1)}


def _array_columns(before, result, array, voltages):
    shape = getattr(voltages, "shape", ())
    if len(shape) == 2:
        return {"columns": shape[1]}
    return {"columns": 1, "vector_calls": 1}


def _conversions(before, result, converter, values):
    return {"conversions": getattr(values, "size", 1)}


def _operator_reads(operator, *args, **kwargs):
    return (
        operator.n_matvec + operator.n_rmatvec,
        operator.n_live_matvec + operator.n_live_rmatvec,
    )


def _operator_live(before, result, operator, *args, **kwargs):
    logical, live = _operator_reads(operator)
    return {"logical": logical - before[0], "live": live - before[1]}


def _fleet_loads(fleet, *args, **kwargs):
    return fleet.loads


def _fleet_dispatch(before, result, fleet, block, *args, passes=1, **kwargs):
    shape = getattr(block, "shape", ())
    windows = len(fleet.window_spans(shape[1])) if len(shape) == 2 else 1
    delta = tuple(after - prior for after, prior in zip(fleet.loads, before))
    return {"windows": windows * passes, "loads": (id(fleet), delta)}


def _fleet_fused(before, result, fleet, block, transform):
    # One fused sweep dispatches the transpose and the forward windows.
    return _fleet_dispatch(before, result, fleet, block, passes=2)


def _sweep_actions(before, result, *args, **kwargs):
    return {
        "sweeps": 1 if result else 0,
        "probes": sum(action.probes for action in result),
        "pulses": sum(action.pulses for action in result),
    }


def _amp_single(before, result, *args, **kwargs):
    return {"sweeps": result.iterations, "active": result.iterations,
            "capacity": result.iterations}


def _amp_batch(before, result, *args, **kwargs):
    return {
        "sweeps": result.sweeps,
        "active": sum(result.active_counts),
        "capacity": result.sweeps * result.batch,
    }


def _server_state(server, *args, **kwargs):
    slots = getattr(server.maintenance, "slots", ())
    return len(server.block_log), len(server.completed), len(slots)


def _server_replay(before, result, server, *args, **kwargs):
    blocks = server.block_log[before[0]:]
    served = [
        row for row in server.completed[before[1]:] if row.status == "served"
    ]
    slots = getattr(server.maintenance, "slots", ())[before[2]:]
    return {
        "blocks": len(blocks),
        "columns": sum(block.columns for block in blocks),
        "capacity": len(blocks) * server.queue.block_columns,
        "served": len(served),
        "queue_wait_s": sum(row.queue_latency_s for row in served),
        "maintenance_busy_s": sum(slot.service_s for slot in slots),
    }


# (layer, module, attribute, before, after): the public entry points the
# traced run wraps.  ``before`` reads public state ahead of the call and
# ``after`` turns it, the arguments and the result into span counts.
PROBES = (
    ("workloads", "repro.workloads.languages", "LanguageCorpus.sample", None, _calls),
    ("workloads", "repro.workloads.emg", "EmgGestureGenerator.dataset", None, _calls),
    ("workloads", "repro.workloads.signals", "sparse_signal", None, _calls),
    ("workloads", "repro.workloads.signals", "sparse_signal_batch", None, _calls),
    ("workloads", "repro.workloads.signals", "gaussian_measurement_matrix", None, _calls),
    ("ml.hd", "repro.ml.hd.text_encoder", "TextNgramEncoder.encode", None, _calls),
    ("ml.hd", "repro.ml.hd.text_encoder", "TextNgramEncoder.ngram_counts", None, _calls),
    ("ml.hd", "repro.ml.hd.biosignal_encoder", "BiosignalEncoder.encode", None, _calls),
    ("ml.hd", "repro.ml.hd.biosignal_encoder", "BiosignalEncoder.window_counts", None,
     _calls),
    ("ml.hd", "repro.ml.hd.associative", "AssociativeMemory.classify_batch", None, _calls),
    ("ml.hd", "repro.ml.hd.cim", "CimAssociativeMemory.classify_batch", None, _calls),
    ("devices.read", "repro.devices.pcm", "PcmDevice.read", None, _cells),
    ("devices.drift", "repro.devices.pcm", "PcmDevice.drift_factors", None, _calls),
    ("crossbar.programming", "repro.crossbar.programming", "program_and_verify", None,
     _program_cells),
    ("crossbar.array", "repro.crossbar.array", "CrossbarArray.mvm", None, _array_columns),
    ("crossbar.array", "repro.crossbar.array", "CrossbarArray.mvm_t", None,
     _array_columns),
    ("crossbar.converters", "repro.crossbar.converters", "Dac.to_voltages", None,
     _conversions),
    ("crossbar.converters", "repro.crossbar.converters", "Adc.quantize", None,
     _conversions),
    *(
        ("crossbar.operator", "repro.crossbar.operator", f"CrossbarOperator.{name}",
         _operator_reads, _operator_live)
        for name in ("matvec", "rmatvec", "matmat", "rmatmat")
    ),
    *(
        ("crossbar.sharding", "repro.crossbar.sharding", f"ShardedOperator.{name}",
         _fleet_loads, _fleet_dispatch)
        for name in ("matvec", "rmatvec", "matmat", "rmatmat")
    ),
    ("crossbar.sharding", "repro.crossbar.sharding", "ShardedOperator.fused_sweep",
     _fleet_loads, _fleet_fused),
    ("crossbar.sharding.advance", "repro.crossbar.sharding",
     "ShardedOperator.advance_time", None, _calls),
    ("crossbar.maintenance", "repro.crossbar.maintenance", "FleetMaintenance.sweep", None,
     _sweep_actions),
    ("signal.amp", "repro.signal.amp", "amp_recover", None, _amp_single),
    ("signal.amp", "repro.signal.amp", "amp_recover_batch", None, _amp_batch),
    *(
        ("serving", "repro.serving.server", f"FleetServer.{name}", None, _calls)
        for name in ("submit", "step", "flush", "advance")
    ),
    ("serving", "repro.serving.server", "FleetServer.replay", _server_state,
     _server_replay),
)

class Tracer:
    """In-memory span recorder with runtime patching of the probes.

    ``phase`` and ``item`` are stamped on every span opened while they
    are set; the runner switches ``phase`` between ``"setup"``,
    ``"input"`` (input generation and checks) and ``"timed"`` (the
    measured calls).  Use :meth:`installed` as a context manager: it
    patches every probe on entry and restores every original attribute
    on exit, even when the traced code raises.
    """

    def __init__(self, probes=PROBES) -> None:
        self.probes = probes
        self.spans: list[list] = []
        self.phase = "setup"
        self.item: int | None = None
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """The innermost open span on this thread (or its cause)."""
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "cause", None)

    def open(self, layer: str) -> list:
        parent = self.current()
        span = [layer, time.perf_counter(), 0.0, parent, threading.get_ident(),
                self.phase, self.item, 0.0, None]
        self._stack().append(span)
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[_END] = time.perf_counter()
        self._stack().pop()
        parent = span[_PARENT]
        if parent is not None and parent[_THREAD] == span[_THREAD]:
            parent[_CHILD] += span[_END] - span[_START]

    def _wrap(self, fn, layer, before, after):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(layer)
            try:
                state = before(*args, **kwargs) if before is not None else None
                result = fn(*args, **kwargs)
                span[_COUNTS] = after(state, result, *args, **kwargs)
                return result
            finally:
                tracer.close(span)

        return traced

    def _wrap_submit(self, submit):
        tracer = self

        @functools.wraps(submit)
        def traced_submit(pool, fn, /, *args, **kwargs):
            cause = tracer.current()

            def run(*inner_args, **inner_kwargs):
                tracer._local.cause = cause
                try:
                    return fn(*inner_args, **inner_kwargs)
                finally:
                    tracer._local.cause = None

            return submit(pool, run, *args, **kwargs)

        return traced_submit

    # -- patching --------------------------------------------------------------
    def _set(self, owner, name, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        """Patch every probe (and ``ThreadPoolExecutor.submit``), all or none."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            self._patch_all()
        except BaseException:
            self.uninstall()
            raise

    def _patch_all(self) -> None:
        modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None
            and (name in ("repro", "suite") or name.startswith("repro."))
        ]
        for layer, module_name, attribute, before, after in self.probes:
            owner = importlib.import_module(module_name)
            *path, name = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[name]
            wrapped = self._wrap(original, layer, before, after)
            if path:
                self._set(owner, name, wrapped)
                continue
            # A module function: replace it wherever a module holds it.
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapped)
        self._set(ThreadPoolExecutor, "submit", self._wrap_submit(ThreadPoolExecutor.submit))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        """``(owner, attribute, original)`` for every live patch."""
        return list(self._patches)

    # -- output ----------------------------------------------------------------
    def records(self) -> list[list]:
        """Spans as ``[id, layer, start, end, parent_id, thread, phase, item]``."""
        index = {id(span): number for number, span in enumerate(self.spans)}
        return [
            [index[id(span)], span[_LAYER], span[_START], span[_END],
             index.get(id(span[_PARENT])) if span[_PARENT] is not None else None,
             span[_THREAD], span[_PHASE], span[_ITEM]]
            for span in self.spans
        ]


def self_time(span: list) -> float:
    """Duration minus the time covered by same-thread children."""
    return span[_END] - span[_START] - span[_CHILD]


def layer_metrics(
    spans: list[list],
    timed_s: float,
    main_thread: int,
    overhead_frac: float,
    failed: int,
) -> dict[str, float]:
    """Aggregate the spans into the ``per_layer`` metrics of BENCHMARK.json.

    ``timed_s`` is the total host time of the traced calls on
    ``main_thread``; spans of phase ``"timed"`` make up the layer
    metrics and spans of phase ``"setup"`` the ``setup.*`` breakdown.
    ``failed`` is the number of served requests that failed their
    check in the traced calls (0 for workloads that serve nothing).
    """
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    setup_self: dict[str, float] = {}
    loads: dict[int, list[int]] = {}
    array_spans: set[int] = set()
    redrift: set[int] = set()
    attributed = 0.0
    for span in spans:
        layer = span[_LAYER]
        if span[_PHASE] == "setup":
            setup_self[layer] = setup_self.get(layer, 0.0) + self_time(span)
            continue
        if span[_PHASE] != "timed":
            continue
        own = self_time(span)
        self_s[layer] = self_s.get(layer, 0.0) + own
        calls[layer] = calls.get(layer, 0) + 1
        if span[_THREAD] == main_thread:
            attributed += own
        if layer == "crossbar.array":
            array_spans.add(id(span))
        parent = span[_PARENT]
        if layer == "devices.drift" and parent is not None and parent[_LAYER] == (
            "crossbar.array"
        ):
            redrift.add(id(parent))
        for key, value in (span[_COUNTS] or {}).items():
            if key == "loads":
                fleet, delta = value
                total = loads.setdefault(fleet, [0] * len(delta))
                for shard, moved in enumerate(delta):
                    total[shard] += moved
            else:
                counts[f"{layer}.{key}"] = counts.get(f"{layer}.{key}", 0) + value

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    heaviest = sum(max(total) for total in loads.values())
    mean = sum(sum(total) / len(total) for total in loads.values())
    served = counts.get("serving.served", 0)
    return {
        "workloads.self_s": self_s.get("workloads", 0.0),
        "workloads.calls": calls.get("workloads", 0),
        "ml.hd.self_s": self_s.get("ml.hd", 0.0),
        "ml.hd.calls": calls.get("ml.hd", 0),
        "devices.read_s": self_s.get("devices.read", 0.0),
        "devices.read_calls": calls.get("devices.read", 0),
        "devices.read_cells": counts.get("devices.read.cells", 0),
        "devices.drift_s": self_s.get("devices.drift", 0.0),
        "devices.drift_calls": calls.get("devices.drift", 0),
        "crossbar.programming.self_s": self_s.get("crossbar.programming", 0.0),
        "crossbar.programming.calls": calls.get("crossbar.programming", 0),
        "crossbar.programming.cells": counts.get("crossbar.programming.cells", 0),
        "crossbar.array.self_s": self_s.get("crossbar.array", 0.0),
        "crossbar.array.calls": calls.get("crossbar.array", 0),
        "crossbar.array.columns": counts.get("crossbar.array.columns", 0),
        "crossbar.array.vector_calls": counts.get("crossbar.array.vector_calls", 0),
        "crossbar.array.redrift_frac": ratio(len(redrift), len(array_spans)),
        "crossbar.converters.self_s": self_s.get("crossbar.converters", 0.0),
        "crossbar.converters.conversions": counts.get(
            "crossbar.converters.conversions", 0
        ),
        "crossbar.operator.self_s": self_s.get("crossbar.operator", 0.0),
        "crossbar.operator.calls": calls.get("crossbar.operator", 0),
        "crossbar.operator.live_frac": ratio(
            counts.get("crossbar.operator.live", 0),
            counts.get("crossbar.operator.logical", 0),
        ),
        "crossbar.sharding.self_s": self_s.get("crossbar.sharding", 0.0),
        "crossbar.sharding.dispatches": calls.get("crossbar.sharding", 0),
        "crossbar.sharding.windows": counts.get("crossbar.sharding.windows", 0),
        "crossbar.sharding.imbalance": ratio(heaviest, mean),
        "crossbar.sharding.advance_s": self_s.get("crossbar.sharding.advance", 0.0),
        "crossbar.sharding.advance_calls": calls.get("crossbar.sharding.advance", 0),
        "crossbar.maintenance.self_s": self_s.get("crossbar.maintenance", 0.0),
        "crossbar.maintenance.sweeps": counts.get("crossbar.maintenance.sweeps", 0),
        "crossbar.maintenance.probes": counts.get("crossbar.maintenance.probes", 0),
        "crossbar.maintenance.pulses": counts.get("crossbar.maintenance.pulses", 0),
        "signal.amp.self_s": self_s.get("signal.amp", 0.0),
        "signal.amp.sweeps": counts.get("signal.amp.sweeps", 0),
        "signal.amp.active_frac": ratio(
            counts.get("signal.amp.active", 0), counts.get("signal.amp.capacity", 0)
        ),
        "serving.self_s": self_s.get("serving", 0.0),
        "serving.blocks": counts.get("serving.blocks", 0),
        "serving.block_fill": ratio(
            counts.get("serving.columns", 0), counts.get("serving.capacity", 0)
        ),
        "serving.queue_wait_ms": ratio(counts.get("serving.queue_wait_s", 0.0), served)
        * 1e3,
        "serving.maintenance_busy_s": counts.get("serving.maintenance_busy_s", 0.0),
        "serving.failed": failed,
        "trace.overhead_frac": overhead_frac,
        "trace.unattributed_frac": ratio(timed_s - attributed, timed_s),
        "setup.crossbar.programming.self_s": setup_self.get(
            "crossbar.programming", 0.0
        ),
        "setup.workloads.self_s": setup_self.get("workloads", 0.0),
    }
