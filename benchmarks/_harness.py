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
  table (explicit ``metrics=`` entries win).

The results directory resolves through
:func:`repro.results.store.results_dir` — ``REPRO_RESULTS_DIR`` or the
pytest ``--results-dir`` flag redirect everything (text, JSON and DB)
in one move.

The wall-clock benches share two timing helpers: :func:`available_cores`
(the CPUs this process may run on, which picks each bench's speedup
gate) and :func:`best_of` (the fastest of ``repeats`` calls).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

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

__all__ = ["BenchRecorder", "available_cores", "best_of"]


def available_cores() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def best_of(repeats, fn):
    """Fastest wall-clock seconds over ``repeats`` calls of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


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
    ) -> None:
        text, document = _as_document(payload)
        run_metrics: dict = {}
        run_config: dict = {}
        run_gates: dict = {}
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
