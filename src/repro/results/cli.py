"""Command line for the experiment store.

Usage::

    python -m repro.results runs                    # list recorded runs
    python -m repro.results rebuild                 # *.txt from the DB
    python -m repro.results rebuild --check         # CI byte-identity gate
    python -m repro.results trend -o trend.txt      # cross-PR trend report
    python -m repro.results diff --baseline DB      # CI regression gate
    python -m repro.results snapshot -o baseline.db # prune to latest runs

All subcommands take ``--db`` (default: ``$REPRO_RESULTS_DB`` or
``<results dir>/results.db``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.results.queries import DataProvider
from repro.results.report_builder import history_diff, rebuild_reports, trend_report
from repro.results.store import ResultsStore, default_db_path, results_dir

__all__ = ["main"]


def _provider(db: str | None) -> DataProvider:
    path = Path(db) if db else default_db_path()
    if not path.exists():
        print(f"no results DB at {path}", file=sys.stderr)
        raise SystemExit(2)
    return DataProvider(path)


def _cmd_runs(args) -> int:
    provider = _provider(args.db)
    names = provider.run_names()
    if not names:
        print("no recorded runs")
        return 0
    width = max(len(name) for name in names)
    for name in names:
        runs = provider.runs(name)
        latest = runs[-1]
        sha = (latest.git_sha or "-")[:12]
        print(
            f"{name.ljust(width)}  {latest.kind:7s}  {len(runs):3d} run(s)  "
            f"latest {latest.created_at}  {sha}"
        )
    return 0


def _cmd_rebuild(args) -> int:
    provider = _provider(args.db)
    out_dir = Path(args.out) if args.out else results_dir()
    texts = rebuild_reports(provider, args.names or None)
    if not texts:
        print("no persisted report documents to rebuild", file=sys.stderr)
        return 2
    failures = []
    for name in sorted(texts):
        rebuilt = texts[name] + "\n"
        target = out_dir / f"{name}.txt"
        if args.check:
            if not target.exists():
                print(f"  skip  {target} (no file on disk)")
                continue
            if target.read_text() == rebuilt:
                print(f"  ok    {target}")
            else:
                print(f"  DIFF  {target}")
                failures.append(name)
        else:
            out_dir.mkdir(parents=True, exist_ok=True)
            target.write_text(rebuilt)
            print(f"  wrote {target}")
    if failures:
        print(
            f"{len(failures)} report(s) differ from the DB regeneration: "
            + ", ".join(failures),
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_trend(args) -> int:
    provider = _provider(args.db)
    text = trend_report(provider).render()
    print(text)
    if args.out:
        target = Path(args.out)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text + "\n")
        print(f"[written to {target}]")
    return 0


def _cmd_diff(args) -> int:
    current = _provider(args.db)
    baseline_path = Path(args.baseline)
    if not baseline_path.exists():
        print(f"no baseline DB at {baseline_path}", file=sys.stderr)
        return 2
    baseline = DataProvider(baseline_path)
    regressions = history_diff(current, baseline, args.names or None)
    if not regressions:
        print("history diff clean: no gated metric regressed vs baseline")
        return 0
    print(f"{len(regressions)} gated metric(s) regressed vs baseline:")
    for regression in regressions:
        print(f"  {regression.describe()}")
    return 1


def _cmd_snapshot(args) -> int:
    provider = _provider(args.db)
    names = args.names or provider.run_names()
    unknown = sorted(set(names) - set(provider.run_names()))
    if unknown:
        print(f"unknown run name(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    target_path = Path(args.out)
    if target_path.exists():
        target_path.unlink()
    target = ResultsStore(target_path)
    copied = 0
    for name in names:
        run = provider.latest_run(name)
        if args.all:
            selected = provider.runs(name)
        else:
            selected = [run]
        for run in selected:
            target.record_run(
                run.name,
                run.kind,
                config=run.config,
                metrics=provider.metrics(run.id),
                gates={
                    gate.metric: (gate.direction, gate.rel_tol or 0.0)
                    for gate in provider.gates(run.id)
                },
                document=provider.document(run.id),
                created_at=run.created_at,
                git_sha=run.git_sha,
            )
            copied += 1
    target.close()
    print(f"snapshot: {copied} run(s) -> {target_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.results",
        description="Query and rebuild results from the experiment store.",
    )
    parser.add_argument(
        "--db", default=None, help="results DB path (default: resolver)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("runs", help="list recorded runs")

    rebuild = sub.add_parser(
        "rebuild", help="regenerate report .txt files from the DB"
    )
    rebuild.add_argument("names", nargs="*", help="run names (default: all)")
    rebuild.add_argument(
        "-o", "--out", default=None, help="output dir (default: results dir)"
    )
    rebuild.add_argument(
        "--check",
        action="store_true",
        help="compare against files on disk instead of writing (CI gate)",
    )

    trend = sub.add_parser("trend", help="cross-PR trend report")
    trend.add_argument("-o", "--out", default=None, help="also write to this file")

    diff = sub.add_parser(
        "diff", help="fail when a gated metric regressed vs a baseline DB"
    )
    diff.add_argument("--baseline", required=True, help="baseline DB path")
    diff.add_argument("names", nargs="*", help="run names (default: all gated)")

    snapshot = sub.add_parser(
        "snapshot", help="write a pruned baseline snapshot of the DB"
    )
    snapshot.add_argument("names", nargs="*", help="run names (default: all)")
    snapshot.add_argument("-o", "--out", required=True, help="snapshot DB path")
    snapshot.add_argument(
        "--all",
        action="store_true",
        help="keep full history instead of the latest run per name",
    )

    args = parser.parse_args(argv)
    handler = {
        "runs": _cmd_runs,
        "rebuild": _cmd_rebuild,
        "trend": _cmd_trend,
        "diff": _cmd_diff,
        "snapshot": _cmd_snapshot,
    }[args.command]
    return handler(args)
