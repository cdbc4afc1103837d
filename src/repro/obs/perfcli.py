"""Command-line entry point: ``repro-perf``.

Reads the durable run ledger (:mod:`repro.obs.ledger`) back out and
gates per-layer performance on the repository benchmark (``bench/``).
Subcommands:

* ``history`` — tidy, pandas-free table of ledger rows (newest first),
  filterable by backend/kernel;
* ``diff RUN_A RUN_B`` — per-phase and per-metric deltas between two
  recorded runs (run-id prefixes are accepted);
* ``regress BASELINE FRESH [--tolerance PCT]`` — compare two traced
  ``bench/run.py --trace 1 --out`` documents workload by workload and
  exit non-zero when any layer's self time (``*.self_s``) grew past the
  tolerance; the committed ``bench_baseline.json`` is CI's baseline;
* ``prune --keep-last N`` / ``--before DATE`` — trim old run rows (and
  the terminal claim/job rows that accompanied them) so the default-on
  ledger does not grow without bound; ``--dry-run`` reports what would
  go without deleting anything.

The ledger path resolves ``--ledger`` > ``$REPRO_LEDGER`` >
``.repro_ledger.sqlite`` (the CLIs' default-on database).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

from .ledger import DEFAULT_LEDGER, LEDGER_ENV, RunLedger

#: Layers whose baseline self time is below this floor are reported but
#: never gated: at sub-50ms scale scheduler noise dominates any signal.
MIN_GATE_SECONDS = 0.05


def _resolve_ledger_path(flag: Optional[str]) -> str:
    """``--ledger`` > ``$REPRO_LEDGER`` > the conventional default."""
    if flag:
        return flag
    env = os.environ.get(LEDGER_ENV)
    if env:
        return env
    return DEFAULT_LEDGER


def _open_ledger(flag: Optional[str]) -> Optional[RunLedger]:
    """Open the resolved ledger for reading; None (with a complaint)
    when the database file does not exist yet."""
    path = _resolve_ledger_path(flag)
    if not os.path.exists(path):
        print(
            f"no ledger at {path} (set --ledger, $REPRO_LEDGER, or run "
            f"repro-experiments first)",
            file=sys.stderr,
        )
        return None
    return RunLedger(path)


# ---- history ----------------------------------------------------------------


def _fmt_when(stamp: Optional[float]) -> str:
    if not stamp:
        return "-"
    return datetime.datetime.fromtimestamp(stamp).strftime("%Y-%m-%d %H:%M:%S")


def history_table(rows: List[dict]) -> str:
    """The ``repro-perf history`` table for decoded ledger rows."""
    # Imported lazily to keep repro.obs free of harness imports at
    # module level (the harness imports this package).
    from ..harness.reporting import render_table

    table_rows = []
    for row in rows:
        table_rows.append([
            (row["run_id"] or "")[:12],
            _fmt_when(row["created_at"]),
            row["kernel"] or "-",
            row["config"] or "-",
            row["backend"] or "-",
            row["engine_core"] or "-",
            row["cache"] or "-",
            row["records"] if row["records"] is not None else "-",
            row["cycles"] if row["cycles"] is not None else "-",
            f"{row['wall_seconds']:.3f}" if row["wall_seconds"] is not None
            else "-",
        ])
    return render_table(
        ["run id", "when", "kernel", "config", "backend", "core",
         "cache", "records", "cycles", "wall s"],
        table_rows,
        title="run ledger (newest first)",
        align_left=(0, 1, 2, 3, 4, 5, 6),
    )


def _history(args: argparse.Namespace) -> int:
    ledger = _open_ledger(args.ledger)
    if ledger is None:
        return 2
    rows = ledger.rows(
        limit=args.limit, backend=args.backend, kernel=args.kernel
    )
    if not rows:
        print("ledger is empty (no matching runs)")
        return 0
    print(history_table(rows))
    print(f"\n{len(rows)} row(s) shown from {ledger.path}")
    return 0


# ---- diff -------------------------------------------------------------------


def _delta_rows(
    a: Dict[str, float], b: Dict[str, float]
) -> List[Tuple[str, float, float, float]]:
    """(key, a, b, delta) for the union of two numeric dicts, sorted."""
    rows = []
    for key in sorted(set(a) | set(b)):
        va, vb = float(a.get(key, 0.0)), float(b.get(key, 0.0))
        rows.append((key, va, vb, vb - va))
    return rows


def diff_report(row_a: dict, row_b: dict) -> str:
    """Human-readable phase/metric comparison of two ledger rows."""
    lines = [
        f"run diff: {row_a['run_id'][:12]} -> {row_b['run_id'][:12]}",
        f"  point : {row_a['kernel']}|{row_a['config']}"
        f" ({row_a['backend']}/{row_a['engine_core']})"
        f" -> {row_b['kernel']}|{row_b['config']}"
        f" ({row_b['backend']}/{row_b['engine_core']})",
        f"  cycles: {row_a['cycles']} -> {row_b['cycles']}"
        f" ({(row_b['cycles'] or 0) - (row_a['cycles'] or 0):+d})",
        f"  wall  : {row_a['wall_seconds']:.3f}s -> "
        f"{row_b['wall_seconds']:.3f}s",
    ]
    phases_a = row_a.get("phases") or {}
    phases_b = row_b.get("phases") or {}
    if phases_a or phases_b:
        lines.append("  phase seconds:")
        for key, va, vb, delta in _delta_rows(phases_a, phases_b):
            lines.append(
                f"    {key:<15} {va:9.4f} -> {vb:9.4f}  ({delta:+.4f})"
            )
    metrics_a = row_a.get("metrics") or {}
    metrics_b = row_b.get("metrics") or {}
    numeric_a = {k: v for k, v in metrics_a.items()
                 if isinstance(v, (int, float))}
    numeric_b = {k: v for k, v in metrics_b.items()
                 if isinstance(v, (int, float))}
    changed = [
        row for row in _delta_rows(numeric_a, numeric_b) if row[3] != 0.0
    ]
    if changed:
        lines.append("  metrics (changed only):")
        for key, va, vb, delta in changed:
            lines.append(
                f"    {key:<28} {va:12g} -> {vb:12g}  ({delta:+g})"
            )
    else:
        lines.append("  metrics: identical")
    return "\n".join(lines)


def _diff(args: argparse.Namespace) -> int:
    ledger = _open_ledger(args.ledger)
    if ledger is None:
        return 2
    rows = []
    for prefix in (args.run_a, args.run_b):
        try:
            row = ledger.find(prefix)
        except LookupError as exc:
            print(exc, file=sys.stderr)
            return 2
        if row is None:
            print(f"no ledger row matches {prefix!r}", file=sys.stderr)
            return 2
        rows.append(row)
    print(diff_report(rows[0], rows[1]))
    return 0


# ---- regress ----------------------------------------------------------------


def _load_bench_document(path: str) -> dict:
    """A traced ``bench/run.py --out`` document with no failed operation.

    Raises :class:`ValueError` saying what is wrong: the file cannot be
    read, the run was not traced (it holds no layer times), or some
    operation failed (its times measure a broken program).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    if not (isinstance(doc, dict) and doc.get("trace")
            and isinstance(doc.get("workloads"), dict)):
        raise ValueError(
            f"{path} is not a traced bench document "
            f"(write one with: python3 bench/run.py --trace 1 --out FILE)"
        )
    if doc.get("failed"):
        raise ValueError(
            f"{path} records {doc['failed']} failed operation(s); "
            f"its layer times do not measure a correct run"
        )
    return doc


def compare_reports(
    baseline: dict,
    fresh: dict,
    tolerance_pct: float,
    min_seconds: float = MIN_GATE_SECONDS,
) -> Tuple[List[str], List[str]]:
    """Gate a fresh traced bench document against a baseline one.

    Compares every ``*.self_s`` layer metric of every workload present
    in both documents.  Returns ``(log_lines, regressions)``; a layer
    regresses when its fresh self time exceeds baseline × (1 +
    tolerance/100) *and* the baseline is at least ``min_seconds``
    (sub-noise layers are reported but never gated).
    """
    lines: List[str] = []
    regressions: List[str] = []
    base_loads, fresh_loads = baseline["workloads"], fresh["workloads"]
    factor = 1.0 + tolerance_pct / 100.0
    compared = 0
    for workload, base_doc in base_loads.items():
        if workload not in fresh_loads:
            lines.append(f"  note: {workload} is not in the fresh document")
            continue
        fresh_metrics = fresh_loads[workload].get("metrics") or {}
        for layer, base in (base_doc.get("metrics") or {}).items():
            if not layer.endswith(".self_s") or layer not in fresh_metrics:
                continue
            compared += 1
            base, now = float(base), float(fresh_metrics[layer])
            ratio = now / base if base > 0 else float("inf")
            verdict = "ok"
            if base < min_seconds:
                verdict = "skipped (baseline below noise floor)"
            elif now > base * factor:
                verdict = "REGRESSION"
                regressions.append(
                    f"{workload} {layer}: {now:.3f}s vs baseline "
                    f"{base:.3f}s ({ratio:.2f}x > {factor:.2f}x allowed)"
                )
            lines.append(
                f"  {workload:<13} {layer:<20} baseline {base:8.3f}s  "
                f"fresh {now:8.3f}s  {ratio:6.2f}x  {verdict}"
            )
    if not compared:
        regressions.append(
            "no comparable layers between baseline and fresh document"
        )
    for key in ("seed", "engine_core"):
        if baseline.get(key) != fresh.get(key):
            lines.append(
                f"  note: {key} differs (baseline {baseline.get(key)!r}, "
                f"fresh {fresh.get(key)!r}) — timings may not be comparable"
            )
    return lines, regressions


def _regress(args: argparse.Namespace) -> int:
    try:
        baseline = _load_bench_document(args.baseline)
        fresh = _load_bench_document(args.fresh)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    lines, regressions = compare_reports(
        baseline, fresh, args.tolerance, min_seconds=args.min_seconds
    )
    print(
        f"perf regression gate: {args.fresh} against baseline "
        f"{args.baseline}, tolerance {args.tolerance:g}%"
    )
    for line in lines:
        print(line)
    if regressions:
        print()
        for regression in regressions:
            print(f"REGRESSION: {regression}", file=sys.stderr)
        return 1
    print("no layer regressed past tolerance")
    return 0


# ---- prune ------------------------------------------------------------------


def _parse_before(value: str) -> float:
    """``YYYY-MM-DD`` (or ISO datetime) to a ``time.time()`` stamp."""
    try:
        when = datetime.datetime.fromisoformat(value)
    except ValueError:
        raise ValueError(
            f"--before wants YYYY-MM-DD (or an ISO datetime), got "
            f"{value!r}"
        ) from None
    return when.timestamp()


def _prune(args: argparse.Namespace) -> int:
    if args.keep_last is None and args.before is None:
        print("prune needs --keep-last N and/or --before DATE",
              file=sys.stderr)
        return 2
    try:
        before = None if args.before is None else _parse_before(args.before)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    ledger = _open_ledger(args.ledger)
    if ledger is None:
        return 2
    counts = ledger.prune(
        keep_last=args.keep_last, before=before, dry_run=args.dry_run
    )
    verb = "would prune" if args.dry_run else "pruned"
    print(
        f"{verb} {counts['runs']} run row(s), {counts['points']} point "
        f"row(s), {counts['jobs']} job row(s) from {ledger.path}"
    )
    return 0


# ---- entry point ------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-perf",
        description=(
            "Inspect the durable run ledger and gate per-layer "
            "performance on traced bench/run.py documents."
        ),
    )
    parser.add_argument(
        "--ledger", default=None, metavar="DB",
        help="ledger database (default: $REPRO_LEDGER or "
             f"{DEFAULT_LEDGER})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    history = sub.add_parser(
        "history", help="list recorded runs, newest first"
    )
    history.add_argument(
        "--limit", type=int, default=20, metavar="N",
        help="rows to show (default 20; 0 for all)",
    )
    history.add_argument(
        "--backend", default=None, help="only runs on this backend")
    history.add_argument(
        "--kernel", default=None, help="only runs of this kernel")

    diff = sub.add_parser(
        "diff", help="per-phase / per-metric deltas between two runs"
    )
    diff.add_argument("run_a", help="first run id (prefix accepted)")
    diff.add_argument("run_b", help="second run id (prefix accepted)")

    regress = sub.add_parser(
        "regress",
        help="gate a traced bench/run.py document against a baseline, "
             "layer by layer",
    )
    regress.add_argument(
        "baseline", metavar="BASELINE",
        help="baseline document of python3 bench/run.py --trace 1 --out "
             "(the committed one is bench_baseline.json)",
    )
    regress.add_argument(
        "fresh", metavar="FRESH", help="traced bench document to gate",
    )
    regress.add_argument(
        "--tolerance", type=float, default=25.0, metavar="PCT",
        help="allowed growth of each layer's self time in percent "
             "(default 25)",
    )
    regress.add_argument(
        "--min-seconds", type=float, default=MIN_GATE_SECONDS,
        metavar="S",
        help="layers whose baseline self time is shorter are never gated "
             f"(default {MIN_GATE_SECONDS}s: sub-noise)",
    )

    prune = sub.add_parser(
        "prune",
        help="trim old ledger rows (runs + terminal points/jobs)",
    )
    prune.add_argument(
        "--keep-last", type=int, default=None, metavar="N",
        help="keep only the N newest run rows",
    )
    prune.add_argument(
        "--before", default=None, metavar="DATE",
        help="delete rows created before this date (YYYY-MM-DD or ISO "
             "datetime, local time)",
    )
    prune.add_argument(
        "--dry-run", action="store_true",
        help="report row counts without deleting anything",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "history":
            return _history(args)
        if args.command == "diff":
            return _diff(args)
        if args.command == "prune":
            return _prune(args)
        return _regress(args)
    except BrokenPipeError:  # e.g. `repro-perf history | head`
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
