"""``repro-worker``: attach to a shared ledger and run claimed points.

The cross-host sharding entry point.  Any process that can reach the
ledger database joins a sweep by claiming PENDING (or expired-CLAIMED)
rows, rebuilding each point from its stored spec, simulating it, and
recording the DONE row — the atomic claim guarantees no fingerprint
runs twice, no matter how many workers attach::

    repro-worker --ledger .repro_ledger.sqlite --exit-idle &
    repro-worker --ledger .repro_ledger.sqlite --exit-idle

By default the worker serves every job in the ledger, oldest first;
``--job ID`` pins it to one job.  ``--exit-idle`` stops when no work
is claimable (batch mode, what CI uses); without it the worker polls
for new rows until interrupted (a resident drain for a service ledger).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from ..obs.ledger import DEFAULT_LEDGER, LEDGER, RunLedger
from .codec import decode_point
from .scheduler import DEFAULT_LEASE_SECONDS, default_worker_id


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-worker",
        description=(
            "Claim and run sweep points from a shared run ledger "
            "(cross-process / cross-host sweep sharding)."
        ),
    )
    parser.add_argument(
        "--ledger", metavar="DB", default=None,
        help="ledger database path (default: $REPRO_LEDGER or "
             f"{DEFAULT_LEDGER})",
    )
    parser.add_argument(
        "--job", metavar="ID", default=None,
        help="only claim points of this job id (default: any job)",
    )
    parser.add_argument(
        "--chunk", type=int, default=1, metavar="N",
        help="points to claim per batch (default: 1 — finest-grained "
             "sharding across workers)",
    )
    parser.add_argument(
        "--lease", type=float, default=DEFAULT_LEASE_SECONDS, metavar="S",
        help="claim lease seconds before a crashed worker's points are "
             f"reclaimable (default: {DEFAULT_LEASE_SECONDS:g})",
    )
    parser.add_argument(
        "--poll", type=float, default=0.5, metavar="S",
        help="seconds between claim attempts when idle (default: 0.5)",
    )
    parser.add_argument(
        "--exit-idle", action="store_true",
        help="exit when no points are claimable instead of polling",
    )
    parser.add_argument(
        "--max-points", type=int, default=None, metavar="N",
        help="stop after running N points (default: unlimited)",
    )
    parser.add_argument(
        "--worker-id", default=None, metavar="NAME",
        help="claim under this worker identity "
             "(default: host:pid:thread)",
    )
    return parser


def worker_main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point for ``repro-worker``; returns an exit code.

    0 when every claimed point completed, 1 when any row was marked
    FAILED (the row's stored error has the details).
    """
    args = _build_parser().parse_args(argv)
    path = args.ledger
    if path is None:
        path = LEDGER.path if LEDGER.enabled else DEFAULT_LEDGER
    worker = args.worker_id or default_worker_id()
    store = RunLedger(path)
    # Point rows route their own durable run records via ledger_path;
    # adopt this ledger for points that predate one being set.
    if not LEDGER.enabled:
        LEDGER.configure(path, mirror_env=False)
    done = 0
    failed = 0
    try:
        while True:
            if args.max_points is not None and done >= args.max_points:
                break
            limit = max(1, args.chunk)
            if args.max_points is not None:
                limit = min(limit, args.max_points - done)
            rows = store.claim_points(
                worker, limit=limit, lease_seconds=args.lease,
                job_id=args.job,
            )
            if not rows:
                if args.exit_idle:
                    break
                time.sleep(max(0.05, args.poll))
                continue
            for row in rows:
                if _run_row(store, worker, row):
                    done += 1
                else:
                    failed += 1
    except KeyboardInterrupt:
        store.release_points(worker)
        print(
            f"repro-worker {worker}: interrupted, claims released",
            file=sys.stderr,
        )
    finally:
        store.close()
    print(
        f"repro-worker {worker}: {done} point(s) done, {failed} failed",
        file=sys.stderr,
    )
    return 0 if failed == 0 else 1


def _run_row(store: RunLedger, worker: str, row: dict) -> bool:
    """Run one claimed row; record DONE/FAILED.  True when DONE."""
    from ..perf.cache import run_result_to_dict
    from ..perf.parallel import simulate_point_meta

    job_id, seq = row["job_id"], row["seq"]
    label = row.get("label") or f"{job_id}:{seq}"
    spec_doc = row.get("spec")
    if not spec_doc:
        store.fail_point(
            job_id, seq, worker,
            "claim row carries no spec document to rebuild the "
            "point from (not enqueued through a ClaimSession?)",
        )
        print(f"fail {label}: no spec document", file=sys.stderr)
        return False
    try:
        point = decode_point(
            json.loads(spec_doc), fingerprint=row.get("fingerprint")
        )
        result, seconds, verdict = simulate_point_meta(point)
    except Exception as exc:
        store.fail_point(job_id, seq, worker, f"{type(exc).__name__}: {exc}")
        print(f"fail {label}: {exc}", file=sys.stderr)
        return False
    store.complete_point(
        job_id, seq, worker, result_doc=run_result_to_dict(result),
        wall_seconds=seconds, cache=verdict,
    )
    print(f"done {label} ({seconds:.3f}s, {verdict})", file=sys.stderr)
    return True


def main() -> None:
    """Console-script shim: exit with :func:`worker_main`'s code."""
    sys.exit(worker_main())


if __name__ == "__main__":  # pragma: no cover
    main()


__all__ = ["main", "worker_main"]
