"""The claim session: one job's point lifecycle against a claim store.

:class:`ClaimSession` is the layer every execution path drives —
``run_points``' consumer loop, the experiment harness's in-context
loop, the service queue's worker threads and the ``repro-worker`` CLI
all speak the same four verbs:

``enqueue``
    insert this job's points as PENDING rows (idempotent — resuming an
    interrupted job adopts the existing rows, finished work included);
``claim``
    atomically take a batch of runnable rows (PENDING, or CLAIMED with
    an expired lease) under this session's worker id + lease deadline;
``complete`` / ``fail``
    guarded terminal transitions carrying the serialized result (or
    the error) — the durable record other workers and restarted
    services adopt; ``run_claimed`` is the in-process consumers' one
    step around them: time a claimed point, then complete or fail it;
``wait_remaining``
    the one serial consumer loop: claim a row, run it, repeat; when
    nothing is claimable, adopt the DONE results other workers
    recorded, surface FAILED rows loudly and poll live foreign leases.

The store is always the sqlite :class:`~repro.obs.ledger.RunLedger`:
the configured ledger file (durable, shared across processes and
hosts), or a private ``:memory:`` database the session owns when no
ledger is configured — one implementation of the state machine either
way.  Sessions renew their lease deadlines from a heartbeat thread, so
long-running points are never reclaimed out from under a live worker;
a *dead* worker stops heartbeating and its claims expire — that is the
whole crash-recovery story.
"""

from __future__ import annotations

import json
import os
import platform
import threading
import time
import uuid
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..obs.ledger import (
    LEDGER,
    POINT_CANCELLED,
    POINT_CLAIMED,
    POINT_DONE,
    POINT_FAILED,
    RunLedger,
)
from ..obs.progress import point_label, progress_state
from ..perf.parallel import JobConstants
from .codec import encode_points, point_fingerprints

#: Default claim lease: generous against slow points (a live worker
#: heartbeats well before this), short enough that a crashed worker's
#: points come back within a couple of minutes.
DEFAULT_LEASE_SECONDS = 120.0


class SweepCancelled(RuntimeError):
    """A sweep stopped because its claims were revoked (job cancel)."""


def default_worker_id() -> str:
    """A worker identity unique across hosts, processes and threads."""
    return (
        f"{platform.node()}:{os.getpid()}:{threading.get_ident()}"
    )


def _label(point) -> str:
    return point_label(point.backend, point.kernel, point.config.name)


class LeaseHeartbeat:
    """A daemon thread renewing one worker's claim leases.

    Every ``lease_seconds / 3`` it pushes the worker's lease deadlines
    forward (``RunLedger.renew_leases``), so points that run longer
    than the lease are never reclaimed out from under a live worker,
    while a dead worker's leases expire.  :class:`ClaimSession` runs one
    from its first claim until it closes; ``repro-worker`` runs one
    while it holds a claimed batch.
    """

    def __init__(
        self,
        store,
        worker_id: str,
        lease_seconds: float,
        job_id: Optional[str] = None,
    ):
        self.store = store
        self.worker_id = worker_id
        self.lease_seconds = float(lease_seconds)
        self.job_id = job_id
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        """Start beating (a no-op while already beating)."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._beat, name="repro-sched-heartbeat", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)

    def _beat(self) -> None:
        # The floor keeps a degenerate lease from spinning on the store.
        interval = max(0.05, self.lease_seconds / 3.0)
        while not self._stop.wait(interval):
            try:
                self.store.renew_leases(
                    self.worker_id, self.lease_seconds, job_id=self.job_id,
                )
            except Exception:
                # A failed heartbeat only risks an early reclaim of
                # still-running points — double work, never wrong
                # results; the guarded complete keeps one winner.
                pass

    def __enter__(self) -> "LeaseHeartbeat":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


class ClaimSession:
    """One job's view of a claim store (see the module docstring)."""

    def __init__(
        self,
        store,
        job_id: Optional[str] = None,
        worker_id: Optional[str] = None,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        cancel_check: Optional[Callable[[], bool]] = None,
        owns_store: bool = False,
    ):
        self.store = store
        self.job_id = job_id or uuid.uuid4().hex
        self.worker_id = worker_id or default_worker_id()
        self.lease_seconds = float(lease_seconds)
        self._cancel_check = cancel_check
        self._owns_store = owns_store
        self._points: List[Any] = []
        #: Built once for the job: the record streams enqueue generates
        #: and each params object's ledger encoding.
        self.constants = JobConstants()
        #: Seqs this session claimed and has not yet completed or failed.
        self._held: Set[int] = set()
        self._heartbeat = LeaseHeartbeat(
            store, self.worker_id, self.lease_seconds, job_id=self.job_id
        )
        self._closed = False

    # ---- enqueue ------------------------------------------------------------

    def enqueue(self, points) -> List[Any]:
        """Insert the job's points; returns fingerprint-filled copies.

        Rows are keyed by content fingerprint (computed here in one
        batch, unless the caller pre-filled it, with the record streams
        kept in :attr:`constants`) and carry a serialized spec any
        worker can rebuild the point from.
        """
        import dataclasses

        points = list(points)
        fingerprints = iter(point_fingerprints(
            [point for point in points if not point.fingerprint],
            self.constants,
        ))
        filled = [
            point if point.fingerprint else dataclasses.replace(
                point, fingerprint=next(fingerprints)
            )
            for point in points
        ]
        rows = [
            {
                "seq": seq,
                "fingerprint": point.fingerprint,
                "label": _label(point),
                "backend": point.backend,
                "spec": json.dumps(doc, sort_keys=True),
            }
            for seq, (point, doc) in enumerate(
                zip(filled, encode_points(filled))
            )
        ]
        self._points = filled
        self.store.enqueue_points(self.job_id, rows)
        return filled

    @property
    def points(self) -> List[Any]:
        """The enqueued points, seq-indexed (after :meth:`enqueue`)."""
        return self._points

    def point(self, seq: int):
        return self._points[seq]

    # ---- claim / transition -------------------------------------------------

    def claim(self, limit: Optional[int] = None) -> List[int]:
        """Claim up to ``limit`` runnable seqs of *this* job."""
        rows = self.store.claim_points(
            self.worker_id, limit=limit,
            lease_seconds=self.lease_seconds, job_id=self.job_id,
        )
        seqs = [row["seq"] for row in rows]
        if seqs:
            self._held.update(seqs)
            if not self._closed:
                self._heartbeat.start()
        return seqs

    def complete(
        self,
        seq: int,
        result,
        wall_seconds: Optional[float] = None,
        cache: Optional[str] = None,
    ) -> bool:
        """Record one finished point, its result serialized on the row."""
        from ..perf.cache import run_result_to_dict

        won = self.store.complete_point(
            self.job_id, seq, self.worker_id,
            result_doc=run_result_to_dict(result),
            wall_seconds=wall_seconds, cache=cache,
        )
        self._held.discard(seq)
        return won

    def fail(self, seq: int, error: str) -> bool:
        won = self.store.fail_point(
            self.job_id, seq, self.worker_id, str(error)
        )
        self._held.discard(seq)
        return won

    def run_claimed(
        self, seq: int, simulate: Callable[[Any], Tuple[Any, str]]
    ) -> Tuple[Any, float]:
        """Run one claimed seq and record its end; (result, seconds).

        ``simulate(point)`` returns the result and its cache verdict.
        The call is timed, and the DONE row carries the seconds and
        the verdict.  A point that raises is FAILED, so sibling workers
        stop waiting on it; an interrupt is not the point's fault, so
        it hands this session's claims back instead, for a resumed
        sweep or a sibling to run fresh.
        """
        started = time.perf_counter()
        try:
            result, verdict = simulate(self._points[seq])
        except (KeyboardInterrupt, SystemExit):
            self.release()
            raise
        except BaseException as exc:
            self.fail(seq, f"{type(exc).__name__}: {exc}")
            raise
        seconds = time.perf_counter() - started
        self.complete(seq, result, wall_seconds=seconds, cache=verdict)
        return result, seconds

    def release(self) -> int:
        """Hand this session's unfinished claims back to PENDING."""
        released = self.store.release_points(self.worker_id, self.job_id)
        self._held.clear()
        return released

    def revoke_pending(self) -> int:
        return self.store.revoke_pending(self.job_id)

    # ---- cancellation -------------------------------------------------------

    def cancelled(self) -> bool:
        return bool(self._cancel_check and self._cancel_check())

    def raise_if_cancelled(self) -> None:
        """Release claims, revoke pending rows, raise SweepCancelled."""
        if not self.cancelled():
            return
        self.release()
        revoked = self.revoke_pending()
        counts = self.store.point_counts(self.job_id)
        done = counts.get(POINT_DONE, 0)
        total = sum(counts.values())
        raise SweepCancelled(
            f"cancelled after {done} of {total} point(s) "
            f"({revoked} revoked)"
        )

    # ---- the consumer loop --------------------------------------------------

    def payload_from_row(self, row: Dict[str, Any]):
        """The result a DONE claim row carries, deserialized."""
        from ..perf.cache import run_result_from_dict

        return run_result_from_dict(json.loads(row["result"]))

    def wait_remaining(
        self,
        payloads: Dict[int, Any],
        runner: Callable[[int], Any],
        poll_seconds: float = 0.05,
        on_adopted: Optional[Callable[[int, Dict[str, Any]], None]] = None,
    ) -> None:
        """Fill ``payloads`` with every seq of the job: the consumer loop.

        Claims one row at a time and runs it (``runner(seq)`` must
        complete the row and return the payload), so concurrent
        claimers interleave at point granularity and expired foreign
        leases are reclaimed like PENDING rows.  Only when nothing is
        claimable does it read the job's rows: DONE rows another worker
        finished are adopted (the stored result deserialized, never
        re-run), FAILED or revoked rows raise, and live foreign leases
        are polled until they resolve or expire.
        """
        total = len(self._points)
        while len(payloads) < total:
            self.raise_if_cancelled()
            claimed = self.claim(limit=1)
            if claimed:
                payloads[claimed[0]] = runner(claimed[0])
                continue
            rows = {
                row["seq"]: row
                for row in self.store.point_rows(
                    self.job_id, with_result=True
                )
            }
            progressed = False
            for seq in range(total):
                if seq in payloads:
                    continue
                row = rows.get(seq)
                if row is None:
                    raise RuntimeError(
                        f"point {seq} of job {self.job_id} is missing "
                        "from the claim store"
                    )
                if row["status"] == POINT_DONE:
                    payloads[seq] = self.payload_from_row(row)
                    if on_adopted is not None:
                        on_adopted(seq, row)
                    progressed = True
                elif row["status"] == POINT_FAILED:
                    raise RuntimeError(
                        f"point {row.get('label') or seq} failed on "
                        f"worker {row.get('worker')!r}: {row.get('error')}"
                    )
                elif row["status"] == POINT_CANCELLED:
                    raise SweepCancelled(
                        f"point {row.get('label') or seq} of job "
                        f"{self.job_id} was revoked"
                    )
            if not progressed:
                time.sleep(poll_seconds)

    # ---- accounting ---------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        return self.store.point_counts(self.job_id)

    def cache_verdicts(self) -> Dict[str, int]:
        """Cache-verdict counts over this job's finished rows."""
        counts: Dict[str, int] = {}
        for row in self.store.point_rows(self.job_id):
            verdict = row.get("cache")
            if verdict:
                counts[verdict] = counts.get(verdict, 0) + 1
        return dict(sorted(counts.items()))

    def progress_snapshot(
        self, started_at: Optional[float] = None
    ) -> Dict[str, Any]:
        """This job's progress, read from its claim rows.

        A :func:`~repro.obs.progress.progress_state` snapshot: DONE rows
        are completed, CLAIMED rows in flight, whichever worker holds
        them, so it is correct across N queue workers, foreign
        claimers and service restarts.  ``started_at`` is the
        wall-clock stamp elapsed time counts from.
        """
        rows = self.store.point_rows(self.job_id)
        completed = sum(1 for r in rows if r["status"] == POINT_DONE)
        in_flight = sorted(
            r["label"] or f"seq {r['seq']}"
            for r in rows if r["status"] == POINT_CLAIMED
        )
        per_backend: Dict[str, int] = {}
        last_point = None
        last_stamp = None
        for row in rows:
            if row["status"] != POINT_DONE:
                continue
            backend = row.get("backend")
            if backend:
                per_backend[backend] = per_backend.get(backend, 0) + 1
            stamp = row.get("finished_at")
            if stamp is not None and (
                last_stamp is None or stamp >= last_stamp
            ):
                last_stamp = stamp
                last_point = row.get("label")
        return progress_state(
            completed, len(rows), in_flight, started_at, per_backend,
            last_point,
        )

    def close(self, release: bool = True) -> None:
        """Stop the heartbeat, hand back claims, drop an owned store.

        The release is skipped when every claim completed or failed:
        that write would change no row.  The job's constants go too.
        """
        if self._closed:
            return
        self._closed = True
        self._heartbeat.stop()
        self.constants = JobConstants()
        try:
            if release and self._held:
                self.release()
        finally:
            if self._owns_store:
                try:
                    self.store.close()
                except Exception:
                    pass

    def __enter__(self) -> "ClaimSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def session_for_points(
    points,
    job_id: Optional[str] = None,
    cancel_check: Optional[Callable[[], bool]] = None,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
) -> ClaimSession:
    """The right session for a point batch: durable when a ledger is.

    The store is the first explicit ``ledger_path`` the points carry,
    else the process-wide :data:`LEDGER`'s database when enabled, else
    a private ``:memory:`` ledger (identical SQL, zero durability).
    """
    path = next(
        (p.ledger_path for p in points if p.ledger_path is not None), None
    )
    if path is None and LEDGER.enabled:
        path = LEDGER.path
    return ClaimSession(
        RunLedger(":memory:" if path is None else path), job_id=job_id,
        cancel_check=cancel_check, lease_seconds=lease_seconds,
        owns_store=True,
    )


__all__ = [
    "DEFAULT_LEASE_SECONDS",
    "ClaimSession",
    "LeaseHeartbeat",
    "SweepCancelled",
    "default_worker_id",
    "session_for_points",
]
