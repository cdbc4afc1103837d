"""The service job queue: run IDs, worker threads, restartable jobs.

:class:`JobQueue` is the layer between the HTTP API and the scheduler
(:mod:`repro.sched`).  A submission (:class:`~repro.service.spec.SweepSpec`)
becomes a :class:`Job` with a queue-assigned id; ``workers`` background
threads drain the queue (``repro-serve --workers N``), each running its
job as a claim consumer: the job's
:class:`~repro.perf.parallel.SweepPoint` batch becomes PENDING rows of
the claim table — in the durable ledger when one is configured, else
in a private ``:memory:`` ledger — and
:func:`~repro.perf.parallel.run_points` claims, dispatches, and records
them under a :class:`~repro.sched.ClaimSession` wired to the job's
cancel event.  Every DONE row carries its cache verdict, whether a
queue thread or an external ``repro-worker`` ran it, so a job's cache
counts are read from its own claim rows
(:meth:`~repro.sched.ClaimSession.cache_verdicts`) and never mix in a
concurrent job's traffic.

The ledger being the source of truth is what makes jobs *restartable*:
job rows (spec + lifecycle state) and point rows (per-point claims and
results) both live in the database, so a restarted server re-adopts
unfinished jobs on :meth:`JobQueue.start` — DONE points are taken as-is
from their stored results, PENDING and expired-CLAIMED points are
re-claimed and run, and the job completes as if the crash never
happened.  For the same reason an external ``repro-worker`` process
attached to the same ledger can shard a running job's points with the
service's own workers.

Job lifecycle state machine::

    QUEUED ──▶ RUNNING ──▶ DONE
       │          ├──────▶ FAILED
       └──────────┴──────▶ CANCELLED

* ``QUEUED -> CANCELLED``: a ``DELETE`` before a worker picks the
  job up; nothing ever simulates.
* ``RUNNING -> CANCELLED``: the cancel event is a claim-revocation
  trigger — the session releases its claims, revokes the job's
  remaining PENDING rows (so no other worker picks them up), and the
  sweep stops at the next point boundary.  Points already simulated
  stay in the run cache (a resubmission replays them) but the job
  serves no results.
* Terminal states never transition again; cancelling a terminal job
  is a no-op returning False.

``workers`` controls how many jobs run concurrently; the points of one
job run one at a time on its thread, unless ``repro-worker`` processes
on the same ledger claim some of them.  Repeat submissions of an
identical spec remain the cheap path: every point hits the on-disk run
cache, so the "sweep" collapses into ledger-recorded replays.
"""

from __future__ import annotations

import json
import os
import platform
import queue
import threading
import time
import uuid
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from ..obs.ledger import RunLedger, ledger_to
from ..obs.metrics import METRICS
from ..perf.parallel import run_points
from ..sched import ClaimSession, SweepCancelled
from .spec import SweepSpec, point_rows, result_row


class JobState:
    """Lifecycle states (plain strings — they serialize as-is)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    #: States a job never leaves.
    TERMINAL = (DONE, FAILED, CANCELLED)


class Job:
    """One submission's mutable record (guarded by the queue's lock)."""

    def __init__(self, job_id: str, spec: SweepSpec,
                 submitted_at: Optional[float] = None):
        self.job_id = job_id
        self.spec = spec
        self.spec_fingerprint = spec.fingerprint()
        self.state = JobState.QUEUED
        self.submitted_at = (
            time.time() if submitted_at is None else submitted_at
        )
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.error: Optional[str] = None
        self.cancel_event = threading.Event()
        self.points_total = 0
        self.skipped: List[Tuple[str, str]] = []
        #: final progress snapshot (live snapshots come from the session)
        self.progress: Optional[dict] = None
        #: deterministic results payload, set only on DONE
        self.results: Optional[dict] = None
        #: cache-verdict counts for this job's points
        self.cache_counts: Dict[str, int] = {}
        #: the live claim session while RUNNING (None otherwise)
        self.session: Optional[ClaimSession] = None
        #: True when this Job was re-adopted from the ledger on restart
        self.adopted = False


class JobQueue:
    """Accepts sweep specs, runs them on worker threads, serves state.

    ``cache_dir`` is the shared on-disk run cache every job's points
    consult (the cache-hit fast path for repeat submissions);
    ``ledger_path`` the durable ledger database each job's points,
    claim rows and lifecycle records land in; ``workers`` the number
    of queue worker threads (concurrent jobs).
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        ledger_path: Optional[str] = None,
        workers: int = 1,
    ):
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.ledger_path = (
            str(ledger_path) if ledger_path is not None else None
        )
        self.workers = max(1, int(workers))
        self.started_at = time.time()
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self._ledger = (
            RunLedger(self.ledger_path)
            if self.ledger_path is not None else None
        )
        self._recovered = False
        # The ledger scope is process-wide; with N workers it is
        # entered once by the first running job and left by the last
        # (:meth:`_ledger_scope`).
        self._scope_lock = threading.Lock()
        self._scope_depth = 0
        self._scope = None

    # ---- lifecycle ----------------------------------------------------------

    def start(self) -> "JobQueue":
        """Start the worker threads (idempotent); adopt unfinished jobs.

        With a ledger configured, the first start re-enqueues every
        job the database still records as QUEUED or RUNNING — the
        restart-resume path: their claim rows are still there, so DONE
        points replay from their stored results and only the remainder
        simulates.
        """
        self._recover()
        self._stop.clear()
        self._threads = [t for t in self._threads if t.is_alive()]
        for index in range(len(self._threads), self.workers):
            thread = threading.Thread(
                target=self._work,
                name=f"repro-service-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def shutdown(self, wait: bool = True, timeout: float = 30.0) -> None:
        """Stop draining the queue; optionally join the workers."""
        self._stop.set()
        for _ in range(max(1, len(self._threads))):
            self._queue.put(None)  # wake blocked workers
        if wait:
            deadline = time.monotonic() + timeout
            for thread in self._threads:
                if thread.is_alive():
                    thread.join(
                        timeout=max(0.0, deadline - time.monotonic())
                    )

    def _recover(self) -> None:
        """Re-adopt QUEUED/RUNNING jobs from the ledger (once)."""
        if self._ledger is None or self._recovered:
            self._recovered = True
            return
        self._recovered = True
        try:
            rows = self._ledger.job_rows(
                states=(JobState.QUEUED, JobState.RUNNING)
            )
        except Exception:
            return
        for row in rows:
            try:
                spec = SweepSpec.from_dict(json.loads(row["spec"]))
            except (ValueError, TypeError, KeyError):
                continue  # unparseable legacy row: leave it be
            job = Job(
                row["job_id"], spec, submitted_at=row.get("submitted_at")
            )
            job.adopted = True
            with self._lock:
                if job.job_id in self._jobs:
                    continue
                self._jobs[job.job_id] = job
            self._persist(job)
            self._queue.put(job.job_id)
            if METRICS.enabled:
                METRICS.inc("service.jobs.adopted")

    # ---- submission / control ----------------------------------------------

    def submit(self, spec: SweepSpec) -> Job:
        """Enqueue one sweep; returns its :class:`Job` immediately."""
        job = Job(uuid.uuid4().hex, spec)
        with self._lock:
            self._jobs[job.job_id] = job
        self._persist(job)
        self._queue.put(job.job_id)
        if METRICS.enabled:
            METRICS.inc("service.jobs.submitted")
        return job

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; True if the job was still cancellable.

        A queued job is cancelled on the spot; a running job's cancel
        event revokes its claims at the next point boundary.  Terminal
        jobs return False.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(job_id)
            if job.state in JobState.TERMINAL:
                return False
            job.cancel_event.set()
            if job.state == JobState.QUEUED:
                self._finish(job, JobState.CANCELLED)
        self._persist(job)
        if METRICS.enabled:
            METRICS.inc("service.jobs.cancel_requested")
        return True

    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(job_id)
        return job

    def job_ids(self) -> List[str]:
        """Submission order is not preserved; sort by submit stamp."""
        with self._lock:
            jobs = list(self._jobs.values())
        jobs.sort(key=lambda j: (j.submitted_at, j.job_id))
        return [j.job_id for j in jobs]

    def counts(self) -> Dict[str, int]:
        """Jobs per lifecycle state (the ``/healthz`` summary)."""
        with self._lock:
            jobs = list(self._jobs.values())
        counts: Dict[str, int] = {}
        for job in jobs:
            counts[job.state] = counts.get(job.state, 0) + 1
        return dict(sorted(counts.items()))

    # ---- views --------------------------------------------------------------

    def status(self, job_id: str) -> dict:
        """The ``GET /jobs/{id}`` document for one job.

        While the job runs, ``progress`` is composed from its claim
        session's store — per-point rows with durable claim state — so
        the snapshot is correct even with several jobs running and
        external workers sharding the sweep.  The store is read outside
        the queue lock, so a slow read never holds up submits, cancels
        or the workers.  A job that ends during the read has closed its
        store: the job is read again, as a later call would see it.
        """
        job = self.get(job_id)
        while True:
            with self._lock:
                doc = self._status_doc(job)
                session = (
                    job.session if job.state == JobState.RUNNING else None
                )
            if session is None:
                return doc
            try:
                progress = session.progress_snapshot(doc["started_at"])
            except Exception:
                with self._lock:
                    if job.session is session:
                        raise
                continue
            with self._lock:
                if job.session is session:
                    doc["progress"] = progress
                    return doc

    def _status_doc(self, job: Job) -> dict:
        """The job's fields (caller holds the lock); ``progress`` is the
        final snapshot, None before the job's claim session exists."""
        return {
            "job_id": job.job_id,
            "state": job.state,
            "spec": job.spec.to_dict(),
            "spec_fingerprint": job.spec_fingerprint,
            "submitted_at": job.submitted_at,
            "started_at": job.started_at,
            "finished_at": job.finished_at,
            "duration_seconds": (
                job.finished_at - job.started_at
                if job.finished_at is not None
                and job.started_at is not None else None
            ),
            "points_total": job.points_total,
            "skipped": [list(pair) for pair in job.skipped],
            "error": job.error,
            "progress": job.progress,
            "cache": dict(job.cache_counts),
        }

    def results(self, job_id: str) -> dict:
        """The deterministic results payload of a DONE job.

        Raises :class:`KeyError` for unknown ids and
        :class:`LookupError` while the job is not (or never will be)
        done — the HTTP layer maps these to 404/409.
        """
        job = self.get(job_id)
        with self._lock:
            if job.state != JobState.DONE or job.results is None:
                raise LookupError(
                    f"job {job_id} has no results (state: {job.state})"
                )
            return job.results

    def results_page(self, job_id: str, offset: int = 0) -> dict:
        """One ``GET /jobs/{id}/results?offset=N`` page.

        Streams the completed prefix of a *running* job straight from
        its claim rows (rows are served in point order, so the pages a
        client accumulates concatenate into exactly the final
        ``rows``), and slices the final payload once the job is DONE.
        ``next_offset`` is where the client should poll next;
        ``complete`` tells it when to stop.

        Raises :class:`LookupError` (409) for FAILED/CANCELLED jobs —
        same contract as :meth:`results`.
        """
        if offset < 0:
            raise ValueError(f"offset must be >= 0, got {offset}")
        job = self.get(job_id)
        with self._lock:
            state = job.state
            session = job.session
            if state == JobState.DONE and job.results is not None:
                rows = job.results["rows"]
                page = rows[offset:]
                return {
                    "job_id": job.job_id,
                    "state": state,
                    "total": len(rows),
                    "offset": offset,
                    "next_offset": len(rows),
                    "complete": True,
                    "rows": page,
                }
            if state in JobState.TERMINAL:
                raise LookupError(
                    f"job {job_id} has no results (state: {state})"
                )
            total = job.points_total
        # QUEUED or RUNNING: serve the contiguous done-prefix.
        rows: List[dict] = []
        done_prefix = 0
        if session is not None:
            try:
                point_rows_ = session.store.point_rows(
                    job_id, with_result=True
                )
            except Exception:
                point_rows_ = []
            # A job that ends during this read (outside the lock, as in
            # status()) has closed its store: read the job again.
            with self._lock:
                ended = job.session is not session
            if ended:
                return self.results_page(job_id, offset)
            by_seq = {row["seq"]: row for row in point_rows_}
            while True:
                row = by_seq.get(done_prefix)
                if row is None or row["status"] != "done":
                    break
                done_prefix += 1
                if done_prefix > offset:
                    payload = session.payload_from_row(row)
                    rows.append(result_row(job.spec.backend, payload))
        return {
            "job_id": job.job_id,
            "state": state,
            "total": total,
            "offset": offset,
            "next_offset": max(offset, done_prefix),
            "complete": False,
            "rows": rows,
        }

    # ---- the workers --------------------------------------------------------

    def _work(self) -> None:
        while not self._stop.is_set():
            try:
                job_id = self._queue.get(timeout=0.2)
            except queue.Empty:
                continue
            if job_id is None:  # shutdown sentinel
                continue
            with self._lock:
                job = self._jobs.get(job_id)
                if job is None or job.state != JobState.QUEUED:
                    continue  # cancelled while queued, or stale
                job.state = JobState.RUNNING
                job.started_at = time.time()
            self._persist(job)
            try:
                self._run_job(job)
            except Exception as exc:  # the queue must survive any job
                with self._lock:
                    job.error = f"{type(exc).__name__}: {exc}"
                    job.session = None
                    self._finish(job, JobState.FAILED)
                self._persist(job)

    @contextmanager
    def _ledger_scope(self):
        """Route the process-wide ledger to this queue's, refcounted.

        ``ledger_to`` flips process-wide state; with ``workers > 1`` a
        naive per-job ``with`` would restore it when the *first* job
        finishes, silently disabling the ledger under every job still
        running.  The refcount enters the scope with the first running
        job and exits with the last.
        """
        if self.ledger_path is None:
            yield
            return
        with self._scope_lock:
            self._scope_depth += 1
            if self._scope_depth == 1:
                self._scope = ledger_to(self.ledger_path)
                self._scope.__enter__()
        try:
            yield
        finally:
            with self._scope_lock:
                self._scope_depth -= 1
                if self._scope_depth == 0:
                    self._scope.__exit__(None, None, None)

    def _session_for(self, job: Job) -> ClaimSession:
        worker_id = (
            f"{platform.node()}:{os.getpid()}:"
            f"{threading.current_thread().name}"
        )
        return ClaimSession(
            self._ledger if self._ledger is not None
            else RunLedger(":memory:"),
            job_id=job.job_id,
            worker_id=worker_id,
            cancel_check=lambda: (
                job.cancel_event.is_set() or self._stop.is_set()
            ),
            owns_store=self._ledger is None,
        )

    def _run_job(self, job: Job) -> None:
        points, skipped = job.spec.build_points(
            cache_dir=self.cache_dir, ledger_path=self.ledger_path
        )
        with self._lock:
            job.points_total = len(points)
            job.skipped = skipped
        session = self._session_for(job)
        with self._lock:
            job.session = session
        cancelled: Optional[SweepCancelled] = None
        cache_counts: Dict[str, int] = {}
        snapshot: Optional[dict] = None
        final: Optional[dict] = None
        try:
            with self._ledger_scope():
                try:
                    results = run_points(points, session=session)
                except SweepCancelled as exc:
                    cancelled = exc
            snapshot = session.progress_snapshot(job.started_at)
            try:
                cache_counts = session.cache_verdicts()
            except Exception:
                cache_counts = {}  # accounting must never fail a job
            if cancelled is None:
                final = {
                    "spec_fingerprint": job.spec_fingerprint,
                    "backend": job.spec.backend,
                    "num_points": len(points),
                    "skipped": [list(pair) for pair in skipped],
                    "rows": point_rows(points, results),
                }
        finally:
            # A finished job's end lands before its store closes, so a
            # status() or results_page() read that races the close finds
            # it on the job.  A cancelled one ends after the close has
            # released its claims.
            with self._lock:
                job.progress = snapshot
                job.session = None
                job.cache_counts = cache_counts
                if final is not None:
                    job.results = final
                    self._finish(job, JobState.DONE)
            session.close()
        if cancelled is not None:
            with self._lock:
                job.error = str(cancelled)
                self._finish(job, JobState.CANCELLED)
        self._persist(job)
        if cancelled is None and METRICS.enabled:
            METRICS.inc("service.points.simulated", len(points))
            hits = job.cache_counts.get("hit", 0)
            if hits:
                METRICS.inc("service.cache_hits", hits)

    def _finish(self, job: Job, state: str) -> None:
        """Terminal transition (caller holds the lock)."""
        job.state = state
        job.finished_at = time.time()
        if METRICS.enabled:
            METRICS.inc(f"service.jobs.{state}")

    def _persist(self, job: Job) -> None:
        """Mirror the job's lifecycle row into the ledger (best effort)."""
        if self._ledger is None:
            return
        try:
            self._ledger.upsert_job({
                "job_id": job.job_id,
                "spec": json.dumps(job.spec.to_dict(), sort_keys=True),
                "source": "service",
                "state": job.state,
                "submitted_at": job.submitted_at,
                "started_at": job.started_at,
                "finished_at": job.finished_at,
                "error": job.error,
                "points_total": job.points_total,
            })
        except Exception:
            pass  # lifecycle mirroring must never fail a request


__all__ = ["Job", "JobQueue", "JobState"]
