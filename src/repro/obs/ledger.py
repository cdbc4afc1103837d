"""Durable run ledger: one sqlite row per dispatched simulation point.

The metrics registry and trace recorder observe a single process and
evaporate at exit.  The ledger is the durable complement: every run
that crosses :func:`repro.backends.dispatch` (and every cache hit a
sweep worker replays) appends one row to a sqlite database, so "what
was simulated, where, how long did each phase take, and what did the
metrics say" survives the process — the substrate the service layer's
run IDs and the distributed claim-and-run store build on.

Design points:

* **Near-zero cost when disabled.**  Like
  :data:`~repro.perf.phases.PHASES`, the global :data:`LEDGER` is an
  explicitly-enabled instrument: instrumented sites guard with
  ``if LEDGER.enabled:`` and pay one attribute test when it is off
  (the default).  It turns on when the ``REPRO_LEDGER`` environment
  variable names a database path, or via :meth:`LedgerHandle.configure`
  (the CLIs do this for their ``--ledger`` flags, default-on).
* **Safe for concurrent pool workers.**  The database runs in WAL
  mode with a busy timeout; every process (and thread) appends through
  its own connection in one short autocommitted ``INSERT`` — sqlite
  serializes the writers.  Worker processes inherit ``REPRO_LEDGER``
  through the environment and :class:`~repro.perf.parallel.SweepPoint`
  carries the path explicitly, so fan-out records exactly like the
  serial loop.
* **Self-describing rows.**  Each row carries the run's content
  fingerprint, backend and engine core, kernel/config/params, a
  per-phase timing breakdown, the metrics snapshot from
  ``RunResult.detail`` (JSON, sorted keys — byte-stable), the cache
  verdict (``hit``/``miss``/``uncached``), the sanitizer verdict,
  host/pid/git-SHA provenance and wall seconds.

``repro-perf`` (:mod:`repro.obs.perfcli`) reads the ledger back:
``history`` lists rows, ``diff`` compares the phase/metric columns of
two runs.  The schema is versioned (:data:`LEDGER_SCHEMA`) so the
distributed experiment store can extend it compatibly.
"""

from __future__ import annotations

import getpass
import json
import os
import platform
import sqlite3
import subprocess
import threading
import time
import uuid
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Sequence

from .metrics import METRICS

#: Ledger schema version (bump on incompatible table changes).
LEDGER_SCHEMA = 2

#: Environment variable naming the ledger database path; empty or
#: ``0``/``off``/``none`` (any case) leave the ledger disabled.
LEDGER_ENV = "REPRO_LEDGER"

#: Conventional default database filename (what the CLIs use).
DEFAULT_LEDGER = ".repro_ledger.sqlite"

_DISABLED_VALUES = {"", "0", "off", "none", "disabled"}

_TABLE_SQL = """
CREATE TABLE IF NOT EXISTS runs (
    run_id       TEXT PRIMARY KEY,
    created_at   REAL NOT NULL,
    host         TEXT,
    "user"       TEXT,
    pid          INTEGER,
    git_sha      TEXT,
    backend      TEXT,
    engine_core  TEXT,
    kernel       TEXT,
    config       TEXT,
    records      INTEGER,
    params       TEXT,
    fingerprint  TEXT,
    cache        TEXT,
    sanitizer    TEXT,
    cycles       INTEGER,
    useful_ops   INTEGER,
    wall_seconds REAL,
    phases       TEXT,
    metrics      TEXT
);
CREATE INDEX IF NOT EXISTS runs_created ON runs (created_at);
CREATE INDEX IF NOT EXISTS runs_point ON runs (kernel, config, backend);
CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT);
CREATE TABLE IF NOT EXISTS points (
    job_id       TEXT NOT NULL,
    seq          INTEGER NOT NULL,
    fingerprint  TEXT,
    label        TEXT,
    backend      TEXT,
    status       TEXT NOT NULL DEFAULT 'pending',
    worker       TEXT,
    lease_until  REAL,
    claims       INTEGER NOT NULL DEFAULT 0,
    enqueued_at  REAL,
    finished_at  REAL,
    wall_seconds REAL,
    cache        TEXT,
    error        TEXT,
    spec         TEXT,
    result       TEXT,
    PRIMARY KEY (job_id, seq)
);
CREATE INDEX IF NOT EXISTS points_status ON points (status, job_id);
CREATE INDEX IF NOT EXISTS points_fingerprint ON points (fingerprint);
CREATE TABLE IF NOT EXISTS jobs (
    job_id       TEXT PRIMARY KEY,
    spec         TEXT,
    source       TEXT,
    state        TEXT,
    submitted_at REAL,
    started_at   REAL,
    finished_at  REAL,
    error        TEXT,
    points_total INTEGER
);
"""

#: Point lifecycle states (the claim-and-run state machine).
POINT_PENDING = "pending"
POINT_CLAIMED = "claimed"
POINT_DONE = "done"
POINT_FAILED = "failed"
POINT_CANCELLED = "cancelled"

#: States a point row never leaves.
POINT_TERMINAL = (POINT_DONE, POINT_FAILED, POINT_CANCELLED)

#: Column order of one ``points`` row.
POINT_COLUMNS = (
    "job_id", "seq", "fingerprint", "label", "backend", "status",
    "worker", "lease_until", "claims", "enqueued_at", "finished_at",
    "wall_seconds", "cache", "error", "spec", "result",
)

#: Column order of one ``jobs`` row.
JOB_COLUMNS = (
    "job_id", "spec", "source", "state", "submitted_at", "started_at",
    "finished_at", "error", "points_total",
)

#: Column order of one ``runs`` row (INSERT and SELECT share it).
ROW_COLUMNS = (
    "run_id", "created_at", "host", "user", "pid", "git_sha",
    "backend", "engine_core", "kernel", "config", "records", "params",
    "fingerprint", "cache", "sanitizer", "cycles", "useful_ops",
    "wall_seconds", "phases", "metrics",
)

_GIT_SHA_CACHE: Dict[str, Optional[str]] = {}


def current_git_sha() -> Optional[str]:
    """The working directory's HEAD commit, or None outside a repo.

    Resolved once per (process, cwd) — a subprocess per dispatched
    point would dwarf the insert it annotates.
    """
    cwd = os.getcwd()
    if cwd not in _GIT_SHA_CACHE:
        sha: Optional[str] = None
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=5, cwd=cwd,
            )
            if proc.returncode == 0:
                sha = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
        _GIT_SHA_CACHE[cwd] = sha
    return _GIT_SHA_CACHE[cwd]


def _jsonable(value: Any) -> Any:
    """A JSON-encodable copy: dict keys become strings, odd values reprs.

    Machine parameters carry enum-keyed tables (e.g. per-opcode-class
    latencies); sorted-key JSON needs homogeneous string keys.
    """
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _json_or_none(doc: Optional[Dict[str, Any]]) -> Optional[str]:
    """Sorted-key JSON for a dict column (byte-stable), None passthrough."""
    if doc is None:
        return None
    return json.dumps(_jsonable(doc), sort_keys=True)


#: The lock around every sqlite call a :class:`RunLedger` makes, shared
#: by all of this process's ledgers.  ``fork()`` takes it first, so a
#: pool worker is never forked while another thread is inside sqlite:
#: the child would inherit sqlite's in-process lock state mid-statement
#: and block (busy-wait, or deadlock) on a lock no thread of its own
#: holds.
_SQLITE_LOCK = threading.Lock()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(
        before=_SQLITE_LOCK.acquire,
        after_in_parent=_SQLITE_LOCK.release,
        after_in_child=_SQLITE_LOCK.release,
    )


class RunLedger:
    """Append/read access to one ledger database file.

    Opens lazily, configures WAL mode + a busy timeout, and creates the
    schema on first use.  Instances are safe to share across threads
    (one process-wide lock serializes this process's sqlite calls);
    concurrent *processes* coordinate through sqlite's own WAL locking.
    ``":memory:"`` opens a private in-memory database instead of a file.
    """

    def __init__(self, path: str):
        self.path = str(path)
        self._conn: Optional[sqlite3.Connection] = None
        self._pid = os.getpid()
        self._lock = _SQLITE_LOCK

    def _connect(self) -> sqlite3.Connection:
        """The (per-process) connection, reopened after a fork."""
        if self._conn is None or self._pid != os.getpid():
            parent = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(parent, exist_ok=True)
            conn = sqlite3.connect(
                self.path, timeout=30.0, isolation_level=None,
                check_same_thread=False,
            )
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute("PRAGMA busy_timeout=30000")
            conn.executescript(_TABLE_SQL)
            conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                ("schema", str(LEDGER_SCHEMA)),
            )
            self._conn = conn
            self._pid = os.getpid()
        return self._conn

    def append(self, row: Dict[str, Any]) -> None:
        """Insert one run row (missing columns default to None)."""
        values = tuple(row.get(column) for column in ROW_COLUMNS)
        placeholders = ", ".join("?" for _ in ROW_COLUMNS)
        columns = ", ".join(f'"{c}"' for c in ROW_COLUMNS)
        with self._lock:
            self._connect().execute(
                f"INSERT INTO runs ({columns}) VALUES ({placeholders})",
                values,
            )

    def rows(
        self,
        limit: Optional[int] = None,
        backend: Optional[str] = None,
        kernel: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Run rows as dicts, newest first, JSON columns decoded.

        ``limit`` caps the row count; ``None`` or 0 returns every row.
        """
        query = f'SELECT {", ".join(_quoted(c) for c in ROW_COLUMNS)} FROM runs'
        clauses, args = [], []
        if backend is not None:
            clauses.append("backend = ?")
            args.append(backend)
        if kernel is not None:
            clauses.append("kernel = ?")
            args.append(kernel)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY created_at DESC, run_id"
        if limit:
            query += " LIMIT ?"
            args.append(int(limit))
        with self._lock:
            cursor = self._connect().execute(query, args)
            raw = cursor.fetchall()
        return [self._decode(r) for r in raw]

    def find(self, run_id_prefix: str) -> Optional[Dict[str, Any]]:
        """The unique row whose run_id starts with the prefix, or None.

        Raises :class:`LookupError` naming the candidate run ids when
        the prefix is ambiguous — never silently picks one of them.  An
        exact full-length match always wins (it cannot be a typo for a
        longer id: run ids share one fixed length).
        """
        with self._lock:
            cursor = self._connect().execute(
                f'SELECT {", ".join(_quoted(c) for c in ROW_COLUMNS)} '
                "FROM runs WHERE run_id LIKE ? ORDER BY run_id LIMIT 9",
                (run_id_prefix + "%",),
            )
            raw = cursor.fetchall()
        if not raw:
            return None
        if len(raw) > 1:
            exact = [r for r in raw if r[0] == run_id_prefix]
            if len(exact) == 1:
                return self._decode(exact[0])
            candidates = ", ".join(r[0][:12] for r in raw[:8])
            if len(raw) > 8:
                candidates += ", ..."
            raise LookupError(
                f"run id prefix {run_id_prefix!r} is ambiguous; "
                f"candidates: {candidates} (give more characters)"
            )
        return self._decode(raw[0])

    def count(self) -> int:
        """Total run rows in the ledger."""
        with self._lock:
            cursor = self._connect().execute("SELECT COUNT(*) FROM runs")
            return int(cursor.fetchone()[0])

    def cache_counts(self) -> Dict[str, int]:
        """Run rows per cache verdict (``hit``/``miss``/``uncached``)."""
        with self._lock:
            cursor = self._connect().execute(
                "SELECT cache, COUNT(*) FROM runs GROUP BY cache"
            )
            raw = cursor.fetchall()
        return {
            (verdict if verdict is not None else "unknown"): int(n)
            for verdict, n in raw
        }

    # ---- point claim table (the scheduler's source of truth) ---------------
    #
    # One row per enqueued sweep point, keyed (job_id, seq) and carrying
    # the point's content fingerprint, a serialized SweepPoint ("spec")
    # any worker can rebuild the simulation from, and — once done — the
    # serialized RunResult.  The lifecycle is pending -> claimed ->
    # done/failed, with leases so a crashed worker's claims expire and
    # get re-claimed, and "cancelled" for revoked pending rows.  All
    # transitions are guarded UPDATEs inside one immediate transaction,
    # so two claimers (threads, processes or hosts sharing the database
    # file) can never both win the same row.  A ledger opened on
    # ":memory:" runs the same SQL privately: the scheduler's store
    # when no ledger file is configured.

    @contextmanager
    def _txn(self):
        """One immediate (write-locked) transaction under the lock."""
        with self._lock:
            conn = self._connect()
            conn.execute("BEGIN IMMEDIATE")
            try:
                yield conn
            except BaseException:
                conn.execute("ROLLBACK")
                raise
            conn.execute("COMMIT")

    def enqueue_points(self, job_id: str, rows: List[Dict[str, Any]]) -> int:
        """Insert pending rows for a job; returns how many were new.

        ``INSERT OR IGNORE`` keyed on (job_id, seq) makes enqueueing
        idempotent: re-enqueueing an interrupted job adopts the
        existing rows (done points stay done, pending points stay
        claimable) instead of double-scheduling anything.
        """
        now = time.time()
        inserted = 0
        with self._txn() as conn:
            for row in rows:
                cursor = conn.execute(
                    "INSERT OR IGNORE INTO points "
                    "(job_id, seq, fingerprint, label, backend, status, "
                    " claims, enqueued_at, spec) "
                    "VALUES (?, ?, ?, ?, ?, 'pending', 0, ?, ?)",
                    (
                        job_id, int(row["seq"]), row.get("fingerprint"),
                        row.get("label"), row.get("backend"),
                        row.get("enqueued_at", now), row.get("spec"),
                    ),
                )
                inserted += cursor.rowcount
        return inserted

    def claim_points(
        self,
        worker: str,
        limit: Optional[int] = None,
        lease_seconds: float = 120.0,
        job_id: Optional[str] = None,
        now: Optional[float] = None,
    ) -> List[Dict[str, Any]]:
        """Atomically claim up to ``limit`` runnable rows for ``worker``.

        Runnable means PENDING, or CLAIMED with an expired lease (a
        crashed worker's points come back automatically).  Each win is
        a guarded ``UPDATE ... WHERE status='pending' OR (claimed AND
        expired)`` checked by rowcount inside one immediate
        transaction, so concurrent claimers split the table without
        overlap.  Returns the claimed rows (spec included), ordered by
        (enqueued_at, job_id, seq).
        """
        now = time.time() if now is None else now
        guard = (
            "(status = 'pending' OR "
            "(status = 'claimed' AND lease_until IS NOT NULL "
            "AND lease_until < ?))"
        )
        claimed: List[tuple] = []
        with self._txn() as conn:
            query = (
                f"SELECT job_id, seq FROM points WHERE {guard}"
            )
            args: List[Any] = [now]
            if job_id is not None:
                query += " AND job_id = ?"
                args.append(job_id)
            query += " ORDER BY enqueued_at, job_id, seq"
            if limit is not None:
                query += " LIMIT ?"
                args.append(int(limit))
            candidates = conn.execute(query, args).fetchall()
            for jid, seq in candidates:
                cursor = conn.execute(
                    "UPDATE points SET status = 'claimed', worker = ?, "
                    "lease_until = ?, claims = claims + 1 "
                    f"WHERE job_id = ? AND seq = ? AND {guard}",
                    (worker, now + float(lease_seconds), jid, seq, now),
                )
                if cursor.rowcount:
                    claimed.append((jid, seq))
            rows = []
            for jid, seq in claimed:
                raw = conn.execute(
                    f"SELECT {', '.join(POINT_COLUMNS)} FROM points "
                    "WHERE job_id = ? AND seq = ?",
                    (jid, seq),
                ).fetchone()
                rows.append(dict(zip(POINT_COLUMNS, raw)))
        return rows

    def complete_point(
        self,
        job_id: str,
        seq: int,
        worker: str,
        result_doc: Optional[Dict[str, Any]] = None,
        wall_seconds: Optional[float] = None,
        cache: Optional[str] = None,
        now: Optional[float] = None,
    ) -> bool:
        """CLAIMED -> DONE for the worker holding the claim.

        Returns False when the row is no longer this worker's (its
        lease expired and another claimer won it) — the caller's local
        result is still correct, the other worker's row stands.
        """
        now = time.time() if now is None else now
        with self._txn() as conn:
            cursor = conn.execute(
                "UPDATE points SET status = 'done', result = ?, "
                "wall_seconds = ?, cache = ?, finished_at = ?, "
                "lease_until = NULL, error = NULL "
                "WHERE job_id = ? AND seq = ? AND worker = ? "
                "AND status = 'claimed'",
                (
                    _json_or_none(result_doc), wall_seconds, cache, now,
                    job_id, int(seq), worker,
                ),
            )
            return cursor.rowcount == 1

    def fail_point(
        self,
        job_id: str,
        seq: int,
        worker: str,
        error: str,
        now: Optional[float] = None,
    ) -> bool:
        """CLAIMED -> FAILED with the stored error message."""
        now = time.time() if now is None else now
        with self._txn() as conn:
            cursor = conn.execute(
                "UPDATE points SET status = 'failed', error = ?, "
                "finished_at = ?, lease_until = NULL "
                "WHERE job_id = ? AND seq = ? AND worker = ? "
                "AND status = 'claimed'",
                (str(error), now, job_id, int(seq), worker),
            )
            return cursor.rowcount == 1

    def release_points(
        self, worker: str, job_id: Optional[str] = None
    ) -> int:
        """This worker's CLAIMED rows back to PENDING (clean handoff)."""
        query = (
            "UPDATE points SET status = 'pending', worker = NULL, "
            "lease_until = NULL WHERE worker = ? AND status = 'claimed'"
        )
        args: List[Any] = [worker]
        if job_id is not None:
            query += " AND job_id = ?"
            args.append(job_id)
        with self._txn() as conn:
            return conn.execute(query, args).rowcount

    def reclaim_expired(
        self, now: Optional[float] = None, job_id: Optional[str] = None
    ) -> int:
        """Expired CLAIMED rows back to PENDING; returns how many.

        :meth:`claim_points` already treats expired claims as
        claimable; this is the explicit sweep a monitoring loop (or
        ``repro-worker``) runs so progress counts reflect the
        reclamation immediately.
        """
        now = time.time() if now is None else now
        query = (
            "UPDATE points SET status = 'pending', worker = NULL, "
            "lease_until = NULL WHERE status = 'claimed' "
            "AND lease_until IS NOT NULL AND lease_until < ?"
        )
        args: List[Any] = [now]
        if job_id is not None:
            query += " AND job_id = ?"
            args.append(job_id)
        with self._txn() as conn:
            return conn.execute(query, args).rowcount

    def renew_leases(
        self,
        worker: str,
        lease_seconds: float,
        job_id: Optional[str] = None,
        now: Optional[float] = None,
    ) -> int:
        """Heartbeat: push this worker's lease deadlines forward."""
        now = time.time() if now is None else now
        query = (
            "UPDATE points SET lease_until = ? "
            "WHERE worker = ? AND status = 'claimed'"
        )
        args: List[Any] = [now + float(lease_seconds), worker]
        if job_id is not None:
            query += " AND job_id = ?"
            args.append(job_id)
        with self._txn() as conn:
            return conn.execute(query, args).rowcount

    def revoke_pending(self, job_id: str) -> int:
        """PENDING -> CANCELLED for a job (claim revocation on cancel)."""
        with self._txn() as conn:
            return conn.execute(
                "UPDATE points SET status = 'cancelled', "
                "finished_at = ? WHERE job_id = ? AND status = 'pending'",
                (time.time(), job_id),
            ).rowcount

    def point_counts(self, job_id: Optional[str] = None) -> Dict[str, int]:
        """Point rows per status (one job, or the whole table)."""
        query = "SELECT status, COUNT(*) FROM points"
        args: List[Any] = []
        if job_id is not None:
            query += " WHERE job_id = ?"
            args.append(job_id)
        query += " GROUP BY status"
        with self._lock:
            raw = self._connect().execute(query, args).fetchall()
        return {status: int(n) for status, n in raw}

    def point_rows(
        self,
        job_id: str,
        status: Optional[str] = None,
        with_result: bool = False,
    ) -> List[Dict[str, Any]]:
        """One job's point rows in seq order.

        ``with_result=False`` (the default) skips the ``result`` and
        ``spec`` columns — progress snapshots poll this, and dragging
        every serialized RunResult through each poll would swamp it.
        """
        columns = (
            POINT_COLUMNS if with_result
            else tuple(c for c in POINT_COLUMNS
                       if c not in ("result", "spec"))
        )
        query = (
            f"SELECT {', '.join(columns)} FROM points WHERE job_id = ?"
        )
        args: List[Any] = [job_id]
        if status is not None:
            query += " AND status = ?"
            args.append(status)
        query += " ORDER BY seq"
        with self._lock:
            raw = self._connect().execute(query, args).fetchall()
        return [dict(zip(columns, r)) for r in raw]

    # ---- service job persistence -------------------------------------------

    def upsert_job(self, row: Dict[str, Any]) -> None:
        """Insert or replace one service job row (restart adoption)."""
        values = tuple(row.get(c) for c in JOB_COLUMNS)
        with self._txn() as conn:
            conn.execute(
                f"INSERT OR REPLACE INTO jobs ({', '.join(JOB_COLUMNS)}) "
                f"VALUES ({', '.join('?' for _ in JOB_COLUMNS)})",
                values,
            )

    def update_job(self, job_id: str, **fields: Any) -> None:
        """Update named columns of one job row."""
        keys = [k for k in fields if k in JOB_COLUMNS and k != "job_id"]
        if not keys:
            return
        assignments = ", ".join(f"{k} = ?" for k in keys)
        with self._txn() as conn:
            conn.execute(
                f"UPDATE jobs SET {assignments} WHERE job_id = ?",
                [fields[k] for k in keys] + [job_id],
            )

    def job_rows(
        self, states: Optional[Sequence[str]] = None
    ) -> List[Dict[str, Any]]:
        """Service job rows (optionally filtered), oldest first."""
        query = f"SELECT {', '.join(JOB_COLUMNS)} FROM jobs"
        args: List[Any] = []
        if states:
            query += (
                f" WHERE state IN ({', '.join('?' for _ in states)})"
            )
            args.extend(states)
        query += " ORDER BY submitted_at, job_id"
        with self._lock:
            raw = self._connect().execute(query, args).fetchall()
        return [dict(zip(JOB_COLUMNS, r)) for r in raw]

    # ---- retention ----------------------------------------------------------

    def prune(
        self,
        keep_last: Optional[int] = None,
        before: Optional[float] = None,
        dry_run: bool = False,
    ) -> Dict[str, int]:
        """Trim old rows; returns per-table deleted-row counts.

        ``keep_last`` keeps the N newest run rows; ``before`` (a
        ``time.time()`` stamp) deletes runs created earlier.  Given
        both, a run survives only if it is among the N newest *and*
        not older than the cutoff.  Terminal point rows and finished
        job rows older than the effective cutoff are trimmed with the
        runs they accompanied; pending/claimed points are never
        touched (a prune must not eat a live sweep).
        """
        if keep_last is None and before is None:
            raise ValueError("prune needs keep_last and/or before")
        predicates: List[str] = []
        args: List[Any] = []
        if keep_last is not None:
            predicates.append(
                "run_id NOT IN (SELECT run_id FROM runs "
                "ORDER BY created_at DESC, run_id LIMIT ?)"
            )
            args.append(max(0, int(keep_last)))
        if before is not None:
            predicates.append("created_at < ?")
            args.append(float(before))
        run_where = " OR ".join(f"({p})" for p in predicates)
        counts: Dict[str, int] = {}
        with self._txn() as conn:
            # The effective cutoff for the points/jobs tables: the
            # explicit date, or the stamp of the oldest run kept.
            cutoff = before
            if keep_last is not None:
                row = conn.execute(
                    "SELECT MIN(created_at) FROM (SELECT created_at "
                    "FROM runs ORDER BY created_at DESC, run_id "
                    "LIMIT ?)",
                    (max(0, int(keep_last)),),
                ).fetchone()
                if row and row[0] is not None:
                    cutoff = (
                        row[0] if cutoff is None else max(cutoff, row[0])
                    )
            terminal = ", ".join(f"'{s}'" for s in POINT_TERMINAL)
            point_where = (
                f"status IN ({terminal}) AND enqueued_at IS NOT NULL "
                "AND enqueued_at < ?"
            )
            job_where = (
                "state IN ('done', 'failed', 'cancelled') "
                "AND submitted_at IS NOT NULL AND submitted_at < ? "
                "AND job_id NOT IN (SELECT DISTINCT job_id FROM points)"
            )
            if dry_run:
                counts["runs"] = conn.execute(
                    f"SELECT COUNT(*) FROM runs WHERE {run_where}", args
                ).fetchone()[0]
                counts["points"] = counts["jobs"] = 0
                if cutoff is not None:
                    counts["points"] = conn.execute(
                        f"SELECT COUNT(*) FROM points WHERE {point_where}",
                        (cutoff,),
                    ).fetchone()[0]
                    # Count jobs as a real prune would see them: a job
                    # goes when its remaining points would all go too.
                    counts["jobs"] = conn.execute(
                        "SELECT COUNT(*) FROM jobs WHERE "
                        "state IN ('done', 'failed', 'cancelled') "
                        "AND submitted_at IS NOT NULL AND submitted_at < ? "
                        "AND job_id NOT IN (SELECT DISTINCT job_id FROM "
                        f"points WHERE NOT ({point_where}))",
                        (cutoff, cutoff),
                    ).fetchone()[0]
            else:
                counts["runs"] = conn.execute(
                    f"DELETE FROM runs WHERE {run_where}", args
                ).rowcount
                counts["points"] = counts["jobs"] = 0
                if cutoff is not None:
                    counts["points"] = conn.execute(
                        f"DELETE FROM points WHERE {point_where}",
                        (cutoff,),
                    ).rowcount
                    counts["jobs"] = conn.execute(
                        f"DELETE FROM jobs WHERE {job_where}", (cutoff,)
                    ).rowcount
        return counts

    @staticmethod
    def _decode(raw: tuple) -> Dict[str, Any]:
        row = dict(zip(ROW_COLUMNS, raw))
        for column in ("params", "phases", "metrics"):
            if row[column] is not None:
                try:
                    row[column] = json.loads(row[column])
                except (TypeError, ValueError):
                    row[column] = None
        return row

    def close(self) -> None:
        """Close this process's connection (reopens on next use)."""
        with self._lock:
            if self._conn is not None and self._pid == os.getpid():
                self._conn.close()
            self._conn = None


def _quoted(column: str) -> str:
    """Double-quote a column name (``user`` is a sqlite keyword)."""
    return f'"{column}"'


class LedgerHandle:
    """The process-wide ledger switch the hot paths guard on.

    ``LEDGER.enabled`` is the one-attribute-test fast path; when True,
    ``LEDGER.record_run(...)`` appends a row to the configured database.
    Mirrors the path into :data:`LEDGER_ENV` so spawned worker
    processes inherit the configuration.
    """

    __slots__ = ("enabled", "path", "_ledger")

    def __init__(self) -> None:
        self.enabled = False
        self.path: Optional[str] = None
        self._ledger: Optional[RunLedger] = None

    def configure(self, path: Optional[str], mirror_env: bool = True) -> None:
        """Enable the ledger at ``path`` (None/empty disables).

        ``mirror_env`` writes the choice into ``REPRO_LEDGER`` so pool
        workers spawned later land in the same database even when their
        :class:`~repro.perf.parallel.SweepPoint` predates the flag.
        """
        if path is None or str(path).strip().lower() in _DISABLED_VALUES:
            self.disable(mirror_env=mirror_env)
            return
        path = str(path)
        if self._ledger is not None and self._ledger.path != path:
            self._ledger.close()
            self._ledger = None
        self.path = path
        if self._ledger is None:
            self._ledger = RunLedger(path)
        self.enabled = True
        if mirror_env:
            os.environ[LEDGER_ENV] = path

    def disable(self, mirror_env: bool = True) -> None:
        """Turn recording off (the database file is left in place).

        Clears ``path`` as well: a disabled handle must not keep
        pointing at its last database — service jobs scope the ledger
        to short-lived per-job paths, and a stale pointer could be
        re-mirrored into ``REPRO_LEDGER`` after the file is gone.
        """
        self.enabled = False
        self.path = None
        if self._ledger is not None:
            self._ledger.close()
        if mirror_env:
            os.environ.pop(LEDGER_ENV, None)

    @property
    def ledger(self) -> Optional[RunLedger]:
        """The underlying :class:`RunLedger` (None while disabled)."""
        return self._ledger if self.enabled else None

    def record_run(
        self,
        result,
        backend: str,
        engine_core: str,
        wall_seconds: float,
        params=None,
        fingerprint: Optional[str] = None,
        cache: str = "uncached",
        phases: Optional[Dict[str, float]] = None,
    ) -> Optional[str]:
        """Append one row for a finished run; returns its run id.

        ``result`` is a :class:`~repro.machine.stats.RunResult`; its
        ``detail`` dict *is* the per-run metrics snapshot (the memory
        hierarchy's traffic summary plus backend diagnostics), stored
        as sorted-key JSON.  Failures to reach the database (sqlite
        errors, or an unusable path) degrade to a dropped row, counted
        as ``ledger.dropped_rows`` when metrics are on, never an error —
        observability must not take down the simulation it observes.
        """
        if not self.enabled or self._ledger is None:
            return None
        # Imported lazily: repro.check imports repro.obs back.
        from ..check.sanitizer import SANITIZER

        if SANITIZER.enabled:
            verdict = (
                f"violations:{SANITIZER.total}" if SANITIZER.total else "ok"
            )
        else:
            verdict = "off"
        params_doc = None
        if params is not None:
            import dataclasses

            try:
                params_doc = dataclasses.asdict(params)
            except TypeError:
                params_doc = {"repr": repr(params)}
        run_id = uuid.uuid4().hex
        row = {
            "run_id": run_id,
            "created_at": time.time(),
            "host": platform.node(),
            "user": _safe_user(),
            "pid": os.getpid(),
            "git_sha": current_git_sha(),
            "backend": backend,
            "engine_core": engine_core,
            "kernel": result.kernel,
            "config": result.config,
            "records": result.records,
            "params": _json_or_none(params_doc),
            "fingerprint": fingerprint,
            "cache": cache,
            "sanitizer": verdict,
            "cycles": result.cycles,
            "useful_ops": result.useful_ops,
            "wall_seconds": wall_seconds,
            "phases": _json_or_none(phases),
            "metrics": _json_or_none(dict(result.detail)),
        }
        try:
            self._ledger.append(row)
        except (sqlite3.Error, OSError):
            if METRICS.enabled:
                METRICS.inc("ledger.dropped_rows")
            return None
        return run_id


def _safe_user() -> Optional[str]:
    """The invoking user, or None where the lookup fails (containers)."""
    try:
        return getpass.getuser()
    except (KeyError, OSError):
        return None


#: The process-wide ledger the dispatch choke point records into.
LEDGER = LedgerHandle()

# Environment-driven default: workers spawned by a ledger-enabled
# parent (and CI jobs exporting REPRO_LEDGER) record automatically.
_env_path = os.environ.get(LEDGER_ENV)
if _env_path is not None:
    LEDGER.configure(_env_path, mirror_env=False)
del _env_path


def add_ledger_arguments(parser) -> None:
    """Attach the shared ``--ledger`` / ``--no-ledger`` CLI flags.

    The CLIs (``repro-experiments``, ``repro-serve``) record by default:
    ``--ledger PATH`` overrides the database, ``--no-ledger`` opts out,
    and with neither flag the path comes from ``$REPRO_LEDGER`` or
    :data:`DEFAULT_LEDGER`.  Pair with :func:`configure_from_args`.
    """
    parser.add_argument(
        "--ledger", default=None, metavar="DB",
        help="run-ledger sqlite database (default: $REPRO_LEDGER or "
             f"{DEFAULT_LEDGER}; see repro-perf)",
    )
    parser.add_argument(
        "--no-ledger", action="store_true",
        help="do not record runs into the ledger",
    )


def configure_from_args(args) -> None:
    """Apply :func:`add_ledger_arguments` flags to the global LEDGER."""
    if args.no_ledger:
        LEDGER.disable()
        return
    path = args.ledger or os.environ.get(LEDGER_ENV) or DEFAULT_LEDGER
    LEDGER.configure(path)


@contextmanager
def ledger_to(path: Optional[str]):
    """Scope the global ledger to ``path`` (None pauses it) and restore.

    >>> with ledger_to(tmp / "ledger.sqlite"):
    ...     run_points(points)

    Restores the previous enabled/path state — and the ``REPRO_LEDGER``
    mirror — on exit, so tests and nested tools cannot leak a redirect.
    The restore is exception-safe end to end: entry failures unwind
    through the same ``finally``, and the environment mirror is put
    back even if restoring the handle itself raises — nested service
    jobs must never leave ``REPRO_LEDGER`` pointing at a dead per-job
    database (the scope's path, not the caller's), no matter how the
    scope exits.  Entering with ``REPRO_LEDGER`` already naming the
    same path is fine too: the pre-scope value is what comes back.
    """
    prev_enabled, prev_path = LEDGER.enabled, LEDGER.path
    prev_env = os.environ.get(LEDGER_ENV)
    try:
        if path is None:
            LEDGER.disable()
        else:
            LEDGER.configure(str(path))
        yield LEDGER
    finally:
        try:
            if prev_enabled and prev_path is not None:
                LEDGER.configure(prev_path, mirror_env=False)
            else:
                LEDGER.disable(mirror_env=False)
        finally:
            if prev_env is None:
                os.environ.pop(LEDGER_ENV, None)
            else:
                os.environ[LEDGER_ENV] = prev_env


__all__ = [
    "LEDGER",
    "LEDGER_ENV",
    "LEDGER_SCHEMA",
    "DEFAULT_LEDGER",
    "JOB_COLUMNS",
    "POINT_CANCELLED",
    "POINT_CLAIMED",
    "POINT_COLUMNS",
    "POINT_DONE",
    "POINT_FAILED",
    "POINT_PENDING",
    "POINT_TERMINAL",
    "ROW_COLUMNS",
    "LedgerHandle",
    "RunLedger",
    "add_ledger_arguments",
    "configure_from_args",
    "current_git_sha",
    "ledger_to",
]
