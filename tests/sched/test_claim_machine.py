"""The claim state machine under random call sequences.

Hypothesis drives the claim API of a :class:`RunLedger` — enqueue,
claim, complete, fail, release, lease expiry (an injected clock),
reclaim, heartbeat renewal, revocation and prune — next to a plain-dict
model of the same machine, and checks after every step that the store
and the model agree.  It runs on both kinds of ledger database the
scheduler uses: a private ``:memory:`` one and a file.
"""

import shutil
import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.obs.ledger import (
    POINT_CANCELLED,
    POINT_CLAIMED,
    POINT_DONE,
    POINT_FAILED,
    POINT_PENDING,
    POINT_TERMINAL,
    RunLedger,
)

JOBS = ("job-a", "job-b")
WORKERS = ("w1", "w2", "w3")

jobs = st.sampled_from(JOBS)
workers = st.sampled_from(WORKERS)
job_filters = st.sampled_from((None,) + JOBS)
# Clock steps are whole lease lengths (plus one jump past every
# lease), so the clock often lands exactly on a lease deadline and the
# strict ``lease_until < now`` boundary gets exercised.
leases = st.sampled_from((1.0, 3.0))
steps = st.sampled_from((1.0, 3.0, 10.0))


class ClaimMachine(RuleBasedStateMachine):
    """Model: ``{(job, seq): row}`` with the columns the machine owns."""

    def __init__(self):
        super().__init__()
        self.tmpdir = tempfile.mkdtemp(prefix="claim-machine-")
        self.store = self.open_store(self.tmpdir)
        self.now = 1000.0
        self.rows = {}
        #: terminal status of every row that reached one (until pruned)
        self.terminal = {}
        #: rows that completed DONE (until pruned)
        self.done = set()

    def open_store(self, tmpdir):
        raise NotImplementedError

    def teardown(self):
        self.store.close()
        shutil.rmtree(self.tmpdir, ignore_errors=True)

    # ---- model helpers ------------------------------------------------------

    def _in(self, key, job_id):
        return job_id is None or key[0] == job_id

    def _claimable(self, row):
        return row["status"] == POINT_PENDING or (
            row["status"] == POINT_CLAIMED and row["lease_until"] < self.now
        )

    def _claimed_by(self, worker, job_id):
        return [
            key for key, row in self.rows.items()
            if row["status"] == POINT_CLAIMED and row["worker"] == worker
            and self._in(key, job_id)
        ]

    def _to_pending(self, keys):
        for key in keys:
            self.rows[key].update(
                status=POINT_PENDING, worker=None, lease_until=None
            )

    def _finish(self, key, status):
        self.rows[key].update(status=status, lease_until=None)
        self.terminal[key] = status

    # ---- rules --------------------------------------------------------------

    @initialize(job=jobs, n=st.integers(1, 4))
    def first_enqueue(self, job, n):
        self.enqueue(job, n)

    @rule(job=jobs, n=st.integers(1, 4))
    def enqueue(self, job, n):
        new = [(job, seq) for seq in range(n) if (job, seq) not in self.rows]
        inserted = self.store.enqueue_points(job, [
            {"seq": seq, "fingerprint": f"{job}:{seq}", "label": None,
             "backend": "grid", "spec": "{}", "enqueued_at": self.now}
            for seq in range(n)
        ])
        assert inserted == len(new)
        for key in new:
            self.rows[key] = {
                "status": POINT_PENDING, "worker": None,
                "lease_until": None, "claims": 0, "enqueued_at": self.now,
            }

    @rule(worker=workers, limit=st.sampled_from((None, 1, 2)),
          job_id=job_filters, lease=leases)
    def claim(self, worker, limit, job_id, lease):
        candidates = sorted(
            (key for key, row in self.rows.items()
             if self._in(key, job_id) and self._claimable(row)),
            key=lambda k: (self.rows[k]["enqueued_at"], k[0], k[1]),
        )
        expired = [
            key for key in candidates
            if self.rows[key]["status"] == POINT_CLAIMED
        ]
        expected = candidates if limit is None else candidates[:limit]
        got = self.store.claim_points(
            worker, limit=limit, lease_seconds=lease, job_id=job_id,
            now=self.now,
        )
        assert [(r["job_id"], r["seq"]) for r in got] == expected
        if limit is None:
            # An expired lease is always reclaimable by the next claim.
            assert set(expired) <= set(expected)
        for key in expected:
            row = self.rows[key]
            row.update(status=POINT_CLAIMED, worker=worker,
                       lease_until=self.now + lease)
            row["claims"] += 1

    def _pick(self, data):
        """A row of any state, and a worker that is usually its holder
        (so transitions on held and finished rows get tried often)."""
        key = data.draw(st.sampled_from(sorted(self.rows)))
        holder = self.rows[key]["worker"]
        return key, data.draw(st.sampled_from(
            WORKERS if holder is None else (holder,) * 3 + WORKERS
        ))

    def _terminal_transition(self, call, key, worker, status):
        row = self.rows[key]
        allowed = (
            row["status"] == POINT_CLAIMED and row["worker"] == worker
        )
        assert call(*key, worker) == allowed
        if allowed:
            if status == POINT_DONE:
                assert key not in self.done, f"{key} completed twice"
                self.done.add(key)
            self._finish(key, status)

    @precondition(lambda self: self.rows)
    @rule(data=st.data())
    def complete(self, data):
        key, worker = self._pick(data)
        self._terminal_transition(
            lambda job, seq, who: self.store.complete_point(
                job, seq, who, result_doc={"by": who},
                wall_seconds=0.0, cache="miss", now=self.now,
            ),
            key, worker, POINT_DONE,
        )

    @precondition(lambda self: self.rows)
    @rule(data=st.data())
    def fail(self, data):
        key, worker = self._pick(data)
        self._terminal_transition(
            lambda job, seq, who: self.store.fail_point(
                job, seq, who, "boom", now=self.now
            ),
            key, worker, POINT_FAILED,
        )

    @rule(worker=workers, job_id=job_filters)
    def release(self, worker, job_id):
        keys = self._claimed_by(worker, job_id)
        assert self.store.release_points(worker, job_id) == len(keys)
        self._to_pending(keys)

    @rule(step=steps)
    def advance_clock(self, step):
        self.now += step

    @rule(job_id=job_filters)
    def reclaim_expired(self, job_id):
        keys = [
            key for key, row in self.rows.items()
            if row["status"] == POINT_CLAIMED
            and row["lease_until"] < self.now and self._in(key, job_id)
        ]
        assert self.store.reclaim_expired(
            now=self.now, job_id=job_id
        ) == len(keys)
        self._to_pending(keys)

    @rule(worker=workers, job_id=job_filters, lease=leases)
    def renew_leases(self, worker, job_id, lease):
        keys = self._claimed_by(worker, job_id)
        assert self.store.renew_leases(
            worker, lease, job_id=job_id, now=self.now
        ) == len(keys)
        for key in keys:
            self.rows[key]["lease_until"] = self.now + lease

    @rule(job=jobs)
    def revoke_pending(self, job):
        keys = [
            key for key, row in self.rows.items()
            if key[0] == job and row["status"] == POINT_PENDING
        ]
        assert self.store.revoke_pending(job) == len(keys)
        for key in keys:
            self._finish(key, POINT_CANCELLED)

    @precondition(lambda self: self.rows)
    @rule(back=st.sampled_from((0.0, 1.0, 5.0)))
    def prune(self, back):
        before = self.now - back
        keys = [
            key for key, row in self.rows.items()
            if row["status"] in POINT_TERMINAL
            and row["enqueued_at"] < before
        ]
        live = [
            key for key, row in self.rows.items()
            if row["status"] in (POINT_PENDING, POINT_CLAIMED)
        ]
        counts = self.store.prune(before=before)
        assert counts["points"] == len(keys)
        stored = self._stored()
        # Prune never eats a live sweep.
        assert all(key in stored for key in live)
        for key in keys:
            del self.rows[key]
            self.terminal.pop(key, None)
            self.done.discard(key)

    # ---- invariants ---------------------------------------------------------

    def _stored(self):
        return {
            (job, row["seq"]): row
            for job in JOBS for row in self.store.point_rows(job)
        }

    @invariant()
    def store_matches_model(self):
        stored = self._stored()
        assert set(stored) == set(self.rows)
        for key, row in self.rows.items():
            got = stored[key]
            assert (got["status"], got["claims"]) == \
                (row["status"], row["claims"]), key
            assert (got["worker"], got["lease_until"]) == \
                (row["worker"], row["lease_until"]), key
        # Terminal rows are absorbing: only prune removes them.
        for key, status in self.terminal.items():
            assert stored[key]["status"] == status, key


class MemoryClaimMachine(ClaimMachine):
    def open_store(self, tmpdir):
        return RunLedger(":memory:")


class FileClaimMachine(ClaimMachine):
    def open_store(self, tmpdir):
        return RunLedger(f"{tmpdir}/claims.sqlite")


_BUDGET = settings(max_examples=100, stateful_step_count=30, deadline=None)

TestMemoryClaimMachine = MemoryClaimMachine.TestCase
TestMemoryClaimMachine.settings = _BUDGET
TestFileClaimMachine = FileClaimMachine.TestCase
TestFileClaimMachine.settings = _BUDGET
