"""Claim-table semantics on both kinds of ledger database.

Every test here runs against a private ``RunLedger(":memory:")`` — the
store a session uses when no ledger is configured — *and* a
file-backed ledger.  Both run the same SQL; the scheduler treats them
interchangeably, so their claim behavior (atomicity, guarded
transitions, lease expiry, revocation) must match exactly.
"""

import threading

import pytest

from repro.obs.ledger import (
    POINT_CANCELLED,
    POINT_CLAIMED,
    POINT_DONE,
    POINT_FAILED,
    POINT_PENDING,
    RunLedger,
)


@pytest.fixture(params=["memory", "ledger"])
def store(request, tmp_path):
    if request.param == "memory":
        s = RunLedger(":memory:")
    else:
        s = RunLedger(str(tmp_path / "claims.sqlite"))
    yield s
    s.close()


def sample_rows(n, spec="{}"):
    return [
        {"seq": i, "fingerprint": f"fp{i}", "label": f"point-{i}",
         "backend": "grid", "spec": spec}
        for i in range(n)
    ]


class TestLifecycle:
    def test_enqueue_is_idempotent(self, store):
        assert store.enqueue_points("job", sample_rows(3)) == 3
        assert store.enqueue_points("job", sample_rows(3)) == 0
        assert store.point_counts("job") == {POINT_PENDING: 3}

    def test_claim_marks_worker_and_lease(self, store):
        store.enqueue_points("job", sample_rows(2))
        rows = store.claim_points("w1", limit=1)
        assert len(rows) == 1
        (row,) = rows
        assert row["status"] == POINT_CLAIMED
        assert row["worker"] == "w1"
        assert row["lease_until"] is not None
        assert row["claims"] == 1
        counts = store.point_counts("job")
        assert counts == {POINT_CLAIMED: 1, POINT_PENDING: 1}

    def test_claimed_rows_are_not_reclaimable(self, store):
        store.enqueue_points("job", sample_rows(1))
        assert store.claim_points("w1") != []
        assert store.claim_points("w2") == []

    def test_complete_requires_the_claiming_worker(self, store):
        store.enqueue_points("job", sample_rows(1))
        store.claim_points("w1")
        assert not store.complete_point("job", 0, "intruder",
                                        result_doc={"x": 1})
        assert store.complete_point("job", 0, "w1", result_doc={"x": 1},
                                    wall_seconds=0.5, cache="miss")
        (row,) = store.point_rows("job", with_result=True)
        assert row["status"] == POINT_DONE
        assert row["cache"] == "miss"
        assert row["claims"] == 1

    def test_complete_twice_has_one_winner(self, store):
        store.enqueue_points("job", sample_rows(1))
        store.claim_points("w1")
        assert store.complete_point("job", 0, "w1", result_doc={"x": 1})
        assert not store.complete_point("job", 0, "w1", result_doc={"x": 2})

    def test_fail_records_the_error(self, store):
        store.enqueue_points("job", sample_rows(1))
        store.claim_points("w1")
        assert store.fail_point("job", 0, "w1", "boom")
        (row,) = store.point_rows("job")
        assert row["status"] == POINT_FAILED
        assert row["error"] == "boom"

    def test_release_returns_rows_to_pending(self, store):
        store.enqueue_points("job", sample_rows(2))
        store.claim_points("w1")
        assert store.release_points("w1") == 2
        counts = store.point_counts("job")
        assert counts == {POINT_PENDING: 2}
        rows = store.point_rows("job")
        assert all(r["worker"] is None for r in rows)

    def test_revoke_pending_spares_claimed_rows(self, store):
        store.enqueue_points("job", sample_rows(3))
        store.claim_points("w1", limit=1)
        assert store.revoke_pending("job") == 2
        counts = store.point_counts("job")
        assert counts == {POINT_CANCELLED: 2, POINT_CLAIMED: 1}

    def test_point_rows_hides_payloads_by_default(self, store):
        store.enqueue_points("job", sample_rows(1))
        store.claim_points("w1")
        store.complete_point("job", 0, "w1", result_doc={"x": 1})
        (thin,) = store.point_rows("job")
        assert "result" not in thin and "spec" not in thin
        (fat,) = store.point_rows("job", with_result=True)
        assert fat["result"] is not None


class TestLeases:
    def test_expired_lease_is_reclaimable(self, store):
        store.enqueue_points("job", sample_rows(1))
        t = 1000.0
        assert store.claim_points("dead", lease_seconds=5.0, now=t)
        # Within the lease nobody else can take it; after, anybody can.
        assert store.claim_points("w2", now=t + 1.0) == []
        rows = store.claim_points("w2", now=t + 10.0)
        assert len(rows) == 1
        assert rows[0]["claims"] == 2
        # The original claimer's stale transitions lose.
        assert not store.complete_point("job", 0, "dead",
                                        result_doc={"x": 1})
        assert store.complete_point("job", 0, "w2", result_doc={"x": 2})

    def test_renew_extends_the_lease(self, store):
        store.enqueue_points("job", sample_rows(1))
        t = 1000.0
        store.claim_points("w1", lease_seconds=5.0, now=t)
        assert store.renew_leases("w1", 5.0, now=t + 4.0) == 1
        # Without the renewal this claim would have expired at t+5.
        assert store.claim_points("w2", now=t + 6.0) == []

    def test_reclaim_expired_counts_rows(self, store):
        store.enqueue_points("job", sample_rows(2))
        t = 1000.0
        store.claim_points("dead", lease_seconds=5.0, now=t)
        assert store.reclaim_expired(now=t + 10.0) == 2
        assert store.point_counts("job") == {POINT_PENDING: 2}


class TestScoping:
    def test_claims_respect_the_job_filter(self, store):
        store.enqueue_points("job-a", sample_rows(2))
        store.enqueue_points("job-b", sample_rows(2))
        rows = store.claim_points("w1", job_id="job-a")
        assert {r["job_id"] for r in rows} == {"job-a"}
        assert store.point_counts("job-b") == {POINT_PENDING: 2}

    def test_unfiltered_claim_drains_every_job(self, store):
        store.enqueue_points("job-a", sample_rows(1))
        store.enqueue_points("job-b", sample_rows(1))
        rows = store.claim_points("w1")
        assert {r["job_id"] for r in rows} == {"job-a", "job-b"}


class TestContention:
    def test_two_claimers_never_double_run(self, store):
        """Concurrent claim loops split the job into disjoint sets."""
        n = 24
        store.enqueue_points("job", sample_rows(n))
        taken = {"w1": [], "w2": []}
        errors = []

        def drain(worker):
            try:
                while True:
                    rows = store.claim_points(worker, limit=1)
                    if not rows:
                        return
                    for row in rows:
                        taken[worker].append(row["seq"])
                        assert store.complete_point(
                            "job", row["seq"], worker,
                            result_doc={"by": worker},
                        )
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [
            threading.Thread(target=drain, args=(w,)) for w in taken
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not errors
        assert not set(taken["w1"]) & set(taken["w2"])
        assert sorted(taken["w1"] + taken["w2"]) == list(range(n))
        rows = store.point_rows("job")
        assert all(r["status"] == POINT_DONE for r in rows)
        assert all(r["claims"] == 1 for r in rows)
