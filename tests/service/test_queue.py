"""JobQueue lifecycle, cancellation, and cache-replay accounting."""

import threading
import time

import pytest

from repro.obs.ledger import RunLedger
from repro.sched.scheduler import ClaimSession
from repro.service.jobs import JobQueue, JobState
from repro.service.spec import SweepSpec


def small_spec(**overrides):
    doc = {"kernels": ["convert"], "records": 8}
    doc.update(overrides)
    return SweepSpec.from_dict(doc)


def wait_terminal(q, job_id, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = q.get(job_id)
        if job.state in JobState.TERMINAL:
            return job
        time.sleep(0.02)
    raise AssertionError(
        f"job {job_id} still {q.get(job_id).state} after {timeout}s"
    )


@pytest.fixture()
def running_queue(tmp_path, request):
    """A started queue; indirect parametrization sets its ``workers``."""
    q = JobQueue(
        cache_dir=str(tmp_path / "cache"),
        ledger_path=str(tmp_path / "service_ledger.sqlite"),
        workers=getattr(request, "param", 1),
    ).start()
    yield q
    q.shutdown(wait=True, timeout=10.0)


@pytest.fixture()
def parked_queue(tmp_path):
    """A queue whose worker never starts: jobs stay QUEUED forever."""
    return JobQueue(cache_dir=str(tmp_path / "cache"))


class TestLifecycle:
    def test_job_runs_to_done(self, running_queue):
        job = running_queue.submit(small_spec())
        assert job.state == JobState.QUEUED
        job = wait_terminal(running_queue, job.job_id)
        assert job.state == JobState.DONE
        assert job.points_total == 1
        assert job.started_at is not None
        assert job.finished_at >= job.started_at

        doc = running_queue.status(job.job_id)
        assert doc["state"] == "done"
        assert doc["duration_seconds"] >= 0
        assert doc["progress"]["completed"] == 1
        assert doc["cache"] == {"miss": 1}

        results = running_queue.results(job.job_id)
        assert results["num_points"] == 1
        row = results["rows"][0]
        assert row["kernel"] == "convert"
        assert row["cycles"] > 0

    def test_unknown_job_raises_keyerror(self, running_queue):
        with pytest.raises(KeyError):
            running_queue.get("nope")
        with pytest.raises(KeyError):
            running_queue.results("nope")
        with pytest.raises(KeyError):
            running_queue.cancel("nope")

    def test_results_before_done_raise_lookuperror(self, parked_queue):
        job = parked_queue.submit(small_spec())
        with pytest.raises(LookupError, match="queued"):
            parked_queue.results(job.job_id)

    def test_counts_and_order(self, parked_queue):
        first = parked_queue.submit(small_spec())
        second = parked_queue.submit(small_spec(records=16))
        assert parked_queue.job_ids() == [first.job_id, second.job_id]
        assert parked_queue.counts() == {"queued": 2}


class TestCancellation:
    def test_cancel_queued_job_never_runs(self, parked_queue):
        job = parked_queue.submit(small_spec())
        assert parked_queue.cancel(job.job_id) is True
        assert job.state == JobState.CANCELLED
        assert job.started_at is None
        # terminal jobs are not cancellable twice
        assert parked_queue.cancel(job.job_id) is False
        with pytest.raises(LookupError):
            parked_queue.results(job.job_id)

    def test_worker_skips_jobs_cancelled_while_queued(self, parked_queue):
        doomed = parked_queue.submit(small_spec())
        parked_queue.cancel(doomed.job_id)
        survivor = parked_queue.submit(small_spec(records=16))
        parked_queue.start()
        try:
            assert wait_terminal(
                parked_queue, survivor.job_id
            ).state == JobState.DONE
            assert doomed.state == JobState.CANCELLED
            assert doomed.started_at is None
        finally:
            parked_queue.shutdown(wait=True, timeout=10.0)

    @pytest.mark.parametrize("running_queue", [1, 2], indirect=True,
                             ids=["workers1", "workers2"])
    def test_cancel_mid_sweep_leaves_queue_alive(self, running_queue,
                                                 monkeypatch):
        """A cancel after the first of 8 points lands stops the sweep
        within a point: the cancel event is checked before every claim,
        whatever the number of queue workers."""
        landed, cancelled = threading.Event(), threading.Event()
        complete = ClaimSession.complete

        def first_lands_then_waits(session, *args, **kwargs):
            won = complete(session, *args, **kwargs)
            if not landed.is_set():
                landed.set()
                cancelled.wait(30.0)
            return won

        monkeypatch.setattr(ClaimSession, "complete",
                            first_lands_then_waits)
        big = running_queue.submit(small_spec(
            kernels=["convert", "fft"],
            configs=["baseline", "S", "M", "S-O"],
            records=64,
        ))
        assert landed.wait(60.0)
        assert running_queue.cancel(big.job_id) is True
        cancelled.set()
        big = wait_terminal(running_queue, big.job_id)
        assert big.state == JobState.CANCELLED
        assert big.points_total == 8
        assert big.finished_at is not None
        with pytest.raises(LookupError, match="cancelled"):
            running_queue.results(big.job_id)
        store = RunLedger(running_queue.ledger_path)
        try:
            statuses = [row["status"] for row in store.point_rows(big.job_id)]
        finally:
            store.close()
        assert statuses.count("done") == 1

        # the queue survives and serves the next job
        after = running_queue.submit(small_spec())
        assert wait_terminal(
            running_queue, after.job_id
        ).state == JobState.DONE


class TestCacheReplay:
    def test_concurrent_clients_one_cold_then_hits(
        self, running_queue, tmp_path
    ):
        """N identical submissions: one cold sweep, N-1 cache replays."""
        n_clients, ids = 4, []
        lock = threading.Lock()

        def submit():
            job = running_queue.submit(small_spec(
                kernels=["convert", "fft"], records=16
            ))
            with lock:
                ids.append(job.job_id)

        threads = [threading.Thread(target=submit)
                   for _ in range(n_clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        jobs = [wait_terminal(running_queue, jid) for jid in ids]
        assert all(j.state == JobState.DONE for j in jobs)
        payloads = [running_queue.results(j.job_id) for j in jobs]
        assert all(p == payloads[0] for p in payloads)

        # single-worker queue serializes them: first executes, rest
        # replay every point from the run cache
        n_points = jobs[0].points_total
        ledger = RunLedger(str(tmp_path / "service_ledger.sqlite"))
        counts = ledger.cache_counts()
        assert counts.get("miss") == n_points
        assert counts.get("hit") == (n_clients - 1) * n_points

    def test_identical_resubmission_reports_all_hits(self, running_queue):
        spec = small_spec(records=12)
        cold = wait_terminal(
            running_queue, running_queue.submit(spec).job_id
        )
        warm = wait_terminal(
            running_queue, running_queue.submit(spec).job_id
        )
        assert cold.cache_counts == {"miss": cold.points_total}
        assert warm.cache_counts == {"hit": warm.points_total}
        assert running_queue.results(cold.job_id) == \
            running_queue.results(warm.job_id)


class TestCacheAccounting:
    def test_concurrent_jobs_count_only_their_own_points(self, tmp_path):
        """Two jobs sweeping side by side on two queue workers each
        report exactly their own points: one miss per point cold, one
        hit per point on resubmission — never a sibling's runs."""
        q = JobQueue(
            cache_dir=str(tmp_path / "cache"),
            ledger_path=str(tmp_path / "service_ledger.sqlite"),
            workers=2,
        ).start()
        # Disjoint point sets (different record counts), so neither
        # job can replay the other's fresh cache entries.
        specs = [
            small_spec(configs=["baseline", "S", "S-O"], records=64),
            small_spec(configs=["baseline", "S", "S-O", "M"], records=96),
        ]
        try:
            for verdict in ("miss", "hit"):
                ids = [q.submit(spec).job_id for spec in specs]
                jobs = [wait_terminal(q, job_id) for job_id in ids]
                assert [j.state for j in jobs] == [JobState.DONE] * 2
                assert [j.points_total for j in jobs] == [3, 4]
                for job in jobs:
                    assert job.cache_counts == {verdict: job.points_total}
                    assert q.status(job.job_id)["cache"] == \
                        job.cache_counts
        finally:
            q.shutdown(wait=True, timeout=10.0)


class TestSiblingProgress:
    def test_a_job_that_has_run_nothing_reports_no_progress(
        self, tmp_path, monkeypatch
    ):
        """A RUNNING job whose claim session does not exist yet reports
        ``progress: null``, as a QUEUED job does, never the counts of a
        sibling job completing points next to it."""
        entered, release = threading.Event(), threading.Event()
        build_points = SweepSpec.build_points

        def held(spec, *args, **kwargs):
            if spec.tag == "held":
                entered.set()
                release.wait(30.0)
            return build_points(spec, *args, **kwargs)

        monkeypatch.setattr(SweepSpec, "build_points", held)
        q = JobQueue(
            cache_dir=str(tmp_path / "cache"),
            ledger_path=str(tmp_path / "service_ledger.sqlite"),
            workers=2,
        ).start()
        try:
            held_job = q.submit(small_spec(kernels=["dct"], tag="held"))
            assert entered.wait(30.0)
            sibling = q.submit(small_spec(configs=["baseline", "S"]))
            assert wait_terminal(q, sibling.job_id).state == JobState.DONE
            assert q.status(sibling.job_id)["progress"]["completed"] == 2
            status = q.status(held_job.job_id)
            assert status["state"] == JobState.RUNNING
            assert status["progress"] is None
            release.set()
            held_job = wait_terminal(q, held_job.job_id)
            assert held_job.state == JobState.DONE
            assert q.status(held_job.job_id)["progress"]["completed"] == 1
        finally:
            release.set()
            q.shutdown(wait=True, timeout=30.0)


class BlockingStore(RunLedger):
    """An in-memory claim store whose ``point_rows`` waits on an event."""

    def __init__(self):
        super().__init__(":memory:")
        self.entered = threading.Event()
        self.release = threading.Event()

    def point_rows(self, *args, **kwargs):
        self.entered.set()
        self.release.wait(10.0)
        return super().point_rows(*args, **kwargs)


def _in_thread(fn):
    """Run ``fn`` on a thread; returns (thread, outcome dict)."""
    outcome = {}

    def run():
        try:
            outcome["value"] = fn()
        except BaseException as exc:  # surfaced by the asserting test
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, outcome


class TestStatusReadsOutsideTheLock:
    """``status()`` reads the claim store without holding the queue lock."""

    @pytest.fixture()
    def blocked(self, parked_queue):
        """A RUNNING job whose status() read is parked inside the store."""
        job = parked_queue.submit(small_spec())
        store = BlockingStore()
        session = ClaimSession(store, job_id=job.job_id, owns_store=True)
        with parked_queue._lock:
            job.state = JobState.RUNNING
            job.started_at = time.time()
            job.session = session
        reader, outcome = _in_thread(lambda: parked_queue.status(job.job_id))
        assert store.entered.wait(5.0)
        yield parked_queue, job, session, store, reader, outcome
        store.release.set()
        reader.join(5.0)

    def test_submit_and_cancel_proceed_during_a_store_read(self, blocked):
        q, job, _, store, reader, outcome = blocked
        other = q.submit(small_spec())
        start = time.monotonic()
        writer, done = _in_thread(
            lambda: (q.submit(small_spec()), q.cancel(other.job_id))
        )
        writer.join(1.0)
        assert not writer.is_alive(), "submit/cancel waited on a store read"
        assert time.monotonic() - start < 1.0
        assert done["value"][1] is True
        assert reader.is_alive()  # the status() read is still parked
        store.release.set()
        reader.join(5.0)
        assert outcome["value"]["state"] == JobState.RUNNING
        assert outcome["value"]["progress"]["completed"] == 0

    def test_read_racing_the_close_serves_the_final_snapshot(self, blocked):
        q, job, session, store, reader, outcome = blocked
        final = {"completed": 1, "total": 1, "in_flight": []}

        def finish():  # what _run_job does as the job ends
            with q._lock:
                job.progress = final
                job.session = None
            session.close()

        closer, _ = _in_thread(finish)
        closer.join(1.0)
        assert not closer.is_alive()
        store.release.set()
        reader.join(5.0)
        assert "error" not in outcome
        assert outcome["value"]["progress"] == final
        assert outcome["value"] == q.status(job.job_id)


class TestResultsPageReadsOutsideTheLock:
    """A page whose claim-store read lands after a ledger-less job has
    closed its in-memory store serves the final page."""

    def test_page_read_after_the_close_serves_the_final_page(
        self, tmp_path, monkeypatch
    ):
        from repro.service import jobs

        q = JobQueue(cache_dir=str(tmp_path / "cache")).start()
        entered, closed = threading.Event(), threading.Event()
        run_points, point_rows = jobs.run_points, RunLedger.point_rows
        close = RunLedger.close

        def gated_run_points(*args, **kwargs):
            entered.wait(10.0)  # the page holds the live session
            return run_points(*args, **kwargs)

        def page_point_rows(store, *args, **kwargs):
            if threading.current_thread().name == "page":
                entered.set()
                closed.wait(10.0)  # the job ended and closed its store
            return point_rows(store, *args, **kwargs)

        def closing(store):
            close(store)
            if store.path == ":memory:":
                closed.set()

        monkeypatch.setattr(jobs, "run_points", gated_run_points)
        monkeypatch.setattr(RunLedger, "point_rows", page_point_rows)
        monkeypatch.setattr(RunLedger, "close", closing)
        try:
            job = q.submit(small_spec())
            deadline = time.monotonic() + 60.0
            while (q.get(job.job_id).session is None
                   and time.monotonic() < deadline):
                time.sleep(0.005)
            page = {}
            reader = threading.Thread(
                target=lambda: page.update(q.results_page(job.job_id)),
                name="page", daemon=True,
            )
            reader.start()
            reader.join(30.0)
            assert not reader.is_alive()
            assert closed.is_set()
            final = q.results_page(job.job_id)
            assert final["complete"] and len(final["rows"]) == 1
            assert page == final
        finally:
            entered.set()
            q.shutdown(wait=True, timeout=10.0)
