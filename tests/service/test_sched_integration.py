"""Service × scheduler integration: worker threads, restart adoption,
claim revocation, incremental results paging, failure surfacing."""

import dataclasses
import time

import pytest

from repro.obs.ledger import POINT_CANCELLED, POINT_DONE, RunLedger
from repro.sched import ClaimSession
from repro.service.cli import submit_main
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import JobQueue, JobState
from repro.service.server import serve_in_thread
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


def make_queue(tmp_path, **kwargs):
    return JobQueue(
        cache_dir=str(tmp_path / "cache"),
        ledger_path=str(tmp_path / "service_ledger.sqlite"),
        **kwargs,
    )


class TestWorkerThreads:
    def test_two_workers_drain_two_jobs(self, tmp_path):
        q = make_queue(tmp_path, workers=2).start()
        try:
            assert q.workers == 2
            a = q.submit(small_spec())
            b = q.submit(small_spec(records=16))
            assert wait_terminal(q, a.job_id).state == JobState.DONE
            assert wait_terminal(q, b.job_id).state == JobState.DONE
        finally:
            q.shutdown(wait=True, timeout=10.0)


class TestRestartAdoption:
    def test_restarted_queue_adopts_a_queued_job(self, tmp_path):
        """A job a dead server only ever queued is re-run to DONE by the
        next server sharing its ledger."""
        dead = make_queue(tmp_path)  # never started: its job stays queued
        job_id = dead.submit(small_spec()).job_id

        reborn = make_queue(tmp_path).start()
        try:
            adopted = reborn.get(job_id)
            assert adopted.adopted is True
            job = wait_terminal(reborn, job_id)
            assert job.state == JobState.DONE
            results = reborn.results(job_id)
            assert results["num_points"] == 1
            assert results["rows"][0]["kernel"] == "convert"
        finally:
            reborn.shutdown(wait=True, timeout=10.0)

    def test_adoption_resumes_from_done_point_rows(self, tmp_path):
        """Points the dead server already finished are served from their
        claim rows, not re-simulated — the ledger is the source of truth."""
        from repro.perf.parallel import simulate_point

        dead = make_queue(tmp_path)
        spec = small_spec(configs=["baseline", "S"])
        job_id = dead.submit(spec).job_id
        points, _ = spec.build_points(
            cache_dir=dead.cache_dir, ledger_path=dead.ledger_path
        )
        author = ClaimSession(
            RunLedger(dead.ledger_path), job_id=job_id,
            worker_id="dead-server", owns_store=True,
        )
        author.enqueue(points)
        assert author.claim(limit=1) == [0]
        doctored = dataclasses.replace(
            simulate_point(points[0])[0], cycles=987654321
        )
        assert author.complete(0, doctored, wall_seconds=0.0)
        author.close(release=False)

        reborn = make_queue(tmp_path).start()
        try:
            job = wait_terminal(reborn, job_id)
            assert job.state == JobState.DONE
            rows = reborn.results(job_id)["rows"]
            assert rows[0]["cycles"] == 987654321
            assert rows[1]["cycles"] != 987654321
        finally:
            reborn.shutdown(wait=True, timeout=10.0)


class TestCancelRevocation:
    def test_cancelling_a_running_job_revokes_its_claim_rows(
        self, tmp_path
    ):
        q = make_queue(tmp_path).start()
        try:
            big = q.submit(small_spec(
                kernels=["convert", "fft"],
                configs=["baseline", "S", "M", "S-O"],
                records=64,
            ))
            deadline = time.monotonic() + 60.0
            while (q.get(big.job_id).state == JobState.QUEUED
                   and time.monotonic() < deadline):
                time.sleep(0.005)
            q.cancel(big.job_id)
            assert wait_terminal(q, big.job_id).state == JobState.CANCELLED
            ledger = RunLedger(q.ledger_path)
            rows = ledger.point_rows(big.job_id)
            ledger.close()
            assert rows, "the cancelled job left no claim rows"
            statuses = {r["status"] for r in rows}
            assert POINT_CANCELLED in statuses
            assert statuses <= {POINT_CANCELLED, POINT_DONE}
        finally:
            q.shutdown(wait=True, timeout=10.0)


@pytest.fixture()
def service(tmp_path):
    queue = make_queue(tmp_path)
    server, _thread = serve_in_thread(queue)
    client = ServiceClient(f"http://127.0.0.1:{server.port}", timeout=30.0)
    yield client, queue
    server.shutdown()
    server.server_close()
    queue.shutdown(wait=True, timeout=10.0)


class TestResultsPaging:
    def test_pages_concatenate_into_the_final_rows(self, service):
        client, _queue = service
        job_id = client.submit(
            {"kernels": ["convert", "fft"], "records": 8}
        )["job_id"]
        client.wait(job_id)
        full = client.results(job_id)["rows"]

        page = client.results_page(job_id)
        assert page["complete"] is True
        assert page["rows"] == full
        assert page["next_offset"] == page["total"] == len(full)

        tail = client.results_page(job_id, offset=1)
        assert tail["rows"] == full[1:]
        beyond = client.results_page(job_id, offset=len(full))
        assert beyond["rows"] == []
        assert beyond["next_offset"] == len(full)

    def test_queued_jobs_page_empty_but_incomplete(self, tmp_path):
        import threading

        from repro.service.server import ServiceHTTPServer

        # A parked server: the queue worker never starts, so the job
        # stays QUEUED and the page streams an (empty) prefix.
        queue = make_queue(tmp_path)
        server = ServiceHTTPServer(("127.0.0.1", 0), queue)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(
                f"http://127.0.0.1:{server.port}", timeout=30.0
            )
            job = queue.submit(small_spec())
            page = client.results_page(job.job_id)
            assert page["state"] == "queued"
            assert page["complete"] is False
            assert page["rows"] == []
            assert page["next_offset"] == 0
        finally:
            server.shutdown()
            server.server_close()

    def test_bad_offsets_are_400(self, service):
        client, _queue = service
        job_id = client.submit({"kernels": ["convert"], "records": 8})[
            "job_id"
        ]
        client.wait(job_id)
        with pytest.raises(ServiceError) as exc:
            client._json("GET", f"/jobs/{job_id}/results?offset=nope")
        assert exc.value.status == 400
        with pytest.raises(ServiceError) as exc:
            client._json("GET", f"/jobs/{job_id}/results?offset=-3")
        assert exc.value.status == 400

    def test_unknown_job_pages_are_404(self, service):
        client, _queue = service
        with pytest.raises(ServiceError) as exc:
            client.results_page("nope")
        assert exc.value.status == 404


class TestFailureSurfacing:
    def test_submit_cli_exits_one_with_the_stored_error(
        self, tmp_path, monkeypatch, capsys
    ):
        def boom(*args, **kwargs):
            raise RuntimeError("injected dispatch failure")

        monkeypatch.setattr("repro.service.jobs.run_points", boom)
        queue = make_queue(tmp_path)
        server, _thread = serve_in_thread(queue)
        try:
            rc = submit_main([
                "convert", "--records", "8",
                "--url", f"http://127.0.0.1:{server.port}",
                "--timeout", "60",
            ])
        finally:
            server.shutdown()
            server.server_close()
            queue.shutdown(wait=True, timeout=10.0)
        assert rc == 1
        err = capsys.readouterr().err
        assert "failed" in err
        assert "injected dispatch failure" in err
