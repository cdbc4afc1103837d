"""Scheduler end-to-end: sharding, crash resume, adoption, the worker CLI."""

import dataclasses
import threading

import pytest

from repro.machine import MachineConfig, MachineParams
from repro.obs.ledger import (
    POINT_CANCELLED,
    POINT_DONE,
    RunLedger,
    ledger_to,
)
from repro.perf import SweepPoint, run_points
from repro.sched import (
    ClaimSession,
    SweepCancelled,
    decode_point,
    encode_point,
    point_fingerprint,
)
from repro.sched.workercli import worker_main


def sample_points(ledger_path=None, n=4):
    params = MachineParams()
    configs = [MachineConfig.baseline(), MachineConfig.S(),
               MachineConfig.S_O(), MachineConfig.M()]
    return [
        SweepPoint(kernel="convert", config=configs[i % len(configs)],
                   params=params, records=4, workload_seed=7,
                   ledger_path=ledger_path)
        for i in range(n)
    ]


class TestCodec:
    def test_point_round_trips_through_json(self):
        point = sample_points()[1]
        doc = encode_point(point)
        rebuilt = decode_point(doc)
        assert rebuilt == point

    def test_fingerprint_matches_simulation_addressing(self, tmp_path):
        """enqueue-time fingerprints hit the same cache entries the
        simulation writes — the property cross-worker adoption rests on."""
        from repro.perf import RunCache

        point = dataclasses.replace(
            sample_points()[0], cache_dir=str(tmp_path)
        )
        fp = point_fingerprint(point)
        run_points([point], jobs=1)
        assert RunCache(str(tmp_path)).get(fp) is not None


class TestDurableSessions:
    def test_enqueue_fills_fingerprints_and_specs(self, tmp_path):
        store = RunLedger(str(tmp_path / "led.sqlite"))
        session = ClaimSession(store, job_id="job", owns_store=True)
        filled = session.enqueue(sample_points(n=2))
        assert all(p.fingerprint for p in filled)
        rows = store.point_rows("job", with_result=True)
        assert [r["fingerprint"] for r in rows] == [
            p.fingerprint for p in filled
        ]
        assert all(r["spec"] for r in rows)
        session.close()


class TestSharding:
    def test_two_sharded_sweeps_match_serial(self, tmp_path):
        """Two sessions of one job split the points, both return the
        full in-order result list, and no fingerprint runs twice."""
        db = str(tmp_path / "led.sqlite")
        points = sample_points(ledger_path=db)
        with ledger_to(db):
            serial = run_points(sample_points(), jobs=1)
            store = RunLedger(db)
            outcomes = {}

            def shard(name):
                session = ClaimSession(store, job_id="shared",
                                       worker_id=name)
                try:
                    outcomes[name] = run_points(
                        points, jobs=1, session=session
                    )
                finally:
                    session.close()

            threads = [
                threading.Thread(target=shard, args=(w,))
                for w in ("w1", "w2")
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            assert outcomes["w1"] == serial
            assert outcomes["w2"] == serial
            rows = store.point_rows("shared")
            assert all(r["status"] == POINT_DONE for r in rows)
            assert sum(r["claims"] for r in rows) == len(points)
            store.close()

    def test_crash_resume_completes_the_sweep(self, tmp_path):
        """A dead worker's leased points are reclaimed and the sweep
        still returns the full serial-identical result list."""
        db = str(tmp_path / "led.sqlite")
        points = sample_points(ledger_path=db)
        with ledger_to(db):
            serial = run_points(sample_points(), jobs=1)
            store = RunLedger(db)
            dead = ClaimSession(store, job_id="resumed", worker_id="dead",
                                lease_seconds=0.05)
            dead.enqueue(points)
            assert dead.claim(limit=2) == [0, 1]
            # The crash: the worker vanishes without completing or
            # releasing — only its lease expiry gives the points back.
            dead.close(release=False)
            live = ClaimSession(store, job_id="resumed", worker_id="live")
            try:
                results = run_points(points, jobs=1, session=live)
            finally:
                live.close()
            assert results == serial
            rows = store.point_rows("resumed")
            assert all(r["status"] == POINT_DONE for r in rows)
            assert all(r["worker"] == "live" for r in rows)
            assert {r["claims"] for r in rows} == {1, 2}
            store.close()


class TestSourceOfTruth:
    @pytest.mark.parametrize("durable", [False, True])
    def test_done_rows_are_adopted_not_rerun(self, tmp_path, durable):
        """A DONE claim row wins over re-simulation: run_points returns
        the stored (here: doctored) result verbatim."""
        from repro.perf.parallel import simulate_point

        points = sample_points(n=2)
        store = RunLedger(
            str(tmp_path / "led.sqlite") if durable else ":memory:"
        )
        session = ClaimSession(store, job_id="truth", worker_id="author")
        session.enqueue(points)
        assert session.claim(limit=1) == [0]
        doctored = dataclasses.replace(
            simulate_point(points[0]), cycles=123456789
        )
        assert session.complete(0, doctored, wall_seconds=0.0)
        session.close(release=False)

        reader = ClaimSession(store, job_id="truth", worker_id="reader")
        try:
            results = run_points(points, jobs=1, session=reader)
        finally:
            reader.close()
        assert results[0].cycles == 123456789
        assert results[1] == simulate_point(points[1])
        store.close()


class TestCancellation:
    def test_cancel_revokes_and_raises(self, tmp_path):
        store = RunLedger(str(tmp_path / "led.sqlite"))
        session = ClaimSession(store, job_id="job",
                               cancel_check=lambda: True)
        points = sample_points()
        with pytest.raises(SweepCancelled):
            run_points(points, jobs=1, session=session)
        rows = store.point_rows("job")
        assert rows and all(
            r["status"] == POINT_CANCELLED for r in rows
        )
        session.close()
        store.close()


class TestWorkerCLI:
    def test_worker_drains_an_enqueued_job(self, tmp_path, capsys):
        db = str(tmp_path / "led.sqlite")
        points = sample_points(ledger_path=db)
        with ledger_to(db):
            serial = run_points(sample_points(), jobs=1)
            store = RunLedger(db)
            author = ClaimSession(store, job_id="cli-job")
            author.enqueue(points)
            author.close()
            assert worker_main(["--ledger", db, "--exit-idle"]) == 0
            rows = store.point_rows("cli-job", with_result=True)
            assert all(r["status"] == POINT_DONE for r in rows)
            adopted = ClaimSession(store, job_id="cli-job")
            decoded = [adopted.payload_from_row(r) for r in rows]
            assert decoded == serial
            adopted.close()
            store.close()
        err = capsys.readouterr().err
        assert "4 point(s) done, 0 failed" in err

    def test_worker_fails_rows_without_specs(self, tmp_path, capsys):
        db = str(tmp_path / "led.sqlite")
        store = RunLedger(db)
        store.enqueue_points("bad", [
            {"seq": 0, "fingerprint": "fp", "label": "l", "backend": "grid",
             "spec": None},
        ])
        store.close()
        with ledger_to(db):
            assert worker_main(["--ledger", db, "--exit-idle"]) == 1
        err = capsys.readouterr().err
        assert "no spec document" in err
