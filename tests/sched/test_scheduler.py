"""Scheduler end-to-end: sharding, crash resume, adoption, the worker CLI."""

import dataclasses
import os
import sqlite3
import threading
import time

import pytest

from repro.machine import MachineConfig, MachineParams
from repro.obs.ledger import (
    POINT_CANCELLED,
    POINT_CLAIMED,
    POINT_DONE,
    POINT_PENDING,
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
        run_points([point])
        assert RunCache(str(tmp_path)).get(fp) is not None


class TestBatchFingerprints:
    def test_enqueue_hashes_each_kernel_once(self, monkeypatch):
        """A job's fingerprints equal the per-point ones byte for byte,
        while the kernel hash runs once per kernel, not once per point."""
        from repro.backends import get
        from repro.kernels import spec
        from repro.machine.fastcore import using_core
        from repro.perf import fingerprint as fingerprint_mod

        params = MachineParams()
        configs = [MachineConfig.baseline(), MachineConfig.S(),
                   MachineConfig.S_O(), MachineConfig.M()]
        points = [
            SweepPoint(kernel=name, config=config, params=params,
                       records=6, workload_seed=7)
            for name in ("convert", "fft") for config in configs
        ]
        points[1] = dataclasses.replace(points[1], engine_core="object")
        with using_core("array"):
            expected = [point_fingerprint(p) for p in points]
            oracle = [
                fingerprint_mod.run_fingerprint(
                    spec(p.kernel).kernel(), p.config, p.params,
                    spec(p.kernel).workload(p.records, p.workload_seed),
                    backend=get(p.backend).fingerprint_part(),
                    engine_core=p.engine_core,
                )
                for p in points
            ]
            unpinned = point_fingerprint(
                dataclasses.replace(points[1], engine_core=None)
            )
        assert expected == oracle
        assert expected[1] != unpinned

        hashed = []
        original = fingerprint_mod.fingerprint_kernel

        def spy(kernel):
            hashed.append(kernel.name)
            return original(kernel)

        monkeypatch.setattr(fingerprint_mod, "fingerprint_kernel", spy)
        session = ClaimSession(RunLedger(":memory:"), owns_store=True)
        try:
            with using_core("array"):
                filled = session.enqueue(points)
        finally:
            session.close()
        assert [p.fingerprint for p in filled] == expected
        assert sorted(hashed) == ["convert", "fft"]


CONFIGS = [MachineConfig.baseline(), MachineConfig.S(), MachineConfig.S_O(),
           MachineConfig.S_O_D(), MachineConfig.M(), MachineConfig.M_D()]


def service_job(tmp_path):
    """A service-shaped cold job: two kernels x the six Table 5 configs."""
    params = MachineParams()
    return [
        SweepPoint(kernel=name, config=config, params=params, records=6,
                   workload_seed=7, cache_dir=str(tmp_path / "cache"))
        for name in ("convert", "fft") for config in CONFIGS
    ]


def spy_workloads(monkeypatch, names):
    """Wrap each named spec's ``workload``; returns the call log."""
    from repro.kernels import registry

    calls = []
    for name in names:
        registered = registry()[name]

        def spy(*args, _name=name, _workload=registered.workload):
            calls.append((_name,) + args)
            return _workload(*args)

        monkeypatch.setitem(registry(), name, dataclasses.replace(
            registered, workload=spy
        ))
    return calls


class TestJobConstants:
    def test_cold_job_generates_each_stream_once(
            self, tmp_path, monkeypatch):
        """Enqueue generates each kernel's records while hashing them;
        the six configurations that miss the cache simulate that stream
        instead of regenerating it."""
        from repro.perf import simulate_point

        points = service_job(tmp_path)
        expected = [
            simulate_point(dataclasses.replace(p, cache_dir=None))[0]
            for p in points
        ]
        calls = spy_workloads(monkeypatch, ["convert", "fft"])
        assert run_points(points) == expected
        assert sorted(calls) == [("convert", 6, 7), ("fft", 6, 7)]

    def test_streams_are_keyed_by_records_and_seed(self, monkeypatch):
        """Points of one kernel with other record counts or seeds get
        their own streams, each generated once."""
        from repro.perf import simulate_point
        from repro.perf.parallel import JobConstants

        base = SweepPoint(kernel="fft", config=MachineConfig.S(),
                          params=MachineParams(), records=4, workload_seed=7)
        points = [
            base,
            dataclasses.replace(base, config=MachineConfig.M()),
            dataclasses.replace(base, records=6),
            dataclasses.replace(base, workload_seed=8),
        ]
        expected = [simulate_point(p)[0] for p in points]
        calls = spy_workloads(monkeypatch, ["fft"])
        assert run_points(points) == expected
        assert sorted(calls) == [("fft", 4, 7), ("fft", 4, 8), ("fft", 6, 7)]

        constants = JobConstants()
        streams = [constants.workload(p) for p in points]
        assert streams[0] is streams[1]
        assert streams[0] != streams[2] and streams[0] != streams[3]
        assert streams == [p.workload() for p in points]

    def test_job_encodes_its_params_once(self, tmp_path, monkeypatch):
        """The spec column and the run rows encode the job's one
        ``MachineParams`` object once each, cold and replayed."""
        import repro.obs.ledger as ledger_mod

        db = str(tmp_path / "led.sqlite")
        points = service_job(tmp_path)
        encoded = []
        asdict = dataclasses.asdict

        def spy(obj, *args, **kwargs):
            if isinstance(obj, MachineParams):
                encoded.append(obj)
            return asdict(obj, *args, **kwargs)

        monkeypatch.setattr(dataclasses, "asdict", spy)
        with ledger_to(db):
            for job in ("cold", "replay"):
                del encoded[:]
                session = ClaimSession(RunLedger(db), job_id=job,
                                       owns_store=True)
                try:
                    run_points(points, session=session)
                finally:
                    session.close()
                assert len(encoded) <= 2
                assert all(p is points[0].params for p in encoded)
        conn = sqlite3.connect(db)
        columns = [raw for raw, in conn.execute("SELECT params FROM runs")]
        conn.close()
        assert len(columns) == 2 * len(points)
        assert set(columns) == {
            ledger_mod._json_or_none(asdict(points[0].params))
        }

    def test_params_encoding_is_reused_only_for_the_same_object(self):
        from repro.obs.ledger import encode_params
        from repro.perf.parallel import JobConstants

        constants = JobConstants()
        params = MachineParams()
        assert constants.params_json(params) == encode_params(params)
        assert constants.params_json(params) is \
            constants.params_json(params)
        other = MachineParams(hop_cycles=2.0)
        assert constants.params_json(other) == encode_params(other)
        assert constants.params_json(other) != constants.params_json(params)


def spy_dispatch(monkeypatch):
    """Log every dispatched (kernel, config name); returns the log."""
    import repro.backends as backends

    calls = []
    dispatch = backends.dispatch

    def spy(backend, kernel, records, config, *args, **kwargs):
        calls.append((kernel.name, config.name))
        return dispatch(backend, kernel, records, config, *args, **kwargs)

    monkeypatch.setattr(backends, "dispatch", spy)
    return calls


class TestOneSimulationPerMachine:
    def test_service_job_dispatches_7_of_12(self, tmp_path, monkeypatch):
        """convert reuses S-O for S-O-D and M for M-D; fft, with no
        constants either, also reuses S for S-O.  Every point still
        misses the cache and gets the result of its own dispatch."""
        from repro.perf import simulate_point

        points = service_job(tmp_path)
        expected = [
            simulate_point(dataclasses.replace(p, cache_dir=None))[0]
            for p in points
        ]
        calls = spy_dispatch(monkeypatch)
        session = ClaimSession(RunLedger(":memory:"), owns_store=True)
        try:
            assert run_points(points, session=session) == expected
            verdicts = session.cache_verdicts()
        finally:
            session.close()
        assert verdicts == {"miss": 12}
        assert calls == [
            ("convert", "baseline"), ("convert", "S"), ("convert", "S-O"),
            ("convert", "M"),
            ("fft", "baseline"), ("fft", "S"), ("fft", "M"),
        ]

    def test_shared_result_is_an_independent_copy(self, monkeypatch):
        from repro.backends import get
        from repro.kernels import spec
        from repro.perf import simulate_point
        from repro.perf.cache import run_result_to_dict
        from repro.perf.parallel import JobConstants

        first, second = [
            SweepPoint(kernel="fft", config=config, params=MachineParams(),
                       records=8, workload_seed=3)
            for config in (MachineConfig.S(), MachineConfig.S_O())
        ]
        constants = JobConstants()
        kernel = spec("fft").kernel()
        records = constants.workload(first)
        calls = spy_dispatch(monkeypatch)
        original = constants.simulate(first, get("grid"), kernel, records,
                                      None)
        copy = constants.simulate(second, get("grid"), kernel, records, None)
        assert calls == [("fft", "S")]
        assert copy.config == "S-O" and original.config == "S"
        assert copy.detail is not original.detail
        assert copy.window is not original.window
        assert copy.window.detail is not original.window.detail
        assert run_result_to_dict(copy) == run_result_to_dict(
            simulate_point(second)[0])

    def test_identity_tells_apart_params_core_and_stream(
            self, monkeypatch):
        """Another params object with equal content shares; other
        params, another engine core or another stream do not."""
        from repro.perf import simulate_point

        base = SweepPoint(kernel="fft", config=MachineConfig.S(),
                          params=MachineParams(), records=6,
                          workload_seed=7)
        pinned = dataclasses.replace(base, config=MachineConfig.S_O(),
                                     engine_core="object")
        points = [
            base,
            dataclasses.replace(base, config=MachineConfig.S_O(),
                                params=MachineParams()),
            dataclasses.replace(base, config=MachineConfig.S_O(),
                                params=MachineParams(hop_cycles=1.0)),
            dataclasses.replace(base, config=MachineConfig.S_O(),
                                records=4),
            dataclasses.replace(base, config=MachineConfig.S_O(),
                                workload_seed=8),
            pinned,
            dataclasses.replace(pinned, config=MachineConfig.S_O_D()),
        ]
        expected = [simulate_point(p)[0] for p in points]
        calls = spy_dispatch(monkeypatch)
        assert run_points(points) == expected
        assert [config for _, config in calls] == [
            "S", "S-O", "S-O", "S-O", "S-O"]

    def test_backend_that_names_its_machine_keeps_the_name(
            self, monkeypatch):
        """The SIMD comparator names every result ``simd-array``; a
        shared copy keeps that name rather than taking the config's."""
        from repro.perf import simulate_point

        points = [
            SweepPoint(kernel="convert", config=MachineConfig(name=name),
                       params=MachineParams(), records=6, workload_seed=7,
                       backend="simd")
            for name in ("a", "b")
        ]
        expected = [simulate_point(p)[0] for p in points]
        calls = spy_dispatch(monkeypatch)
        results = run_points(points)
        assert results == expected
        assert [r.config for r in results] == ["simd-array", "simd-array"]
        assert calls == [("convert", "a")]

    def test_shared_points_keep_their_ledger_rows(self, tmp_path):
        """One run row per point; a shared point's row has its own
        near-zero wall time, no phases and the miss verdict."""
        db = str(tmp_path / "led.sqlite")
        points = service_job(tmp_path)
        with ledger_to(db):
            run_points(points)
        conn = sqlite3.connect(db)
        rows = conn.execute(
            "SELECT kernel, config, cache, phases, wall_seconds FROM runs"
        ).fetchall()
        conn.close()
        assert sorted((k, c) for k, c, *_ in rows) == sorted(
            (p.kernel, p.config.name) for p in points)
        assert {cache for _, _, cache, _, _ in rows} == {"miss"}
        shared = {("convert", "S-O-D"), ("convert", "M-D"), ("fft", "S-O"),
                  ("fft", "S-O-D"), ("fft", "M-D")}
        for kernel, config, _, phases, wall in rows:
            if (kernel, config) in shared:
                assert phases == "{}" and wall < 0.05
            else:
                assert phases not in (None, "{}")


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
            serial = run_points(sample_points())
            store = RunLedger(db)
            outcomes = {}

            def shard(name):
                session = ClaimSession(store, job_id="shared",
                                       worker_id=name)
                try:
                    outcomes[name] = run_points(points, session=session)
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
            serial = run_points(sample_points())
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
                results = run_points(points, session=live)
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
            simulate_point(points[0])[0], cycles=123456789
        )
        assert session.complete(0, doctored, wall_seconds=0.0)
        session.close(release=False)

        reader = ClaimSession(store, job_id="truth", worker_id="reader")
        try:
            results = run_points(points, session=reader)
        finally:
            reader.close()
        assert results[0].cycles == 123456789
        assert results[1] == simulate_point(points[1])[0]
        store.close()


class TestCancellation:
    def test_cancel_revokes_and_raises(self, tmp_path):
        store = RunLedger(str(tmp_path / "led.sqlite"))
        session = ClaimSession(store, job_id="job",
                               cancel_check=lambda: True)
        points = sample_points()
        with pytest.raises(SweepCancelled):
            run_points(points, session=session)
        rows = store.point_rows("job")
        assert rows and all(
            r["status"] == POINT_CANCELLED for r in rows
        )
        session.close()
        store.close()


class TestReleaseWrites:
    def test_completed_job_makes_no_release_write(self, monkeypatch):
        """With every claim completed, a release would change no row."""
        releases = []
        release_points = RunLedger.release_points

        def spy(self, *args, **kwargs):
            releases.append(args)
            return release_points(self, *args, **kwargs)

        monkeypatch.setattr(RunLedger, "release_points", spy)
        run_points(sample_points())
        assert releases == []

    def test_interrupted_job_releases_its_claim(self, tmp_path,
                                                monkeypatch):
        from repro.perf import parallel

        store = RunLedger(str(tmp_path / "led.sqlite"))
        session = ClaimSession(store, job_id="job", worker_id="w")
        simulate_point = parallel.simulate_point
        calls = []

        def interrupting(point, constants=None):
            calls.append(point)
            if len(calls) > 1:
                raise KeyboardInterrupt
            return simulate_point(point, constants)

        monkeypatch.setattr(parallel, "simulate_point", interrupting)
        with pytest.raises(KeyboardInterrupt):
            run_points(sample_points(), session=session)
        session.close()
        statuses = [(r["status"], r["worker"])
                    for r in store.point_rows("job")]
        assert statuses[0] == (POINT_DONE, "w")
        assert statuses[1:] == [(POINT_PENDING, None)] * 3
        store.close()


class TestWorkerCLI:
    def test_worker_drains_an_enqueued_job(self, tmp_path, capsys):
        db = str(tmp_path / "led.sqlite")
        points = sample_points(ledger_path=db)
        with ledger_to(db):
            serial = run_points(sample_points())
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

    def test_worker_simulates_each_machine_of_a_job_once(
            self, tmp_path, monkeypatch):
        """convert's S-O-D point runs the S-O machine and its M-D point
        the M one.  The worker keeps one job's constants, so it drains
        the job in two dispatches, as run_points does, with the same
        results; a second job gets constants of its own."""
        db = str(tmp_path / "led.sqlite")
        points = [
            SweepPoint(kernel="convert", config=config,
                       params=MachineParams(), records=32, workload_seed=7)
            for config in (MachineConfig.S_O(), MachineConfig.S_O_D(),
                           MachineConfig.M(), MachineConfig.M_D())
        ]
        calls = spy_dispatch(monkeypatch)
        serial = run_points(points)
        assert len(calls) == 2
        store = RunLedger(db)
        author = ClaimSession(store, job_id="mates")
        author.enqueue(points)
        author.close()
        del calls[:]
        with ledger_to(db):
            assert worker_main(["--ledger", db, "--exit-idle"]) == 0
        assert calls == [("convert", "S-O"), ("convert", "M")]
        rows = store.point_rows("mates", with_result=True)
        reader = ClaimSession(store, job_id="mates")
        assert [reader.payload_from_row(r) for r in rows] == serial
        reader.close()
        for job_id in ("first", "second"):
            author = ClaimSession(store, job_id=job_id)
            author.enqueue(points)
            author.close()
        del calls[:]
        with ledger_to(db):
            assert worker_main(["--ledger", db, "--exit-idle"]) == 0
        assert len(calls) == 4
        store.close()

    def test_worker_renews_its_leases_while_a_point_runs(
            self, tmp_path, monkeypatch):
        """Worker A's point runs about three times its 0.3 s lease.
        Its heartbeat keeps the row, so worker B, started once the lease
        would have lapsed, claims nothing, and the row ends DONE after
        one claim.  (``--max-points 1`` bounds each worker: without the
        heartbeat the two would reclaim the row from each other.)"""
        from repro.sched import workercli

        db = str(tmp_path / "led.sqlite")
        store = RunLedger(db)
        author = ClaimSession(store, job_id="slow")
        author.enqueue(sample_points(n=1))
        author.close()
        running = threading.Event()
        simulate_point = workercli.simulate_point

        def slow(point, constants=None):
            running.set()
            time.sleep(1.0)
            return simulate_point(point, constants)

        monkeypatch.setattr(workercli, "simulate_point", slow)
        codes = {}

        def run_a():
            codes["a"] = worker_main(["--ledger", db, "--worker-id", "A",
                                      "--lease", "0.3", "--exit-idle",
                                      "--max-points", "1"])

        worker_a = threading.Thread(target=run_a, daemon=True)
        with ledger_to(db):
            worker_a.start()
            try:
                assert running.wait(10.0)
                time.sleep(0.5)  # past A's lease, had A not renewed it
                codes["b"] = worker_main([
                    "--ledger", db, "--worker-id", "B", "--lease", "0.3",
                    "--poll", "0.05", "--exit-idle", "--max-points", "1",
                ])
            finally:
                worker_a.join(10.0)
        assert not worker_a.is_alive()
        assert codes == {"a": 0, "b": 0}
        (row,) = store.point_rows("slow")
        assert (row["status"], row["worker"], row["claims"]) == \
            (POINT_DONE, "A", 1)
        store.close()

    def test_a_row_reclaimed_before_it_completes_is_lost(self, tmp_path,
                                                         capsys):
        from repro.perf.parallel import JobConstants
        from repro.sched import workercli

        db = str(tmp_path / "led.sqlite")
        store = RunLedger(db)
        author = ClaimSession(store, job_id="lost")
        author.enqueue(sample_points(n=1))
        author.close()
        now = time.time()
        (row,) = store.claim_points("A", lease_seconds=1.0, now=now)
        assert store.claim_points("B", lease_seconds=60.0, now=now + 2.0)
        with ledger_to(db):
            assert workercli._run_row(store, "A", row, JobConstants()) \
                == workercli.LOST
        assert "lost " in capsys.readouterr().err
        (row,) = store.point_rows("lost")
        assert (row["status"], row["worker"]) == (POINT_CLAIMED, "B")
        store.close()

    @pytest.mark.parametrize("before", [None, "other.sqlite"])
    def test_worker_leaves_the_global_ledger_as_it_found_it(
            self, tmp_path, before, monkeypatch):
        from repro.obs.ledger import LEDGER, LEDGER_ENV

        db = str(tmp_path / "led.sqlite")
        monkeypatch.delenv(LEDGER_ENV, raising=False)
        before = None if before is None else str(tmp_path / before)
        with ledger_to(before):
            state = (LEDGER.enabled, LEDGER.path, os.environ.get(LEDGER_ENV))
            assert worker_main(["--ledger", db, "--exit-idle"]) == 0
            assert (LEDGER.enabled, LEDGER.path,
                    os.environ.get(LEDGER_ENV)) == state

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
