"""Durable run ledger: dispatch rows, sweep coverage, concurrency,
the disabled fast path and scope restoration."""

import json
import os
import sqlite3
import threading

import pytest

from repro.backends import dispatch, get
from repro.kernels import spec
from repro.machine import MachineConfig, MachineParams
from repro.obs.ledger import (
    DEFAULT_LEDGER,
    LEDGER,
    LEDGER_ENV,
    LEDGER_SCHEMA,
    ROW_COLUMNS,
    RunLedger,
    current_git_sha,
    ledger_to,
)
from repro.perf import SweepPoint, run_points, simulate_point


def run_convert(records=16):
    s = spec("convert")
    return dispatch(
        get("grid"), s.kernel(), s.workload(records),
        MachineConfig.baseline(), MachineParams(),
    )


def sweep_points(n=2, **kwargs):
    params = MachineParams()
    names = ["convert", "fft", "lu", "transform"]
    return [
        SweepPoint(kernel=names[i % len(names)], config=MachineConfig.S(),
                   params=params, records=8, workload_seed=7, **kwargs)
        for i in range(n)
    ]


class TestDispatchRecords:
    def test_dispatch_appends_one_row(self, tmp_path):
        db = tmp_path / "ledger.sqlite"
        with ledger_to(db) as handle:
            result = run_convert()
            rows = handle.ledger.rows()
        assert len(rows) == 1
        row = rows[0]
        assert row["kernel"] == "convert"
        assert row["config"] == result.config
        assert row["backend"] == "grid"
        assert row["cycles"] == result.cycles
        assert row["records"] == result.records
        assert row["cache"] == "uncached"
        assert row["pid"] == os.getpid()
        assert row["wall_seconds"] >= 0.0

    def test_row_carries_phases_and_metrics(self, tmp_path):
        with ledger_to(tmp_path / "l.sqlite") as handle:
            result = run_convert()
            row = handle.ledger.rows()[0]
        assert isinstance(row["phases"], dict) and row["phases"]
        assert all(v >= 0.0 for v in row["phases"].values())
        # The metrics column is the run's detail snapshot verbatim.
        assert row["metrics"]["l1.accesses"] == result.detail["l1.accesses"]

    def test_row_carries_provenance(self, tmp_path):
        with ledger_to(tmp_path / "l.sqlite") as handle:
            run_convert()
            row = handle.ledger.rows()[0]
        assert row["git_sha"] == current_git_sha()
        assert row["host"]
        assert row["engine_core"] in ("array", "object")
        assert row["sanitizer"] == "off"

    def test_params_column_is_sorted_json(self, tmp_path):
        """Enum-keyed MachineParams tables serialize (keys stringified)."""
        with ledger_to(tmp_path / "l.sqlite") as handle:
            run_convert()
            raw = sqlite3.connect(handle.path).execute(
                "SELECT params FROM runs"
            ).fetchone()[0]
        doc = json.loads(raw)
        assert doc["rows"] == 8
        assert raw == json.dumps(doc, sort_keys=True)


class TestSweepCoverage:
    def test_two_point_sweep_leaves_two_rows(self, tmp_path):
        """The ISSUE acceptance: a 2-point sweep -> >= 2 ledger rows."""
        db = tmp_path / "ledger.sqlite"
        with ledger_to(db) as handle:
            run_points(sweep_points(2), jobs=1)
            assert handle.ledger.count() >= 2
            kernels = {row["kernel"] for row in handle.ledger.rows()}
        assert kernels == {"convert", "fft"}

    def test_cached_point_records_hit_row(self, tmp_path):
        db = tmp_path / "ledger.sqlite"
        cache_dir = tmp_path / "cache"
        point = sweep_points(1, cache_dir=str(cache_dir))[0]
        with ledger_to(db) as handle:
            first = simulate_point(point)
            second = simulate_point(point)
            rows = handle.ledger.rows()
        assert first == second
        verdicts = sorted(row["cache"] for row in rows)
        assert verdicts == ["hit", "miss"]
        assert all(row["fingerprint"] for row in rows)
        hit = next(row for row in rows if row["cache"] == "hit")
        assert hit["wall_seconds"] == 0.0

    def test_sweep_point_carries_ledger_path(self, tmp_path):
        db = str(tmp_path / "worker.sqlite")
        point = sweep_points(1, ledger_path=db)[0]
        # A worker process starts with LEDGER disabled and adopts the
        # point's path; simulate this in-process from the disabled state.
        assert not LEDGER.enabled
        try:
            simulate_point(point)
            assert LEDGER.enabled and LEDGER.path == db
            assert RunLedger(db).count() == 1
        finally:
            LEDGER.disable(mirror_env=False)


class TestDisabledPath:
    def test_disabled_by_default_and_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert not LEDGER.enabled
        run_convert()
        assert not (tmp_path / DEFAULT_LEDGER).exists()

    def test_record_run_returns_none_while_disabled(self):
        result = run_convert()
        assert LEDGER.record_run(
            result, backend="grid", engine_core="array", wall_seconds=0.1
        ) is None


class TestScopeRestoration:
    def test_ledger_to_restores_disabled_state_and_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv(LEDGER_ENV, raising=False)
        with ledger_to(tmp_path / "l.sqlite"):
            assert LEDGER.enabled
            assert os.environ[LEDGER_ENV] == str(tmp_path / "l.sqlite")
        assert not LEDGER.enabled
        assert LEDGER_ENV not in os.environ

    def test_ledger_to_none_pauses_an_active_ledger(self, tmp_path):
        outer = str(tmp_path / "outer.sqlite")
        with ledger_to(outer):
            with ledger_to(None):
                assert not LEDGER.enabled
                run_convert()
            assert LEDGER.enabled and LEDGER.path == outer
            assert LEDGER.ledger.count() == 0

    def test_exception_still_restores(self, tmp_path):
        with pytest.raises(RuntimeError):
            with ledger_to(tmp_path / "l.sqlite"):
                raise RuntimeError("boom")
        assert not LEDGER.enabled

    def test_nested_job_scope_exception_restores_outer(self, tmp_path):
        """A service-style per-job scope dying mid-sweep must hand the
        outer ledger back — handle AND env mirror — or later pool
        workers would record into a dead per-job database."""
        outer = str(tmp_path / "outer.sqlite")
        per_job = str(tmp_path / "job" / "ledger.sqlite")
        with ledger_to(outer):
            with pytest.raises(RuntimeError):
                with ledger_to(per_job):
                    assert os.environ[LEDGER_ENV] == per_job
                    raise RuntimeError("job failed mid-sweep")
            assert LEDGER.enabled and LEDGER.path == outer
            assert os.environ[LEDGER_ENV] == outer
            run_convert()
            assert LEDGER.ledger.count() == 1

    def test_env_already_pointing_at_scope_target(self, tmp_path,
                                                  monkeypatch):
        """Entering a scope whose path equals the pre-set env var must
        restore that env value on exit even though the handle itself
        was disabled before the scope."""
        path = str(tmp_path / "same.sqlite")
        monkeypatch.setenv(LEDGER_ENV, path)
        assert not LEDGER.enabled
        with ledger_to(path):
            assert LEDGER.path == path
        assert not LEDGER.enabled
        assert os.environ[LEDGER_ENV] == path

    def test_unwritable_database_failure_restores_env(self, tmp_path,
                                                      monkeypatch):
        """The database opens lazily, so an unwritable path blows up on
        the first append *inside* the scope; the unwind must not leave
        the env mirror pointing at the never-created database."""
        monkeypatch.delenv(LEDGER_ENV, raising=False)
        bad = tmp_path / "not-a-dir"
        bad.write_text("file, not directory")
        with pytest.raises(OSError):
            with ledger_to(bad / "ledger.sqlite"):
                LEDGER.ledger.append({"run_id": "x", "created_at": 0.0})
        assert not LEDGER.enabled
        assert LEDGER_ENV not in os.environ

    def test_disable_clears_the_stale_path(self, tmp_path):
        LEDGER.configure(str(tmp_path / "l.sqlite"), mirror_env=False)
        assert LEDGER.path is not None
        LEDGER.disable(mirror_env=False)
        assert not LEDGER.enabled
        assert LEDGER.path is None


class TestConcurrentWriters:
    def test_threaded_appends_all_land(self, tmp_path):
        """Many threads share one RunLedger; every insert survives."""
        ledger = RunLedger(str(tmp_path / "c.sqlite"))
        errors = []

        def write(worker):
            try:
                for i in range(20):
                    ledger.append({
                        "run_id": f"w{worker}-{i}", "created_at": float(i),
                        "kernel": "convert", "config": "S", "backend": "grid",
                    })
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=write, args=(w,)) for w in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert ledger.count() == 160

    def test_separate_connections_interleave(self, tmp_path):
        """Two independent handles (as two processes would hold) append
        to one WAL database without losing rows."""
        path = str(tmp_path / "multi.sqlite")
        a, b = RunLedger(path), RunLedger(path)
        for i in range(25):
            a.append({"run_id": f"a{i}", "created_at": float(i)})
            b.append({"run_id": f"b{i}", "created_at": float(i)})
        assert a.count() == b.count() == 50
        a.close(), b.close()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork()")
    def test_fork_waits_for_an_open_transaction(self, tmp_path):
        """A fork while another thread is inside a ledger transaction
        waits for it to commit, so the child writes at once instead of
        stalling on sqlite lock state copied from the parent (pool
        workers are forked while queue threads use the ledger)."""
        path = str(tmp_path / "fork.sqlite")
        ledger = RunLedger(path)
        ledger.count()  # connect and create the schema
        inside, finish = threading.Event(), threading.Event()
        children = []

        def hold_transaction():
            with ledger._txn():
                inside.set()
                finish.wait(10.0)

        def fork_writer():
            pid = os.fork()
            if pid == 0:  # the child: one write, short busy timeout
                code = 1
                try:
                    conn = sqlite3.connect(path, timeout=2.0)
                    conn.execute(
                        "INSERT INTO meta (key, value) VALUES ('child', '')"
                    )
                    conn.commit()
                    code = 0
                finally:
                    os._exit(code)
            children.append(pid)

        holder = threading.Thread(target=hold_transaction)
        holder.start()
        assert inside.wait(10.0)
        forker = threading.Thread(target=fork_writer)
        forker.start()
        forker.join(0.5)
        assert forker.is_alive(), "forked mid-transaction"
        finish.set()
        holder.join(10.0)
        forker.join(10.0)
        assert not holder.is_alive() and not forker.is_alive()
        _, status = os.waitpid(children[0], 0)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
        ledger.close()


class TestReadBack:
    def seed(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "r.sqlite"))
        for i, (kernel, backend) in enumerate(
            [("convert", "grid"), ("fft", "grid"), ("convert", "simd")]
        ):
            ledger.append({
                "run_id": f"{i}abc{i}", "created_at": float(i),
                "kernel": kernel, "backend": backend, "config": "S",
                "metrics": json.dumps({"x": i}),
            })
        return ledger

    def test_rows_newest_first_with_filters(self, tmp_path):
        ledger = self.seed(tmp_path)
        assert [r["run_id"] for r in ledger.rows()] == \
            ["2abc2", "1abc1", "0abc0"]
        assert [r["kernel"] for r in ledger.rows(kernel="fft")] == ["fft"]
        assert len(ledger.rows(backend="grid")) == 2
        assert len(ledger.rows(limit=1)) == 1

    def test_json_columns_decode(self, tmp_path):
        row = self.seed(tmp_path).rows(limit=1)[0]
        assert row["metrics"] == {"x": 2}
        assert set(row) == set(ROW_COLUMNS)

    def test_find_by_prefix(self, tmp_path):
        ledger = self.seed(tmp_path)
        assert ledger.find("1abc")["kernel"] == "fft"
        assert ledger.find("zzz") is None
        with pytest.raises(LookupError):
            ledger.find("")  # matches every row

    def test_find_ambiguous_prefix_names_candidates(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "amb.sqlite"))
        for suffix in ("01", "02"):
            ledger.append({
                "run_id": f"feedc0de{suffix}", "created_at": 0.0,
            })
        with pytest.raises(LookupError) as exc_info:
            ledger.find("feedc0de")
        message = str(exc_info.value)
        assert "feedc0de01" in message and "feedc0de02" in message
        assert "more characters" in message

    def test_find_exact_match_beats_longer_siblings(self, tmp_path):
        """A full run id is never 'ambiguous' with ids it prefixes."""
        ledger = RunLedger(str(tmp_path / "exact.sqlite"))
        ledger.append({"run_id": "cafe", "created_at": 0.0,
                       "kernel": "convert"})
        ledger.append({"run_id": "cafe99", "created_at": 1.0,
                       "kernel": "fft"})
        assert ledger.find("cafe")["kernel"] == "convert"
        assert ledger.find("cafe9")["kernel"] == "fft"

    def test_cache_counts_with_and_without_since(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "cc.sqlite"))
        for stamp, verdict in enumerate(
            ["miss", "miss", "hit", "hit", "hit", "uncached"]
        ):
            ledger.append({
                "run_id": f"r{stamp}", "created_at": float(stamp),
                "cache": verdict,
            })
        assert ledger.cache_counts() == {"hit": 3, "miss": 2,
                                         "uncached": 1}

    def test_schema_version_stamped(self, tmp_path):
        ledger = self.seed(tmp_path)
        value = sqlite3.connect(ledger.path).execute(
            "SELECT value FROM meta WHERE key='schema'"
        ).fetchone()[0]
        assert value == str(LEDGER_SCHEMA)


class TestDroppedRows:
    def test_unusable_path_drops_the_row_not_the_point(self, tmp_path):
        """A ledger path under a regular file cannot be opened
        (``os.makedirs`` raises); the point still returns its result,
        ``record_run`` returns None, and each dropped row is counted."""
        from repro.harness.experiments import ExperimentContext
        from repro.obs.metrics import collecting

        expected = ExperimentContext(records=8).run(
            "convert", MachineConfig.baseline()
        )
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file, not directory")
        with ledger_to(blocker / "ledger.sqlite"):
            with collecting() as metrics:
                result = ExperimentContext(records=8).run(
                    "convert", MachineConfig.baseline()
                )
                run_id = LEDGER.record_run(
                    result, backend="grid", engine_core="array",
                    wall_seconds=0.0,
                )
                dropped = metrics.counters.get("ledger.dropped_rows")
        assert result == expected
        assert run_id is None
        assert dropped == 2  # the dispatch's row and the explicit one
