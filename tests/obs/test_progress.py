"""Live sweep progress as a view of the claim rows: the session and
context snapshots, their clamps, sweep integration, rendering and the
stderr ticker."""

import io
import threading
import time
import types

import pytest

from repro.harness import experiments
from repro.machine import MachineConfig, MachineParams
from repro.obs import progress as progress_mod
from repro.obs.ledger import RunLedger
from repro.obs.progress import (
    point_label,
    progress_state,
    progress_ticker,
    render_state,
)
from repro.perf import SweepPoint, run_points
from repro.perf import parallel as parallel_mod
from repro.sched import ClaimSession


def sample_points(n=2):
    params = MachineParams()
    names = ["convert", "fft", "lu"]
    return [
        SweepPoint(kernel=names[i % len(names)], config=MachineConfig.S(),
                   params=params, records=8, workload_seed=7)
        for i in range(n)
    ]


def memory_session(store=None, **kwargs):
    return ClaimSession(store or RunLedger(":memory:"), owns_store=True,
                        **kwargs)


def small_context(**kwargs):
    return experiments.ExperimentContext(
        params=MachineParams(), records=16, large_kernel_records=16, **kwargs
    )


class InThreadPool:
    """The pool path without forking: ``map`` yields lazily, as
    ``ProcessPoolExecutor.map`` does."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return (fn(item) for item in items)


@pytest.fixture()
def pool(monkeypatch):
    """Route run_points' pool path through :class:`InThreadPool`."""
    monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", InThreadPool)


def frozen_clock(monkeypatch, now):
    """Pin the clock the progress views read elapsed time from."""
    monkeypatch.setattr(progress_mod, "time",
                        types.SimpleNamespace(time=lambda: now))


class TestTracker:
    """The claim rows track a job's progress."""

    def test_state_machine(self):
        session = memory_session()
        try:
            points = session.enqueue(sample_points(3))
            claimed = session.claim(limit=2)
            state = session.progress_snapshot()
            assert state["completed"] == 0 and state["total"] == 3
            assert state["in_flight"] == ["grid:convert|S", "grid:fft|S"]
            session.complete(claimed[0], parallel_mod.simulate_point(
                points[claimed[0]]))
            state = session.progress_snapshot()
            assert state["completed"] == 1
            assert state["in_flight"] == ["grid:fft|S"]
            assert state["per_backend"] == {"grid": 1}
            assert state["last_point"] == "grid:convert|S"
        finally:
            session.close()

    def test_finish_tolerates_missing_start(self):
        """A point another worker ran, which this session never claimed,
        counts as completed all the same."""
        store = RunLedger(":memory:")
        mine = memory_session(store, job_id="job")
        other = ClaimSession(store, job_id="job", worker_id="other")
        try:
            points = mine.enqueue(sample_points(1))
            other.enqueue(points)
            (seq,) = other.claim()
            other.complete(seq, parallel_mod.simulate_point(points[seq]))
            state = mine.progress_snapshot()
            assert state["completed"] == 1 and state["total"] == 1
        finally:
            other.close()
            mine.close()

    def test_eta_appears_once_rate_is_known(self):
        session = memory_session()
        try:
            session.enqueue(sample_points(2))
            started = time.time() - 1.0
            assert session.progress_snapshot(started)["eta_seconds"] is None
            seq = session.claim(limit=1)[0]
            session.run_claimed(seq, lambda point: (
                parallel_mod.simulate_point(point), "uncached"))
            state = session.progress_snapshot(started)
            assert state["points_per_second"] > 0
            assert state["eta_seconds"] is not None
            assert state["eta_seconds"] >= 0
        finally:
            session.close()

    def test_reset_forgets_everything(self):
        """Each context starts from zero: no progress is process-global,
        so another context's sweep never shows in a fresh one."""
        small_context().run_many([("convert", MachineConfig.S())])
        state = small_context().progress_snapshot()
        assert state["completed"] == 0 and state["total"] == 0
        assert state["per_backend"] == {} and state["last_point"] is None

    def test_point_label(self):
        assert point_label("grid", "fft", "S-O") == "grid:fft|S-O"


class TestSnapshotEdges:
    """The ETA/rate clamps of both views: no snapshot may have a
    negative elapsed time or remaining count, an infinite rate or a
    negative ETA (the service serves these snapshots verbatim)."""

    def assert_sane(self, state):
        assert state["elapsed_seconds"] >= 0.0
        assert 0.0 <= state["points_per_second"] < float("inf")
        assert state["total"] >= state["completed"]
        if state["eta_seconds"] is not None:
            assert state["eta_seconds"] >= 0.0

    def test_finish_before_any_start_starts_the_clock(self):
        """The context's clock starts with its first sweep: before it the
        view reads no time and no rate, after it a real rate."""
        ctx = small_context()
        state = ctx.progress_snapshot()
        self.assert_sane(state)
        assert state["elapsed_seconds"] == 0.0
        assert state["points_per_second"] == 0.0
        ctx.run_many([("convert", MachineConfig.S())])
        state = ctx.progress_snapshot()
        self.assert_sane(state)
        assert state["completed"] == 1
        assert state["points_per_second"] > 0

    def test_zero_elapsed_first_snapshot_has_no_inf_rate(self, monkeypatch):
        """A coarse clock can return the start stamp again; the rate must
        degrade to 0.0 (and the ETA to None), never ZeroDivisionError or
        inf — in the session view and the context view alike."""
        ctx = small_context()
        ctx.run_many([("convert", MachineConfig.S())])
        session = memory_session()
        try:
            points = session.enqueue(sample_points(2))
            (seq,) = session.claim(limit=1)
            session.complete(seq, parallel_mod.simulate_point(points[seq]))
            frozen_clock(monkeypatch, 1000.0)
            ctx._progress_started = 1000.0
            for state in (session.progress_snapshot(1000.0),
                          ctx.progress_snapshot()):
                self.assert_sane(state)
                assert state["completed"] == 1
                assert state["elapsed_seconds"] == 0.0
                assert state["points_per_second"] == 0.0
                assert state["eta_seconds"] is None
        finally:
            session.close()

    def test_clock_going_backwards_clamps_elapsed(self, monkeypatch):
        """A start stamp ahead of the clock reads as zero elapsed."""
        ctx = small_context()
        ctx.run_many([("convert", MachineConfig.S())])
        session = memory_session()
        try:
            session.enqueue(sample_points(1))
            frozen_clock(monkeypatch, 999.5)
            ctx._progress_started = 1000.0
            for state in (session.progress_snapshot(1000.0),
                          ctx.progress_snapshot()):
                self.assert_sane(state)
                assert state["elapsed_seconds"] == 0.0
        finally:
            session.close()

    def test_replayed_finishes_overtaking_total_clamp(self):
        """Completions overtaking the total clamp the total up (and the
        remaining count at 0) instead of going negative."""
        state = progress_state(3, 1, [], time.time() - 1.0, {"grid": 3})
        self.assert_sane(state)
        assert state["completed"] == 3
        assert state["total"] == 3
        assert state["eta_seconds"] == 0.0

    def test_render_survives_every_edge_state(self):
        ctx = small_context()
        assert "0/0 points" in render_state(ctx.progress_snapshot())
        ctx.run_many([("convert", MachineConfig.S())])
        assert "1/1 points" in render_state(ctx.progress_snapshot())


class TestSweepIntegration:
    def test_serial_sweep_publishes_counts(self):
        session = memory_session()
        try:
            run_points(sample_points(3), jobs=1, session=session)
            state = session.progress_snapshot()
        finally:
            session.close()
        assert state["completed"] == 3 and state["total"] == 3
        assert state["in_flight"] == []
        assert state["per_backend"] == {"grid": 3}

    def test_mid_sweep_state_shows_in_flight(self, monkeypatch):
        """While a point runs, the snapshot reports it in flight."""
        session = memory_session()
        observed = {}
        simulate = parallel_mod.simulate_point

        def spying(point):
            observed.update(session.progress_snapshot())
            return simulate(point)

        monkeypatch.setattr(parallel_mod, "simulate_point", spying)
        try:
            run_points(sample_points(1), jobs=1, session=session)
        finally:
            session.close()
        assert observed["completed"] == 0
        assert observed["in_flight"] == ["grid:convert|S"]

    def test_pool_sweep_matches_serial_totals(self, pool):
        session = memory_session()
        try:
            run_points(sample_points(3), jobs=2, session=session)
            state = session.progress_snapshot()
        finally:
            session.close()
        assert state["completed"] == 3 and state["total"] == 3

    def test_disabled_by_default(self, monkeypatch):
        """A sweep nobody watches reads no claim rows: the context's
        view reads the store only when asked."""
        reads = []
        point_rows = RunLedger.point_rows

        def counting(store, *args, **kwargs):
            reads.append(args)
            return point_rows(store, *args, **kwargs)

        monkeypatch.setattr(RunLedger, "point_rows", counting)
        ctx = small_context()
        ctx.run_many([("convert", MachineConfig.S()),
                      ("fft", MachineConfig.S())])
        assert reads == []
        assert ctx.progress_snapshot()["completed"] == 2

    def test_tracking_restores_enabled_flag(self):
        """A sweep leaves the live view when it ends: its session is
        closed and detached, and its points count as finished."""
        ctx = small_context()
        ctx.run_many([("convert", MachineConfig.S())])
        assert ctx._session is None
        state = ctx.progress_snapshot()
        assert state["in_flight"] == [] and state["completed"] == 1


class TestContextProgress:
    """``ExperimentContext.progress_snapshot`` adds up the context's
    sweeps, whichever path ran them."""

    @pytest.mark.parametrize("path", ["in-context", "pool"])
    def test_adds_up_across_sweeps(self, path, request):
        jobs = 1
        if path == "pool":
            request.getfixturevalue("pool")
            jobs = 3
        ctx = small_context(jobs=jobs)
        ctx.run_many([("convert", MachineConfig.S()),
                      ("fft", MachineConfig.S())])
        state = ctx.progress_snapshot()
        assert (state["completed"], state["total"]) == (2, 2)
        ctx.run_many([("convert", MachineConfig.S()),  # a cache hit
                      ("convert", MachineConfig.baseline()),
                      ("fft", MachineConfig.baseline()),
                      ("lu", MachineConfig.baseline())])
        state = ctx.progress_snapshot()
        assert (state["completed"], state["total"]) == (5, 5)
        assert state["per_backend"] == {"grid": 5}
        assert state["in_flight"] == []

    def test_a_tick_racing_the_close_neither_raises_nor_double_counts(
        self, monkeypatch
    ):
        """Ticks taken while a ``:memory:`` session closes (a closed
        store raises on use) read each point once."""
        ctx = small_context()
        ticks = []
        close = ClaimSession.close

        def ticking_close(session, *args, **kwargs):
            ticks.append(ctx.progress_snapshot())
            close(session, *args, **kwargs)
            ticks.append(ctx.progress_snapshot())

        monkeypatch.setattr(ClaimSession, "close", ticking_close)
        ctx.run_many([("convert", MachineConfig.S()),
                      ("fft", MachineConfig.S())])
        assert [(t["completed"], t["total"]) for t in ticks] == [(2, 2)] * 2

    def test_ticks_from_another_thread_stay_consistent(self):
        ctx = small_context()
        stop = threading.Event()
        ticks, errors = [], []

        def tick():
            while not stop.is_set():
                try:
                    ticks.append(ctx.progress_snapshot())
                except Exception as exc:  # surfaced below
                    errors.append(exc)
                time.sleep(0.001)

        thread = threading.Thread(target=tick, daemon=True)
        thread.start()
        try:
            for config in (MachineConfig.S(), MachineConfig.baseline(),
                           MachineConfig.S_O()):
                ctx.run_many([("convert", config), ("fft", config)])
        finally:
            stop.set()
            thread.join(5.0)
        assert errors == []
        done = [t["completed"] for t in ticks]
        assert done == sorted(done)
        assert all(t["completed"] <= t["total"] <= 6 for t in ticks)
        assert ctx.progress_snapshot()["completed"] == 6

    def test_a_failed_sweep_adds_to_the_total_only(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("simulator exploded")

        ctx = small_context()
        ctx.run_many([("convert", MachineConfig.S())])
        monkeypatch.setattr(parallel_mod.JobConstants, "simulate", broken)
        with pytest.raises(RuntimeError, match="exploded"):
            ctx.run_many([("fft", MachineConfig.S())])
        state = ctx.progress_snapshot()
        assert (state["completed"], state["total"]) == (1, 2)


class TestRendering:
    def test_render_state_mentions_counts_and_inflight(self):
        state = progress_state(1, 4, ["grid:b|S"], None, {"grid": 1})
        line = render_state(state)
        assert "1/4 points" in line
        assert "in flight: grid:b|S" in line

    def test_render_state_truncates_long_inflight_lists(self):
        state = progress_state(
            0, 9, [f"grid:k{i}|S" for i in range(5)], None, {}
        )
        assert "+2 more" in render_state(state)

    def test_ticker_prints_final_line(self):
        stream = io.StringIO()
        ctx = small_context()
        with progress_ticker(ctx.progress_snapshot, interval=30.0,
                             stream=stream):
            ctx.run_many([("convert", MachineConfig.S()),
                          ("fft", MachineConfig.S())])
        assert "progress: 2/2 points" in stream.getvalue()
