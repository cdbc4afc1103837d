"""Sweep points: the point function's fidelity, the consumer loop's
order and claim-row accounting, and the shared on-disk run cache."""

import copy
import dataclasses

from repro.kernels import spec
from repro.machine import GridProcessor, MachineConfig, MachineParams
from repro.perf import (
    RunCache,
    SweepPoint,
    run_fingerprint,
    run_points,
    simulate_point,
)


def sample_points():
    params = MachineParams()
    return [
        SweepPoint(kernel="fft", config=MachineConfig.S(), params=params,
                   records=8, workload_seed=7),
        SweepPoint(kernel="lu", config=MachineConfig.S_O(), params=params,
                   records=8, workload_seed=7),
        SweepPoint(kernel="convert", config=MachineConfig.baseline(),
                   params=params, records=4, workload_seed=9),
    ]


class TestWorkerFidelity:
    def test_simulate_point_matches_direct_run(self):
        point = sample_points()[0]
        s = spec(point.kernel)
        direct = GridProcessor(point.params).run(
            s.kernel(), s.workload(point.records, point.workload_seed),
            point.config,
        )
        assert simulate_point(point) == (direct, "uncached")

    def test_default_workload_seed(self):
        """``workload_seed=None`` reproduces the benchmark default."""
        point = SweepPoint(kernel="fft", config=MachineConfig.S(),
                           params=MachineParams(), records=8)
        s = spec("fft")
        direct = GridProcessor(point.params).run(
            s.kernel(), s.workload(8), point.config
        )
        assert simulate_point(point) == (direct, "uncached")


class TestFanOut:
    def test_serial_results_in_input_order(self):
        points = sample_points()
        results = run_points(points)
        assert [r.kernel for r in results] == ["fft", "lu", "convert"]


class TestWorkerDiskCache:
    def _point(self, tmp_path):
        return SweepPoint(kernel="convert", config=MachineConfig.baseline(),
                          params=MachineParams(), records=4,
                          workload_seed=9, cache_dir=str(tmp_path))

    def test_worker_populates_shared_cache(self, tmp_path):
        point = self._point(tmp_path)
        result, verdict = simulate_point(point)
        assert verdict == "miss"
        s = spec("convert")
        fp = run_fingerprint(s.kernel(), point.config, point.params,
                             s.workload(4, 9))
        assert RunCache(str(tmp_path)).get(fp) == result

    def test_worker_replays_from_shared_cache(self, tmp_path):
        """A doctored on-disk entry comes back verbatim — proof the
        worker consulted the cache instead of re-simulating."""
        point = self._point(tmp_path)
        original, _ = simulate_point(point)
        s = spec("convert")
        fp = run_fingerprint(s.kernel(), point.config, point.params,
                             s.workload(4, 9))
        tampered = copy.deepcopy(original)
        tampered.cycles = original.cycles + 1234
        RunCache(str(tmp_path)).put(fp, tampered)
        assert simulate_point(point) == (tampered, "hit")

    def test_hit_on_a_precomputed_fingerprint_generates_nothing(
            self, tmp_path, monkeypatch):
        """Service and ``repro-worker`` points arrive fingerprinted; a
        cache hit must not regenerate the workload it then discards."""
        from repro.kernels import registry
        from repro.sched import point_fingerprint

        point = self._point(tmp_path)
        point = dataclasses.replace(
            point, fingerprint=point_fingerprint(point)
        )
        simulate_point(point)  # the miss fills the cache
        registered = registry()["convert"]
        calls = []

        def spy(*args):
            calls.append(args)
            return registered.workload(*args)

        monkeypatch.setitem(registry(), "convert", dataclasses.replace(
            registered, workload=spy
        ))
        result, verdict = simulate_point(point)
        assert verdict == "hit"
        assert calls == []
        # The spy is live: a point without its fingerprint must hash
        # (and so generate) its records to find the same entry.
        unaddressed = dataclasses.replace(point, fingerprint=None)
        assert simulate_point(unaddressed) == (result, "hit")
        assert calls == [(4, 9)]

    def test_no_cache_dir_means_no_disk_io(self, tmp_path):
        point = SweepPoint(kernel="convert", config=MachineConfig.baseline(),
                           params=MachineParams(), records=4,
                           workload_seed=9)
        simulate_point(point)
        assert list(tmp_path.iterdir()) == []

    def test_experiment_points_carry_cache_dir(self, tmp_path):
        from repro.harness import experiments

        ctx = experiments.ExperimentContext(records=4,
                                            cache_dir=str(tmp_path))
        point = ctx._point("fft", MachineConfig.S())
        assert point.cache_dir == str(ctx.cache.cache_dir)
        no_disk = experiments.ExperimentContext(records=4)
        assert no_disk._point("fft", MachineConfig.S()).cache_dir is None


def done_rows(session):
    return [row for row in session.store.point_rows(session.job_id)
            if row["status"] == "done"]


class TestDispatchStats:
    """Dispatch is accounted on the claim rows: each DONE row carries
    its point's wall seconds and cache verdict."""

    @staticmethod
    def _session():
        from repro.obs.ledger import RunLedger
        from repro.sched import ClaimSession

        return ClaimSession(RunLedger(":memory:"), owns_store=True)

    def test_serial_dispatch_recorded(self):
        session = self._session()
        try:
            results = run_points(sample_points(), session=session)
            rows = sorted(done_rows(session), key=lambda r: r["seq"])
        finally:
            session.close()
        assert len(rows) == 3
        assert [r["label"] for r in rows] == [
            f"grid:{r.kernel}|{r.config}" for r in results
        ]
        assert all(r["wall_seconds"] > 0.0 for r in rows)
        assert [r["cache"] for r in rows] == ["uncached"] * 3

    def test_untimed_dispatch_has_no_utilization(self):
        """A sweep returns bare results; its rows carry the seconds."""
        session = self._session()
        try:
            (result,) = run_points(sample_points()[:1], session=session)
            (row,) = done_rows(session)
        finally:
            session.close()
        assert result.kernel == "fft"
        assert row["wall_seconds"] > 0.0
