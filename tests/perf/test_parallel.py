"""Parallel sweep fan-out: serial/parallel identity, worker fidelity,
adaptive dispatch (worker clamping, longest-first order, chunk sizing)
and the worker-shared on-disk run cache."""

import copy
import dataclasses

import pytest

from repro.kernels import spec
from repro.machine import GridProcessor, MachineConfig, MachineParams
from repro.machine.window_cache import SHARED_WINDOW_CACHE
from repro.perf import (
    RunCache,
    SweepPoint,
    effective_workers,
    run_fingerprint,
    run_points,
    simulate_point,
)
from repro.perf import parallel as parallel_mod
from repro.perf.parallel import _estimated_cost, simulate_point_meta


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
        assert simulate_point(point) == direct

    def test_default_workload_seed(self):
        """``workload_seed=None`` reproduces the benchmark default."""
        point = SweepPoint(kernel="fft", config=MachineConfig.S(),
                           params=MachineParams(), records=8)
        s = spec("fft")
        direct = GridProcessor(point.params).run(
            s.kernel(), s.workload(8), point.config
        )
        assert simulate_point(point) == direct


class TestFanOut:
    def test_serial_results_in_input_order(self):
        points = sample_points()
        results = run_points(points, jobs=1)
        assert [r.kernel for r in results] == ["fft", "lu", "convert"]

    def test_parallel_matches_serial(self):
        """Fan-out changes wall time only, never results.

        When the environment cannot spawn a process pool, run_points
        falls back to the serial loop — the assertion holds either way.
        """
        points = sample_points()
        serial = run_points(points, jobs=1)
        parallel = run_points(points, jobs=2)
        assert parallel == serial

    def test_timed_wraps_results(self):
        results = run_points(sample_points()[:1], jobs=1, timed=True)
        (result, seconds), = results
        assert result.kernel == "fft"
        assert seconds >= 0.0


class TestAdaptiveDispatch:
    def test_workers_clamped_to_cpus(self, monkeypatch):
        monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 4)
        assert effective_workers(8, 10) == 4

    def test_workers_clamped_to_points(self, monkeypatch):
        monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 16)
        assert effective_workers(8, 2) == 2

    def test_workers_never_below_one(self, monkeypatch):
        monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: None)
        assert effective_workers(0, 5) == 1
        assert effective_workers(4, 0) == 1

    def test_cost_estimate_orders_by_weight(self):
        points = sample_points()
        costs = {p.kernel: _estimated_cost(p) for p in points}
        for point in points:
            s = spec(point.kernel)
            assert costs[point.kernel] == \
                s.paper.instructions * point.records

    def test_unknown_kernel_falls_back_to_records(self):
        point = SweepPoint(kernel="no-such-kernel",
                           config=MachineConfig.S(),
                           params=MachineParams(), records=17)
        assert _estimated_cost(point) == 17

    def test_broken_registry_propagates(self, monkeypatch):
        """Only ImportError/KeyError degrade to the record-count
        fallback; a genuinely broken registry must fail loudly (the
        estimator once swallowed every exception)."""
        import importlib

        registry = importlib.import_module("repro.kernels.registry")

        def broken(name):
            raise TypeError("registry broken")

        monkeypatch.setattr(registry, "spec", broken)
        with pytest.raises(TypeError, match="registry broken"):
            _estimated_cost(sample_points()[0])

    def test_pool_gets_longest_first_and_restores_order(self, monkeypatch):
        """The pool sees points sorted by descending cost estimate with a
        computed chunksize; the caller still sees input order."""
        calls = []

        class FakePool:
            def __init__(self, max_workers):
                self.max_workers = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                items = list(items)
                calls.append((self.max_workers, chunksize, items))
                return [fn(item) for item in items]

        monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", FakePool)
        points = sample_points()
        results = run_points(points, jobs=3)
        assert [r.kernel for r in results] == ["fft", "lu", "convert"]
        (max_workers, chunksize, submitted), = calls
        assert max_workers == 3
        assert chunksize == max(1, len(points) // (3 * 4))
        costs = [_estimated_cost(p) for p in submitted]
        assert costs == sorted(costs, reverse=True)

    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        class BrokenPool:
            def __init__(self, max_workers):
                raise OSError("no process spawning here")

        monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", BrokenPool)
        results = run_points(sample_points(), jobs=3)
        assert [r.kernel for r in results] == ["fft", "lu", "convert"]

    def test_dying_workers_fall_back_to_serial(self, monkeypatch):
        """Workers dying mid-sweep (BrokenProcessPool out of pool.map)
        degrade to the serial loop instead of crashing the sweep."""
        from concurrent.futures.process import BrokenProcessPool

        class DyingPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                raise BrokenProcessPool("worker died")

        monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", DyingPool)
        points = sample_points()
        results = run_points(points, jobs=3)
        assert parallel_mod.LAST_DISPATCH.mode == "pool-fallback"
        assert results == run_points(points, jobs=1)


class TestSerialParallelIdentity:
    """Dispatch mode must be unobservable in the results: same order,
    same fingerprints, full point accounting."""

    @staticmethod
    def _fingerprints(points):
        fps = []
        for point in points:
            s = spec(point.kernel)
            fps.append(run_fingerprint(
                s.kernel(), point.config, point.params,
                s.workload(point.records, point.workload_seed),
            ))
        return fps

    def test_jobs_n_matches_serial_order_and_fingerprints(self,
                                                          monkeypatch):
        class FakePool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return [fn(item) for item in items]

        points = sample_points()
        serial = run_points(points, jobs=1)
        assert parallel_mod.LAST_DISPATCH.points == len(points)
        monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", FakePool)
        pooled = run_points(points, jobs=3)
        assert parallel_mod.LAST_DISPATCH.mode == "pool"
        assert parallel_mod.LAST_DISPATCH.points == len(points)
        assert pooled == serial
        assert [r.kernel for r in pooled] == [p.kernel for p in points]
        # Identical results under identical fingerprints: the sweep's
        # content addressing cannot tell the two dispatch modes apart.
        assert self._fingerprints(points) == self._fingerprints(points)
        for fp, result in zip(self._fingerprints(points), pooled):
            cache = RunCache()
            cache.put(fp, result)
            assert cache.get(fp) is result


class TestWorkerDiskCache:
    def _point(self, tmp_path):
        return SweepPoint(kernel="convert", config=MachineConfig.baseline(),
                          params=MachineParams(), records=4,
                          workload_seed=9, cache_dir=str(tmp_path))

    def test_worker_populates_shared_cache(self, tmp_path):
        point = self._point(tmp_path)
        result = simulate_point(point)
        s = spec("convert")
        fp = run_fingerprint(s.kernel(), point.config, point.params,
                             s.workload(4, 9))
        assert RunCache(str(tmp_path)).get(fp) == result

    def test_worker_replays_from_shared_cache(self, tmp_path):
        """A doctored on-disk entry comes back verbatim — proof the
        worker consulted the cache instead of re-simulating."""
        point = self._point(tmp_path)
        original = simulate_point(point)
        s = spec("convert")
        fp = run_fingerprint(s.kernel(), point.config, point.params,
                             s.workload(4, 9))
        tampered = copy.deepcopy(original)
        tampered.cycles = original.cycles + 1234
        RunCache(str(tmp_path)).put(fp, tampered)
        assert simulate_point(point) == tampered

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
        result, _, verdict = simulate_point_meta(point)
        assert verdict == "hit"
        assert calls == []
        # The spy is live: a point without its fingerprint must hash
        # (and so generate) its records to find the same entry.
        unaddressed = dataclasses.replace(point, fingerprint=None)
        assert simulate_point_meta(unaddressed)[0] == result
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


class TestDispatchStats:
    def test_serial_dispatch_recorded(self):
        run_points(sample_points(), jobs=1, timed=True)
        dispatch = parallel_mod.LAST_DISPATCH
        assert dispatch is not None
        assert dispatch.mode == "serial"
        assert dispatch.workers == 1
        assert dispatch.points == 3
        assert dispatch.busy_seconds > 0.0
        assert dispatch.wall_seconds >= dispatch.busy_seconds
        assert 0.0 < dispatch.utilization <= 1.0

    def test_untimed_dispatch_has_no_utilization(self):
        run_points(sample_points()[:1], jobs=1)
        assert parallel_mod.LAST_DISPATCH.utilization is None

    def test_pool_dispatch_recorded(self, monkeypatch):
        class FakePool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return [fn(item) for item in items]

        monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", FakePool)
        run_points(sample_points(), jobs=3)
        dispatch = parallel_mod.LAST_DISPATCH
        assert dispatch.mode == "pool"
        assert dispatch.workers == 3

    def test_pool_fallback_recorded(self, monkeypatch):
        class BrokenPool:
            def __init__(self, max_workers):
                raise OSError("no process spawning here")

        monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", BrokenPool)
        run_points(sample_points(), jobs=3)
        assert parallel_mod.LAST_DISPATCH.mode == "pool-fallback"
        assert parallel_mod.LAST_DISPATCH.workers == 1


class TestWorkerPhaseAggregation:
    def test_pool_workers_report_phases_to_parent(self, monkeypatch):
        """With PHASES on, pool workers snapshot their accumulators and
        the parent folds them back in (they are separate processes in
        production, so nothing would land in the parent otherwise)."""
        from repro.perf.phases import PHASES, measuring

        class FakePool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, *rest, chunksize=1):
                if rest:  # phased worker: (points, repeat(timed))
                    return [fn(item, timed) for item, timed
                            in zip(items, rest[0])]
                return [fn(item) for item in items]

        monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", FakePool)
        # Earlier tests simulated these points in this process; a cold
        # window cache makes them simulate (a memoized steady window
        # runs no block engine).
        SHARED_WINDOW_CACHE.clear()
        points = sample_points()
        with measuring() as acc:
            results = run_points(points, jobs=3)
            snap = acc.snapshot()
        PHASES.reset()
        assert [r.kernel for r in results] == ["fft", "lu", "convert"]
        assert snap  # engine phases came back through the pool
        assert "block_engine" in snap

    def test_phased_worker_returns_result_and_snapshot(self):
        SHARED_WINDOW_CACHE.clear()  # simulate, not replay a memo
        point = sample_points()[0]
        payload, snapshot = parallel_mod._pool_worker_phased(point)
        result, seconds, verdict = payload
        assert result == simulate_point(point)
        assert seconds > 0.0
        assert verdict == "uncached"
        assert "block_engine" in snapshot
        from repro.perf.phases import PHASES

        assert PHASES.enabled is False  # worker scope restored

    def test_phases_stay_off_without_measuring(self, monkeypatch):
        """No measuring scope -> the plain workers run (no snapshots)."""
        seen = []

        class FakePool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, *rest, chunksize=1):
                seen.append(fn)
                if rest:
                    return [fn(item, timed) for item, timed
                            in zip(items, rest[0])]
                return [fn(item) for item in items]

        monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", FakePool)
        run_points(sample_points(), jobs=3)
        assert seen == [parallel_mod.simulate_point_meta]
