"""MappedWindowCache: content keys, steady-window memos, LRU bounds.

The cache is correctness-critical — a mis-keyed memo would silently
corrupt cycle counts — so these tests pin the contract stated in the
module docstring: a hit returns the memo stored under its content key,
a miss returns a fresh, private window field-for-field identical to
``map_window`` at the requested offset, and no mapped window outlives
the point that mapped it.
"""

import gc
import sys
import threading
import weakref
from collections import OrderedDict

import pytest

from repro.check.sanitizer import checking
from repro.kernels import all_specs, spec
from repro.machine import GridProcessor, MachineConfig, MachineParams, \
    TABLE5_CONFIGS, map_window
from repro.machine import processor as processor_mod
from repro.machine import window_cache as window_cache_mod
from repro.machine.config import named_config
from repro.machine.fastcore import using_core
from repro.machine.mapping import MappedWindow, window_iterations
from repro.machine.stats import WindowTiming
from repro.machine.window_cache import SHARED_WINDOW_CACHE, MappedWindowCache
from repro.memory.system import MemorySystem
from repro.obs import METRICS, TRACE, collecting, recording
from repro.perf import fingerprint_kernel


def fft_point():
    return spec("fft").kernel(), MachineConfig.S_O(), MachineParams()


def steady_memo():
    """A stand-in steady window: the cache never looks inside one."""
    return WindowTiming(iterations=4, machine_instructions=0, cycles=1), {}


class TestContentKeys:
    def test_key_memoized_on_instance(self):
        kernel = spec("fft").build()
        first = fingerprint_kernel(kernel)
        assert fingerprint_kernel(kernel) == first
        assert kernel._fingerprint == first

    def test_independent_builds_share_key(self):
        s = spec("fft")
        assert fingerprint_kernel(s.build()) == fingerprint_kernel(s.build())


class TestMappedWindowCache:
    def test_miss_then_hit(self):
        kernel, config, params = fft_point()
        cache = MappedWindowCache()
        key, steady, window = cache.get_or_map(kernel, config, params, 4)
        assert steady is None and isinstance(window, MappedWindow)
        assert (cache.hits, cache.misses, len(cache)) == (0, 1, 0)
        memo = steady_memo()
        cache.store(key, memo)
        hit = cache.get_or_map(kernel, config, params, 4)
        assert (cache.hits, cache.misses, len(cache)) == (1, 1, 1)
        assert hit == (key, memo, None)
        assert hit[1] is memo  # the stored memo, not a copy

    def test_distinct_iterations_are_distinct_entries(self):
        kernel, config, params = fft_point()
        cache = MappedWindowCache()
        memos = {}
        for iterations in (2, 4):
            key, _, window = cache.get_or_map(kernel, config, params,
                                              iterations)
            assert window.iterations == iterations
            memos[iterations] = steady_memo()
            cache.store(key, memos[iterations])
        assert (cache.misses, len(cache)) == (2, 2)
        for iterations in (2, 4):
            _, steady, _ = cache.get_or_map(kernel, config, params,
                                            iterations)
            assert steady is memos[iterations]

    def test_miss_maps_at_requested_offset(self):
        kernel, config, params = fft_point()
        cache = MappedWindowCache()
        _, _, window = cache.get_or_map(kernel, config, params, 4,
                                        record_offset=12)
        fresh = map_window(kernel, config, params, iterations=4,
                           record_offset=12)
        assert window.record_offset == 12
        assert window.record_base == fresh.record_base
        assert window.out_base == fresh.out_base
        assert window.instances == fresh.instances

    def test_miss_returns_a_private_window(self):
        kernel, config, params = fft_point()
        cache = MappedWindowCache()
        first = cache.get_or_map(kernel, config, params, 4)
        second = cache.get_or_map(kernel, config, params, 4)
        assert first[0] == second[0]
        assert second[2] is not first[2]
        assert (cache.hits, cache.misses, len(cache)) == (0, 2, 0)

    def test_independent_kernel_builds_share_entry(self):
        """Content addressing: two separately-built copies of the same
        kernel hit one cache line."""
        s = spec("fft")
        config, params = MachineConfig.S_O(), MachineParams()
        cache = MappedWindowCache()
        key, _, _ = cache.get_or_map(s.build(), config, params, 4)
        memo = steady_memo()
        cache.store(key, memo)
        assert cache.get_or_map(s.build(), config, params, 4)[1] is memo
        assert (cache.hits, cache.misses) == (1, 1)

    def test_lru_eviction_is_bounded(self):
        kernel, config, params = fft_point()
        cache = MappedWindowCache(maxsize=2)
        for iterations in (1, 2, 3):
            key, _, _ = cache.get_or_map(kernel, config, params, iterations)
            cache.store(key, steady_memo())
        assert len(cache) == 2
        # iterations=1 was least recently used: re-requesting it misses.
        _, steady, window = cache.get_or_map(kernel, config, params, 1)
        assert steady is None and window is not None
        assert cache.misses == 4 and cache.hits == 0

    def test_engine_cores_have_distinct_entries(self):
        """The active engine core is part of the key: a run under one
        core never replays the other core's memo, so the cross-core
        tests keep comparing two simulations.  Each core's miss maps
        its own kind of window — lazy or eager — with equal content."""
        kernel, config, params = fft_point()
        cache = MappedWindowCache()
        with using_core("array"):
            array_key, _, lazy = cache.get_or_map(kernel, config, params, 4)
            cache.store(array_key, steady_memo())
        with using_core("object"):
            object_key, steady, eager = cache.get_or_map(kernel, config,
                                                         params, 4)
        assert steady is None
        assert object_key != array_key
        assert (cache.hits, cache.misses, len(cache)) == (0, 2, 1)
        assert not lazy.materialized and eager.materialized
        assert eager == lazy  # content equality regardless of core
        object_memo = steady_memo()
        cache.store(object_key, object_memo)
        with using_core("object"):
            assert cache.get_or_map(kernel, config, params, 4)[1] \
                is object_memo
        assert cache.hits == 1

    def test_clear_resets_counters(self):
        kernel, config, params = fft_point()
        cache = MappedWindowCache()
        key, _, _ = cache.get_or_map(kernel, config, params, 4)
        cache.store(key, steady_memo())
        cache.clear()
        assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)


class _RacingEntries(OrderedDict):
    """The cache's entries, with another thread's eviction landing at
    one chosen point."""

    def __init__(self, race_on):
        super().__init__()
        self.race_on = race_on

    def get(self, key, default=None):
        value = super().get(key, default)
        if self.race_on == "get":
            self.clear()  # evicted after the get, before move_to_end
        return value

    def popitem(self, last=True):
        if self.race_on == "popitem":
            self.clear()  # another thread evicted the last entry first
        return super().popitem(last=last)


class TestConcurrentBookkeeping:
    """No lock guards the cache: a concurrent caller's eviction between
    two of its steps must not raise."""

    def test_eviction_between_get_and_move_to_end(self):
        kernel, config, params = fft_point()
        cache = MappedWindowCache()
        key, _, _ = cache.get_or_map(kernel, config, params, 4)
        memo = steady_memo()
        cache._steady = _RacingEntries("get")
        cache.store(key, memo)
        assert cache.get_or_map(kernel, config, params, 4)[1] is memo
        assert (cache.hits, len(cache)) == (1, 0)

    def test_two_threads_evicting_at_once(self):
        cache = MappedWindowCache(maxsize=1)
        cache._steady = _RacingEntries("popitem")
        cache.store("a", steady_memo())
        cache.store("b", steady_memo())
        assert len(cache) == 0

    def test_threads_hammering_one_small_cache(self, monkeypatch):
        """Real threads, a 10 µs switch interval, more keys than slots:
        every lookup returns a memo or a window, never raises, and the
        counters add up."""
        kernel, config, params = fft_point()
        monkeypatch.setattr(window_cache_mod, "map_window",
                            lambda *args, **kwargs: object())
        cache = MappedWindowCache(maxsize=2)
        errors, lookups = [], 4 * 200

        def worker(seed):
            try:
                for step in range(lookups // 4):
                    key, steady, window = cache.get_or_map(
                        kernel, config, params, 1 + (seed + step) % 5)
                    assert (steady is None) != (window is None)
                    if window is not None:
                        cache.store(key, steady_memo())
            except Exception as exc:  # reported by the asserts below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(seed,),
                                    daemon=True) for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert cache.hits + cache.misses == lookups
        assert len(cache) <= 2


class TestProcessorIntegration:
    def test_processor_defaults_to_shared_cache(self):
        assert GridProcessor().window_cache is SHARED_WINDOW_CACHE

    def test_injected_cache_is_used_and_results_stable(self):
        s = spec("convert")
        kernel, records = s.kernel(), s.workload(8, 5)
        cache = MappedWindowCache()
        processor = GridProcessor(window_cache=cache)
        first = processor.run(kernel, records, MachineConfig.S())
        assert cache.misses == 1
        second = processor.run(kernel, records, MachineConfig.S())
        assert cache.hits >= 1
        assert second == first


#: The configurations whose runs replay one mapped window per window of
#: records (the MIMD configurations run every record instead).
BLOCK_CONFIGS = ("baseline", "S", "S-O", "S-O-D")

#: The keys ``MemorySystem.metrics_snapshot`` folds into a run's detail.
MEMORY_KEYS = tuple(MemorySystem().metrics_snapshot())


def memory_detail(result):
    return {key: result.detail[key] for key in MEMORY_KEYS}


def engine_runs(monkeypatch):
    """Count the dataflow engines the processor builds (a list of seeds)."""
    seeds = []
    engine = processor_mod.DataflowEngine

    def counting_engine(window, memory, seed):
        seeds.append(seed)
        return engine(window, memory, seed=seed)

    monkeypatch.setattr(processor_mod, "DataflowEngine", counting_engine)
    return seeds


class TestSteadyWindowPremise:
    """The memo's premise: a block-style point's steady window depends on
    the window-cache key alone, never on the record values or on how
    many windows the stream holds."""

    @pytest.mark.parametrize("core", ["array", "object"])
    @pytest.mark.parametrize("name", [s.name for s in all_specs()])
    def test_steady_window_ignores_record_data(self, name, core):
        s = spec(name)
        kernel, params = s.kernel(), MachineParams()
        for config_name in BLOCK_CONFIGS:
            config = named_config(config_name)
            if not GridProcessor(params).supports(kernel, config):
                continue
            # A stream of U records fills one window; a longer one keeps U.
            U = window_iterations(kernel, config, params)
            runs = []
            with using_core(core):
                for seed, records in ((1, U), (2, U), (3, 2 * U + 1)):
                    processor = GridProcessor(
                        params, window_cache=MappedWindowCache()
                    )
                    runs.append(processor.run(
                        kernel, s.workload(records, seed), config
                    ))
            first = runs[0]
            for other in runs[1:]:
                assert other.window == first.window, config_name
                assert memory_detail(other) == memory_detail(first), \
                    config_name


#: A slice of mixed service-style traffic: each kernel under every
#: configuration (MIMD included), two seeds, two stream lengths.
MIXED_KERNELS = ("convert", "fft", "fragment-simple", "md5")


class TestSteadyWindowMemo:
    def test_mixed_sequence_equals_fresh_cache_runs(self):
        params = MachineParams()
        shared = GridProcessor(params, window_cache=MappedWindowCache())
        for seed in (11, 12):
            for records in (64, 200):
                for name in MIXED_KERNELS:
                    s = spec(name)
                    kernel, stream = s.kernel(), s.workload(records, seed)
                    for config in (MachineConfig.baseline(),
                                   *TABLE5_CONFIGS):
                        if not shared.supports(kernel, config):
                            continue
                        fresh = GridProcessor(
                            params, window_cache=MappedWindowCache()
                        ).run(kernel, stream, config)
                        point = (name, config.name, records, seed)
                        assert shared.run(kernel, stream, config) == fresh, \
                            point
        assert shared.window_cache.hits > 0

    def test_hit_runs_no_engine(self, monkeypatch):
        seeds = engine_runs(monkeypatch)
        s = spec("convert")
        processor = GridProcessor(window_cache=MappedWindowCache())
        first = processor.run(s.kernel(), s.workload(64, 1),
                              MachineConfig.S_O_D())
        assert seeds == [1, 2]
        second = processor.run(s.kernel(), s.workload(64, 2),
                               MachineConfig.S_O_D())
        assert seeds == [1, 2]
        assert second.window == first.window
        assert second.detail == first.detail

    def test_hits_share_no_mutable_state(self):
        s = spec("fft")
        kernel, records = s.kernel(), s.workload(16, 3)
        config = MachineConfig.S_O()
        processor = GridProcessor(window_cache=MappedWindowCache())
        results = [processor.run(kernel, records, config) for _ in range(3)]
        pristine_window = dict(results[2].window.detail)
        pristine_detail = dict(results[2].detail)
        for result in results[:2]:
            result.window.detail["network_hops"] = -1.0
            result.window.detail["poison"] = 1.0
            result.detail["l1.accesses"] = -1.0
        later = processor.run(kernel, records, config)
        assert later.window.detail == pristine_window
        assert later.detail == pristine_detail
        assert later.window is not results[2].window

    def test_engine_error_stores_nothing(self, monkeypatch):
        def failing_run(self):
            raise RuntimeError("engine fault")

        s = spec("convert")
        kernel, records = s.kernel(), s.workload(8, 1)
        cache = MappedWindowCache()
        processor = GridProcessor(window_cache=cache)
        monkeypatch.setattr(processor_mod.DataflowEngine, "run", failing_run)
        for _ in range(2):
            with pytest.raises(RuntimeError, match="engine fault"):
                processor.run(kernel, records, MachineConfig.S())
        assert len(cache) == 0
        _, steady, window = cache.get_or_map(kernel, MachineConfig.S(),
                                             MachineParams(), 8)
        assert steady is None and window is not None
        assert (cache.hits, cache.misses) == (0, 3)

    def test_clear_and_eviction_drop_the_memo(self, monkeypatch):
        seeds = engine_runs(monkeypatch)
        s = spec("convert")
        kernel, records = s.kernel(), s.workload(8, 1)
        cache = MappedWindowCache(maxsize=1)
        processor = GridProcessor(window_cache=cache)
        processor.run(kernel, records, MachineConfig.S())
        cache.clear()
        processor.run(kernel, records, MachineConfig.S())
        assert len(seeds) == 4
        processor.run(kernel, records, MachineConfig.S_O())  # evicts S
        processor.run(kernel, records, MachineConfig.S())
        assert len(seeds) == 8

    def test_memo_hit_records_its_window_map_phase(self):
        from repro.perf.phases import measuring

        s = spec("convert")
        processor = GridProcessor(window_cache=MappedWindowCache())
        processor.run(s.kernel(), s.workload(8, 1), MachineConfig.S())
        with measuring() as phases:
            processor.run(s.kernel(), s.workload(8, 1), MachineConfig.S())
            snapshot = phases.snapshot()
        assert "window_map" in snapshot
        assert "block_engine" not in snapshot


class TestObserversBypassTheMemo:
    """With an observer on, a memoized point still runs both passes."""

    def memoized(self):
        s = spec("convert")
        processor = GridProcessor(window_cache=MappedWindowCache())
        point = (s.kernel(), s.workload(64, 1), MachineConfig.S_O_D())
        reference = processor.run(*point)
        return processor, point, reference

    def test_trace_records_the_steady_window(self, monkeypatch):
        processor, point, reference = self.memoized()
        seeds = engine_runs(monkeypatch)
        with recording() as rec:
            result = processor.run(*point)
        issues = [e for e in rec.events if e["cat"] == "execution"]
        TRACE.clear()
        assert seeds == [1, 2]
        assert len(issues) == result.window.machine_instructions
        assert result == reference

    def test_metrics_collect_engine_and_memory_counts(self, monkeypatch):
        processor, point, reference = self.memoized()
        seeds = engine_runs(monkeypatch)
        with collecting() as reg:
            result = processor.run(*point)
        snap = reg.snapshot()
        METRICS.reset()
        assert seeds == [1, 2]
        assert snap["alu.instances_issued"] > 0
        assert snap["l1.accesses"] == result.detail["l1.accesses"]
        assert result == reference

    def test_sanitizer_checks_both_passes(self, monkeypatch):
        processor, point, reference = self.memoized()
        checked = []
        sanitize = processor_mod.DataflowEngine._sanitize_run

        def counting_sanitize(self, *args, **kwargs):
            checked.append(self)
            return sanitize(self, *args, **kwargs)

        monkeypatch.setattr(processor_mod.DataflowEngine, "_sanitize_run",
                            counting_sanitize)
        with checking() as san:
            result = processor.run(*point)
            assert san.total == 0
        assert len(checked) == 2
        assert result == reference


class TestSharedWindowRace:
    """Two threads running one block point share its cached window.

    Thread A's warm pass runs on the window rebased to offset ``U``;
    a hit in thread B rebases the same window to offset 0.  The rebase
    wrapper below makes the interleaving deterministic: right after A
    rebases for its warm pass it starts B on the same point and waits
    until B enters its cold pass (or 0.5 s), and B's own rebase waits
    until A is done.  Unserialized, A's warm pass times the cold
    pass's records, which the L1 of a baseline point already holds.
    """

    @pytest.mark.parametrize("core", ["array", "object"])
    def test_concurrent_hit_cannot_rebase_a_warm_pass(self, core,
                                                      monkeypatch):
        s = spec("dct")
        kernel, records = s.kernel(), s.workload(64, 3)
        config = MachineConfig.baseline()
        with using_core(core):
            serial = GridProcessor(window_cache=MappedWindowCache()).run(
                kernel, records, config
            )
        shared = GridProcessor(window_cache=MappedWindowCache())
        rebase = processor_mod.rebase_window
        engine = processor_mod.DataflowEngine
        main = threading.current_thread()
        entered, a_done = threading.Event(), threading.Event()
        results = {}

        def run_b():
            # using_core scopes the calling thread only: pin B too.
            with using_core(core):
                results["b"] = shared.run(kernel, records, config)

        other = threading.Thread(target=run_b, daemon=True)

        def racing_rebase(window, record_offset):
            rebase(window, record_offset)
            if threading.current_thread() is main:
                other.start()
                entered.wait(0.5)
            else:
                a_done.wait(5.0)
            return window

        def spying_engine(window, memory, seed):
            if threading.current_thread() is other:
                entered.set()
            return engine(window, memory, seed=seed)

        monkeypatch.setattr(processor_mod, "rebase_window", racing_rebase)
        monkeypatch.setattr(processor_mod, "DataflowEngine", spying_engine)
        with using_core(core):
            try:
                results["a"] = shared.run(kernel, records, config)
            finally:
                a_done.set()
                if other.is_alive():
                    other.join(10.0)
        assert not other.is_alive()
        assert results["a"] == serial
        assert results["b"] == serial

    def test_threads_sharing_a_cache_match_serial_runs(self):
        """Stress: more threads than cores, a 10 µs switch interval, one
        shared cache; every result must equal its serial run."""
        points = [("dct", "baseline"), ("highpassfilter", "baseline"),
                  ("lu", "baseline"), ("fft", "S"), ("convert", "S-O-D")]
        inputs = {
            (name, config): (spec(name).kernel(), spec(name).workload(64, 1),
                             named_config(config))
            for name, config in points
        }
        shared = GridProcessor(window_cache=MappedWindowCache())
        results = []

        def worker():
            with using_core("object"):  # scopes this thread only
                for point in points:
                    results.append((point, shared.run(*inputs[point])))

        threads = [threading.Thread(target=worker, daemon=True)
                   for _ in range(4)]
        with using_core("object"):
            serial = {
                point: GridProcessor(window_cache=MappedWindowCache()).run(
                    *inputs[point])
                for point in points
            }
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60.0)
            finally:
                sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == len(threads) * len(points)
        for point, result in results:
            assert result == serial[point], point


def mapped_windows(monkeypatch):
    """Weak references to every window mapped from here on."""
    refs = []
    init = MappedWindow.__init__

    def spying_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(MappedWindow, "__init__", spying_init)
    return refs


class TestNoWindowOutlivesItsPoint:
    """The cache keeps steady windows, not mapped structures: each
    block point's window is freed once the point has timed it."""

    def test_paper_pass_keeps_no_mapped_window(self, monkeypatch):
        from repro.harness import experiments

        refs = mapped_windows(monkeypatch)
        SHARED_WINDOW_CACHE.clear()
        ctx = experiments.ExperimentContext(records=32,
                                            large_kernel_records=16)
        experiments.figure5(ctx)
        experiments.table4(ctx)
        experiments.table6(ctx)
        gc.collect()
        assert len(refs) == 40  # one per distinct block window
        assert [ref for ref in refs if ref() is not None] == []
        assert SHARED_WINDOW_CACHE.misses == len(SHARED_WINDOW_CACHE) == 40

    def test_hit_maps_no_window_unless_observed(self, monkeypatch):
        s = spec("convert")
        point = (s.kernel(), s.workload(64, 1), MachineConfig.S_O_D())
        processor = GridProcessor(window_cache=MappedWindowCache())
        reference = processor.run(*point)
        refs = mapped_windows(monkeypatch)
        assert processor.run(*point) == reference
        assert refs == []
        with checking():
            assert processor.run(*point) == reference
        gc.collect()
        assert len(refs) == 1 and refs[0]() is None
        assert processor.window_cache.hits == 2
