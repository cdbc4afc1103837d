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

import numpy
import pytest

from repro.check.sanitizer import checking
from repro.isa.random_kernels import RandomKernelConfig, random_kernel
from repro.kernels import all_specs, spec
from repro.machine import GridProcessor, MachineConfig, MachineParams, \
    TABLE5_CONFIGS, map_window
from repro.machine import processor as processor_mod
from repro.machine import window_cache as window_cache_mod
from repro.machine.config import named_config
from repro.machine.fastcore import using_core
from repro.machine.mapping import MappedWindow, touches_l1, \
    window_iterations
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


def rebases(monkeypatch):
    """Count the processor's ``rebase_window`` calls (a list of
    offsets)."""
    offsets = []
    rebase = processor_mod.rebase_window

    def counting_rebase(window, record_offset):
        offsets.append(record_offset)
        return rebase(window, record_offset)

    monkeypatch.setattr(processor_mod, "rebase_window", counting_rebase)
    return offsets


def block_points():
    """Every registry (kernel, block configuration) pair the machine
    supports."""
    params = MachineParams()
    points = []
    for s in all_specs():
        kernel = s.kernel()
        for config_name in BLOCK_CONFIGS:
            config = named_config(config_name)
            if GridProcessor(params).supports(kernel, config):
                points.append((s.name, kernel, config))
    return points


def two_pass_memo(processor, kernel, config, U):
    """The executable specification: cold pass, rebase, warm pass."""
    window = map_window(kernel, config, processor.params, iterations=U)
    return processor.steady_two_pass(window)


def one_pass_memo(processor, kernel, config, U):
    """The warm pass alone, on a window mapped at offset ``U``."""
    window = map_window(kernel, config, processor.params, iterations=U,
                        record_offset=U)
    return processor.steady_one_pass(window)


def ldi_kernel():
    """A random kernel whose body reads an irregular space (an LDI)."""
    kernel = random_kernel(5, RandomKernelConfig(
        size=24, record_in=3, record_out=2, space_size=32))
    assert any(inst.op.name == "LDI" for inst in kernel.body)
    return kernel


class TestOnePassPremise:
    """The one-pass rule's premise: a window that cannot touch the L1
    has a cold pass that leaves nothing its warm pass reads, and the
    only counter the two passes add up is ``channel.words_delivered``."""

    def test_predicate_matches_mapped_windows(self):
        params = MachineParams()
        points = block_points()
        with using_core("array"):
            for name, kernel, config in points:
                window = map_window(
                    kernel, config, params,
                    iterations=window_iterations(kernel, config, params),
                )
                assert touches_l1(kernel, config) \
                    == window._fastcore_soa.has_l1, (name, config.name)
        assert len(points) == 56

    @pytest.mark.parametrize("core", ["array", "object"])
    def test_one_pass_memo_equals_two_passes(self, core):
        """Every L1-free registry window, at stream lengths 1, 7, 64,
        200 and 512 (lengths that share a ``U`` share a memo key, so
        each ``U`` is timed once)."""
        params = MachineParams()
        checked = 0
        with using_core(core):
            for name, kernel, config in block_points():
                if touches_l1(kernel, config):
                    continue
                full = window_iterations(kernel, config, params)
                for U in sorted({min(full, n) for n in (1, 7, 64, 200, 512)}):
                    processor = GridProcessor(
                        params, window_cache=MappedWindowCache())
                    memo = processor._steady_window(kernel, config, U)
                    reference = two_pass_memo(processor, kernel, config, U)
                    point = (name, config.name, U)
                    assert memo[0] == reference[0], point
                    # Key by key and in order: a cache document
                    # serializes the snapshot as it stands.
                    assert list(memo[1].items()) \
                        == list(reference[1].items()), point
                    assert memo[1]["channel.words_delivered"] > 0, point
                    checked += 1
        assert checked >= 27

    @pytest.mark.parametrize("kind", ["load", "lut", "ldi"])
    def test_one_pass_differs_for_windows_that_touch_the_l1(self, kind):
        """Widening the rule to any L1 kind changes the memo."""
        if kind == "load":
            kernel, config = spec("convert").kernel(), MachineConfig.baseline()
        elif kind == "lut":
            kernel, config = spec("blowfish").kernel(), MachineConfig.S()
        else:
            kernel, config = ldi_kernel(), MachineConfig.S()
        assert touches_l1(kernel, config)
        processor = GridProcessor(window_cache=MappedWindowCache())
        U = min(8, window_iterations(kernel, config, processor.params))
        one = one_pass_memo(processor, kernel, config, U)
        two = two_pass_memo(processor, kernel, config, U)
        assert one != two
        assert one[1]["l1.accesses"] < two[1]["l1.accesses"]

    def test_one_pass_window_is_mapped_at_its_warm_offset(self):
        processor = GridProcessor(window_cache=MappedWindowCache())
        kernel, config = spec("convert").kernel(), MachineConfig.S_O()
        window = map_window(kernel, config, processor.params, iterations=4)
        with pytest.raises(ValueError, match="record offset 4"):
            processor.steady_one_pass(window)

    def test_miss_runs_one_pass_and_no_rebase(self, monkeypatch):
        seeds, offsets = engine_runs(monkeypatch), rebases(monkeypatch)
        s = spec("convert")
        processor = GridProcessor(window_cache=MappedWindowCache())
        processor.run(s.kernel(), s.workload(64, 1), MachineConfig.S_O())
        assert (seeds, offsets) == ([2], [])
        processor.run(s.kernel(), s.workload(64, 1), MachineConfig.baseline())
        U = window_iterations(s.kernel(), MachineConfig.baseline(),
                              processor.params)
        assert (seeds, offsets) == ([2, 1, 2], [U])

    @pytest.mark.parametrize("observer", ["trace", "metrics", "sanitizer"])
    def test_observed_miss_runs_both_passes(self, observer, monkeypatch):
        seeds, offsets = engine_runs(monkeypatch), rebases(monkeypatch)
        s = spec("convert")
        point = (s.kernel(), s.workload(64, 1), MachineConfig.S_O())
        reference = GridProcessor(window_cache=MappedWindowCache()).run(
            *point)
        seeds.clear()
        observe = {"trace": recording, "metrics": collecting,
                   "sanitizer": checking}[observer]
        with observe():
            result = GridProcessor(window_cache=MappedWindowCache()).run(
                *point)
        TRACE.clear()
        METRICS.reset()
        U = result.window.iterations
        assert (seeds, offsets) == ([1, 2], [U])
        assert result == reference


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
        assert seeds == [2]  # no L1 access: the warm pass alone
        second = processor.run(s.kernel(), s.workload(64, 2),
                               MachineConfig.S_O_D())
        assert seeds == [2]
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
        assert seeds == [2, 2]  # one pass per miss: no L1 access
        processor.run(kernel, records, MachineConfig.S_O())  # evicts S
        processor.run(kernel, records, MachineConfig.S())
        assert seeds == [2, 2, 2, 2]

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


def soa_mismatches(fused, rebuilt):
    """Names of the ``WindowSoA`` columns on which two SoAs differ."""
    from repro.machine.fastcore.dataflow_core import WindowSoA

    bad = []
    for name in WindowSoA.__slots__:
        a, b = getattr(fused, name), getattr(rebuilt, name)
        if name in ("lut_info", "ldi_info"):
            # (uids, bases, sizes, iters, kiids): numpy columns.
            same = (a is None) == (b is None) and (a is None or (
                len(a) == len(b)
                and all(numpy.array_equal(x, y) for x, y in zip(a, b))
            ))
        elif isinstance(a, numpy.ndarray):
            same = numpy.array_equal(a, b)
        else:
            same = a == b
        if not same:
            bad.append(name)
    return bad


def reference_soa(kernel, config, params, iterations):
    """``build_soa`` of a freshly mapped, materialized window."""
    from repro.machine.fastcore.dataflow_core import build_soa

    with using_core("object"):
        fresh = map_window(kernel, config, params, iterations=iterations)
    return build_soa(fresh)


def placements(monkeypatch):
    """Count ``place_iterations`` calls made through ``mapping``."""
    from repro.machine import mapping

    calls = []
    place = mapping.place_iterations

    def counting(kernel, params, iterations):
        calls.append((kernel.name, iterations))
        return place(kernel, params, iterations)

    monkeypatch.setattr(mapping, "place_iterations", counting)
    return calls


#: The configuration orders the shape-sharing tests map through one
#: cache: S-configurations in paper order, with baseline and M between
#: them, and reversed.
SHAPE_ORDERS = (
    ("S", "S-O", "S-O-D"),
    ("S", "baseline", "S-O", "M", "S-O-D"),
    ("S-O-D", "S-O", "S"),
)


class TestWindowShapeSlot:
    """S, S-O and S-O-D of a kernel share one placement and one set of
    routed window columns through the cache's shape slot, read-only."""

    def test_configurations_of_one_shape_place_once(self, monkeypatch):
        kernel, params = spec("fft").kernel(), MachineParams()
        cache = MappedWindowCache()
        calls = placements(monkeypatch)
        U = window_iterations(kernel, MachineConfig.S(), params)
        windows = [
            cache.get_or_map(kernel, named_config(name), params, U)[2]
            for name in ("S", "S-O", "S-O-D")
        ]
        assert calls == [("fft", U)]
        assert windows[0].placement is windows[2].placement
        assert windows[0]._fastcore_soa.cons is windows[1]._fastcore_soa.cons
        # A shape reuse is a miss like any other.
        assert (cache.hits, cache.misses, len(cache)) == (0, 3, 0)

    def test_other_shapes_replace_the_slot_first(self, monkeypatch):
        """Another U, streaming mode or kernel places anew, and the old
        shape is dropped before the new one is placed."""
        from repro.machine import mapping

        params = MachineParams()
        cache = MappedWindowCache()
        slots = []
        place = mapping.place_iterations

        def spying(kernel, params, iterations):
            slots.append(cache._shape)
            return place(kernel, params, iterations)

        monkeypatch.setattr(mapping, "place_iterations", spying)
        fft, lu = spec("fft").kernel(), spec("lu").kernel()
        cache.get_or_map(fft, MachineConfig.S(), params, 8)
        cache.get_or_map(fft, MachineConfig.S_O(), params, 4)
        cache.get_or_map(fft, MachineConfig.baseline(), params, 4)
        cache.get_or_map(lu, MachineConfig.baseline(), params, 4)
        cache.get_or_map(lu, MachineConfig.baseline(), params, 4)
        assert slots == [None] * 4

    def test_clear_drops_the_slot(self, monkeypatch):
        kernel, params = spec("fft").kernel(), MachineParams()
        cache = MappedWindowCache()
        calls = placements(monkeypatch)
        cache.get_or_map(kernel, MachineConfig.S(), params, 8)
        cache.clear()
        assert cache._shape is None
        cache.get_or_map(kernel, MachineConfig.S_O(), params, 8)
        assert len(calls) == 2

    def test_object_core_maps_every_window_in_full(self, monkeypatch):
        kernel, params = spec("fft").kernel(), MachineParams()
        cache = MappedWindowCache()
        calls = placements(monkeypatch)
        with using_core("object"):
            for config in (MachineConfig.S(), MachineConfig.S_O()):
                cache.get_or_map(kernel, config, params, 8)
        assert len(calls) == 2 and cache._shape is None

    @pytest.mark.parametrize("observe", ["trace", "metrics", "sanitizer"])
    def test_observers_bypass_the_slot(self, observe, monkeypatch):
        kernel, params = spec("fft").kernel(), MachineParams()
        cache = MappedWindowCache()
        cache.get_or_map(kernel, MachineConfig.S(), params, 8)
        calls = placements(monkeypatch)
        scope = {"trace": recording, "metrics": collecting,
                 "sanitizer": checking}[observe]
        with scope() as observer:
            cache.get_or_map(kernel, MachineConfig.S_O(), params, 8)
            if observe == "metrics":
                assert observer.snapshot()["placement.windows_placed"] == 1
        METRICS.reset()
        TRACE.clear()
        assert len(calls) == 1

    def test_columns_split_between_shape_and_configuration(self):
        """Every WindowSoA column is either shared by the shape or built
        per configuration; the configuration's are exactly the ones its
        flags can change."""
        from repro.machine.fastcore.dataflow_core import WindowSoA
        from repro.machine.fastcore.map_core import SHAPE_COLUMNS

        per_config = set(WindowSoA.__slots__) - set(SHAPE_COLUMNS)
        assert set(SHAPE_COLUMNS) <= set(WindowSoA.__slots__)
        assert per_config == {
            "latencies", "operands", "zero_uids", "codes", "has_l1",
            "lut_info", "const_deliveries", "n_const_reads",
        }

    @pytest.mark.parametrize("core", ["array", "object"])
    @pytest.mark.parametrize("name", [s.name for s in all_specs()])
    def test_shared_shapes_match_fresh_windows(self, name, core,
                                               monkeypatch):
        """Through one cache, in every order: each window's SoA equals
        ``build_soa`` of a fresh window — checked again once the whole
        order has run, so a column one configuration's engines wrote
        shows in another's — and each result equals a fresh cache's.
        At 16 records several kernels' baseline and S windows have one
        ``U``, so only the streaming mode tells their shapes apart."""
        s = spec(name)
        kernel, params = s.kernel(), MachineParams()
        records = s.workload(16, 1)
        support = GridProcessor(params)
        fresh_results, fresh_soas = {}, {}
        windows = []
        init = MappedWindow.__init__

        def keeping_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            windows.append(self)

        monkeypatch.setattr(MappedWindow, "__init__", keeping_init)
        for order in SHAPE_ORDERS:
            shared = GridProcessor(params, window_cache=MappedWindowCache())
            checked = []
            for config_name in order:
                config = named_config(config_name)
                if not support.supports(kernel, config):
                    continue
                with using_core(core):
                    if config_name not in fresh_results:
                        fresh_results[config_name] = GridProcessor(
                            params, window_cache=MappedWindowCache()
                        ).run(kernel, records, config)
                    del windows[:]
                    result = shared.run(kernel, records, config)
                assert result == fresh_results[config_name], \
                    (order, config_name)
                if config.local_pc or core != "array":
                    continue
                (window,) = windows
                if config_name not in fresh_soas:
                    fresh_soas[config_name] = reference_soa(
                        kernel, config, params, window.iterations)
                checked.append((config_name, window._fastcore_soa))
                assert soa_mismatches(window._fastcore_soa,
                                      fresh_soas[config_name]) == [], \
                    (order, config_name)
            for config_name, soa in checked:
                assert soa_mismatches(soa, fresh_soas[config_name]) == [], \
                    (order, config_name, "after the order ran")
            if core == "array" and len(checked) > 1:
                assert shared.window_cache._shape is not None


class TestSharedShapeRace:
    """Two threads mapping interleaved shapes through one cache."""

    def test_shape_replaced_mid_expansion_serves_its_window(self,
                                                           monkeypatch):
        """Thread A's S-O miss takes fft's shape from the slot; before A
        expands its window, thread B's lu miss empties the slot and
        places lu's shape.  A's window still comes from the shape it
        took, and both windows equal fresh ones."""
        params = MachineParams()
        fft, lu = spec("fft").kernel(), spec("lu").kernel()
        cache = MappedWindowCache()
        windows = {}
        expand = window_cache_mod.map_window
        main = threading.current_thread()

        def run_b():
            with using_core("array"):
                windows["b"] = cache.get_or_map(lu, MachineConfig.S(),
                                                params, 8)[2]

        other = threading.Thread(target=run_b, daemon=True)

        def racing_map_window(kernel, *args, **kwargs):
            if threading.current_thread() is main:
                other.start()
                other.join(10.0)
            return expand(kernel, *args, **kwargs)

        with using_core("array"):
            cache.get_or_map(fft, MachineConfig.S(), params, 8)
            monkeypatch.setattr(window_cache_mod, "map_window",
                                racing_map_window)
            windows["a"] = cache.get_or_map(fft, MachineConfig.S_O(),
                                            params, 8)[2]
        assert not other.is_alive()
        assert cache._shape[1].placement is windows["b"].placement
        for name, kernel, config in (("a", fft, MachineConfig.S_O()),
                                     ("b", lu, MachineConfig.S())):
            window = windows[name]
            assert soa_mismatches(
                window._fastcore_soa,
                reference_soa(kernel, config, params, 8),
            ) == [], name
            assert window.placement.iterations == 8

    def test_threads_interleaving_shapes_match_serial_runs(self):
        """A one-memo cache keeps evicting, so nearly every run misses
        and maps through the shape slot while the other thread replaces
        it; every result must equal its serial run."""
        points = [("fft", "S"), ("dct", "S-O"), ("fft", "S-O"),
                  ("dct", "S"), ("fft", "S-O-D"), ("dct", "baseline"),
                  ("dct", "S-O-D"), ("fft", "baseline")]
        inputs = {
            (name, config): (spec(name).kernel(), spec(name).workload(64, 1),
                             named_config(config))
            for name, config in points
        }
        with using_core("array"):
            serial = {
                point: GridProcessor(window_cache=MappedWindowCache()).run(
                    *inputs[point])
                for point in points
            }
        shared = GridProcessor(window_cache=MappedWindowCache(maxsize=1))
        results, errors = [], []

        def worker(order):
            try:
                with using_core("array"):  # scopes this thread only
                    for _ in range(3):
                        for point in order:
                            results.append(
                                (point, shared.run(*inputs[point])))
            except Exception as exc:  # reported by the asserts below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(order,),
                                    daemon=True)
                   for order in (points, points[::-1])]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(results) == 2 * 3 * len(points)
        for point, result in results:
            assert result == serial[point], point
        assert shared.window_cache.misses > len(points)
