"""Engine hot paths: the default array core vs the object loop.

``DataflowEngine.run``, ``MimdEngine.run`` (once per run, for its
whole record loop) and ``place_iterations`` each branch once, to the
array core of ``repro.machine.fastcore`` (the default) or to the object
loop, which is kept as the executable specification and selected with
``using_core("object")``.  These tests pin the cycle-count-equivalence
guard at those entry points: both paths must produce identical
timings, stats, traces, placements and errors — any divergence is a
correctness bug in the array core, never an acceptable approximation.
Unlike ``test_fastcore_equivalence``, which maps each side under its
own core, the dataflow cases here run both loops on windows mapped the
same way, so only the issue loop differs.
"""

import pytest

from repro.isa.random_kernels import RandomKernelConfig, random_kernel
from repro.kernels import spec
from repro.kernels.registry import all_specs
from repro.machine import DataflowEngine, GridProcessor, MachineConfig, \
    MachineParams, MimdEngine, map_window, rebase_window
from repro.machine.dataflow_engine import STORE as STORE_KIND
from repro.machine.dataflow_engine import DeadlockError
from repro.machine.fastcore import using_core
from repro.machine.placement import max_unroll, place_iterations
from repro.machine.window_cache import MappedWindowCache
from repro.memory import MemorySystem

CONFIGS = [MachineConfig.baseline(), MachineConfig.S(),
           MachineConfig.S_O(), MachineConfig.S_O_D()]


def corpus_case(seed):
    """One deterministic fuzzer point (kernel, records, config, window)."""
    cfg = RandomKernelConfig(
        size=10 + seed % 30,
        record_in=2 + seed % 5,
        record_out=1 + seed % 3,
        integer=seed % 2 == 0,
        n_constants=seed % 4,
        table_size=16 if seed % 3 == 0 else 0,
        space_size=32 if seed % 5 == 0 else 0,
        variable_loop_trips=4 if seed % 7 == 0 else 0,
    )
    kernel = random_kernel(seed, cfg)
    config = CONFIGS[seed % 4]
    iterations = min(8, 1 + seed % 8)
    return kernel, config, iterations


def dataflow_pair(kernel, config, iterations, trace=False):
    """Two identical engines for one corpus point."""
    params = MachineParams()
    engines = []
    for _ in range(2):
        memory = MemorySystem(params.rows, params.memory_timings())
        memory.configure_smc(config.smc_stream)
        window = map_window(kernel, config, params, iterations=iterations)
        engines.append(DataflowEngine(window, memory, seed=1, trace=trace))
    return engines


def run_object(engine):
    """``DataflowEngine.run`` through the object issue loop."""
    with using_core("object"):
        return engine.run()


class TestDataflowEquivalence:
    @pytest.mark.parametrize("seed", range(16))
    def test_fuzz_corpus_identical_timing_and_stats(self, seed):
        kernel, config, iterations = corpus_case(seed)
        fast, reference = dataflow_pair(kernel, config, iterations)
        t_fast = fast.run()
        t_ref = run_object(reference)
        assert t_fast == t_ref
        assert fast.stats == reference.stats

    def test_traces_identical(self):
        kernel, config, iterations = corpus_case(3)
        fast, reference = dataflow_pair(kernel, config, iterations,
                                        trace=True)
        fast.run()
        run_object(reference)
        assert fast.trace == reference.trace

    def test_paper_kernel_identical(self):
        for name, config in [("convert", MachineConfig.S_O()),
                             ("md5", MachineConfig.baseline())]:
            kernel = spec(name).kernel()
            fast, reference = dataflow_pair(kernel, config, 4)
            assert fast.run() == run_object(reference)
            assert fast.stats == reference.stats

    def test_deadlock_raised_by_both_paths(self):
        kernel, config, iterations = corpus_case(1)
        fast, reference = dataflow_pair(kernel, config, iterations)
        fast.window.instances[-1].operands += 1
        reference.window.instances[-1].operands += 1
        # Out-of-band instance surgery invalidates the cached SoA;
        # rebase_window is the only mutation the cache is transparent
        # to (LOAD/STORE addresses are read from instances at issue).
        for engine in (fast, reference):
            engine.window.__dict__.pop("_fastcore_soa", None)
        with pytest.raises(DeadlockError):
            fast.run()
        with pytest.raises(DeadlockError):
            run_object(reference)
        # The array core syncs stats before raising, so both paths agree
        # on how far execution got.
        assert fast.stats == reference.stats


class TestPlacementMemoEquivalence:
    """Memoized array ``place_iterations`` vs the object placement."""

    @staticmethod
    def place_both(kernel, params, iterations):
        with using_core("array"):
            memoized = place_iterations(kernel, params, iterations)
        with using_core("object"):
            reference = place_iterations(kernel, params, iterations)
        return memoized, reference

    @pytest.mark.parametrize("seed", range(16))
    def test_fuzz_corpus_identical_placement(self, seed):
        kernel, _config, iterations = corpus_case(seed)
        memoized, reference = self.place_both(kernel, MachineParams(),
                                              iterations)
        assert memoized == reference

    @pytest.mark.parametrize("name", [s.name for s in all_specs()])
    def test_paper_kernels_at_full_unroll(self, name):
        """Full S-morph unroll wraps the array many times — exactly the
        regime where region signatures recur and replays kick in."""
        kernel = spec(name).kernel()
        params = MachineParams()
        U = max_unroll(kernel, params)
        memoized, reference = self.place_both(kernel, params, U)
        assert memoized == reference
        assert memoized.max_slot_usage() <= params.slots_per_node

    def test_overflow_raised_by_both_paths(self):
        kernel = spec("md5").kernel()
        params = MachineParams()
        too_many = params.nodes * params.slots_per_node
        messages = []
        for core in ("array", "object"):
            with using_core(core), pytest.raises(ValueError) as error:
                place_iterations(kernel, params, too_many)
            messages.append(str(error.value))
        assert messages[0] == messages[1]


class TestRebasedWindowEquivalence:
    """``rebase_window`` on a mapped window vs a fresh offset map."""

    @pytest.mark.parametrize("seed", [0, 3, 5, 8, 12, 15])
    def test_rebase_matches_fresh_map(self, seed):
        """Lazy (array) and materialized (object) windows both rebase to
        a window field-for-field equal to a fresh map at the offset."""
        kernel, config, iterations = corpus_case(seed)
        params = MachineParams()
        with using_core("object"):
            fresh = map_window(kernel, config, params,
                               iterations=iterations,
                               record_offset=iterations)
        for core in ("array", "object"):
            with using_core(core):
                rebased = map_window(kernel, config, params,
                                     iterations=iterations)
            rebase_window(rebased, iterations)
            assert rebased.record_base == fresh.record_base
            assert rebased.out_base == fresh.out_base
            assert rebased.record_offset == fresh.record_offset
            assert rebased.instances == fresh.instances
            assert rebased.const_reads == fresh.const_reads
            assert rebased.placement == fresh.placement
            assert rebased == fresh

    @pytest.mark.parametrize("seed", [2, 6, 9, 13])
    def test_warm_window_timing_matches_reference(self, seed):
        """The array core on a window it already ran, then rebased, must
        reproduce the object loop on an independently mapped window at
        the new offset."""
        kernel, config, iterations = corpus_case(seed)
        params = MachineParams()

        def engine(window):
            memory = MemorySystem(params.rows, params.memory_timings())
            memory.configure_smc(config.smc_stream)
            return DataflowEngine(window, memory, seed=2, trace=True)

        with using_core("array"):
            rebased = map_window(kernel, config, params,
                                 iterations=iterations)
            engine(rebased).run()
            rebase_window(rebased, iterations)
            fast = engine(rebased)
            t_fast = fast.run()
        with using_core("object"):
            fresh = map_window(kernel, config, params,
                               iterations=iterations,
                               record_offset=iterations)
            reference = engine(fresh)
            t_ref = reference.run()
        assert t_fast == t_ref
        assert fast.stats == reference.stats
        assert fast.trace == reference.trace

    def test_processor_cache_hit_is_bit_identical(self):
        """A GridProcessor replaying a steady window from the in-process
        cache (a hit) must match a cold object-loop run, under either
        core."""
        s = spec("fft")
        kernel, records = s.kernel(), s.workload(16, 3)
        config = MachineConfig.S_O()
        with using_core("object"):
            cold = GridProcessor(window_cache=MappedWindowCache()).run(
                kernel, records, config
            )
        for core in ("array", "object"):
            with using_core(core):
                warm_proc = GridProcessor(window_cache=MappedWindowCache())
                first = warm_proc.run(kernel, records, config)
                second = warm_proc.run(kernel, records, config)  # hit
            assert warm_proc.window_cache.hits > 0
            assert first == cold
            assert second == cold


def mimd_engine(name, config, functional=False):
    params = MachineParams()
    memory = MemorySystem(params.rows, params.memory_timings())
    memory.configure_smc(True)
    return MimdEngine(spec(name).kernel(), config, params, memory,
                      functional=functional)


def mimd_both(name, config, records):
    """One MIMD point under the array core and under the object loop."""
    fast = mimd_engine(name, config)
    with using_core("array"):
        r_fast = fast.run(records)
    reference = mimd_engine(name, config)
    with using_core("object"):
        r_ref = reference.run(records)
    return fast, r_fast, reference, r_ref


MIMD_POINTS = [("fft", "M"), ("md5", "M"), ("blowfish", "M-D"),
               ("rijndael", "M"), ("vertex-skinning", "M-D"),
               ("anisotropic-filter", "M-D")]


class TestMimdEquivalence:
    @pytest.mark.parametrize("name,cfg", MIMD_POINTS)
    def test_fast_path_matches_reference(self, name, cfg):
        config = MachineConfig.M() if cfg == "M" else MachineConfig.M_D()
        records = spec(name).workload(24, 5)
        fast, r_fast, reference, r_ref = mimd_both(name, config, records)
        assert r_fast == r_ref
        assert fast.stats == reference.stats

    def test_functional_mode_uses_reference_loop(self):
        """Functional runs take the object loop even under the array
        core, and compute the kernel's reference outputs."""
        s = spec("blowfish")
        records = s.workload(4, 5)
        engine = mimd_engine("blowfish", MachineConfig.M_D(),
                             functional=True)
        with using_core("array"):
            result = engine.run(records)
        for record, out in zip(records, result.outputs):
            assert out == s.reference(record)


def _mimd_capable_points():
    """Every (kernel, MIMD config) pair that fits the machine."""
    processor = GridProcessor()
    points = []
    for s in all_specs():
        kernel = s.kernel()
        for config in (MachineConfig.M(), MachineConfig.M_D()):
            if processor.supports(kernel, config):
                points.append((s.name, config.name))
    return points


class TestMimdAllKernelsEquivalence:
    """The array record core, swept over every capable benchmark."""

    @pytest.mark.parametrize("name,cfg", _mimd_capable_points())
    def test_batch_loop_matches_reference(self, name, cfg):
        config = MachineConfig.M() if cfg == "M" else MachineConfig.M_D()
        records = spec(name).workload(12, 11)
        fast, r_fast, reference, r_ref = mimd_both(name, config, records)
        assert r_fast == r_ref
        assert fast.stats == reference.stats


class TestStoreDrainCeiling:
    @pytest.mark.parametrize("done,expected", [(5.5, 6), (5.0, 5),
                                               (7.25, 8)])
    def test_fractional_store_drain_rounds_up(self, done, expected):
        """A store completing at a fractional cycle occupies the next
        whole cycle — the ceiling, not a truncation (the STORE path once
        used the ``int(-(-done // 1))`` idiom; it now uses math.ceil)."""

        class FractionalMemory:
            """Stub memory whose store buffer drains mid-cycle."""

            def __init__(self, done_at):
                self.done_at = done_at

            def smc_store(self, row, address, cycle):
                return self.done_at

        params = MachineParams()
        kernel = spec("convert").kernel()
        config = MachineConfig.S_O()
        window = map_window(kernel, config, params, iterations=1)
        memory = MemorySystem(params.rows, params.memory_timings())
        memory.configure_smc(True)
        engine = DataflowEngine(window, memory, seed=1)
        engine.memory = FractionalMemory(done)
        store = next(i for i in window.instances
                     if i.kind == STORE_KIND)
        completion = engine._issue(store, 0, lambda uid, at: None)
        assert completion == expected
        assert isinstance(completion, int)
