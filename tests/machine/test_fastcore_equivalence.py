"""Array engine cores vs the object loops they are pinned to.

Each hot path of the simulator has two implementations: the object loop
over per-instance records (the executable specification, selected by
``using_core("object")``) and the batch-stepped array core in
``repro.machine.fastcore``.  These tests pin the two to bit-exact
equality — identical placements, mapped windows, ``WindowTiming``,
``EngineStats``, traces and ``RunResult`` documents — across the pinned
fuzz corpus and every paper kernel, each side mapping its own window.
"""

import random
import threading

import numpy
import pytest

from repro.backends import dispatch, get
from repro.isa.random_kernels import RandomKernelConfig, random_kernel
from repro.kernels import spec
from repro.kernels.registry import all_specs
from repro.machine import DataflowEngine, GridProcessor, MachineConfig, \
    MachineParams, MimdEngine, map_window
from repro.machine import fastcore
from repro.machine.fastcore import active_core, mimd_core, using_core
from repro.machine.placement import place_iterations
from repro.machine.window_cache import MappedWindowCache
from repro.memory import MemorySystem
from repro.obs import TRACE, recording
from repro.obs.ledger import ledger_to

CONFIGS = [MachineConfig.baseline(), MachineConfig.S(),
           MachineConfig.S_O(), MachineConfig.S_O_D()]


def corpus_case(seed):
    """One deterministic fuzzer point — the pinned corpus of
    ``test_engine_equivalence`` (kept in sync by construction)."""
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


def dataflow_engine(kernel, config, iterations, seed=1, trace=False):
    params = MachineParams()
    memory = MemorySystem(params.rows, params.memory_timings())
    memory.configure_smc(config.smc_stream)
    window = map_window(kernel, config, params, iterations=iterations)
    return DataflowEngine(window, memory, seed=seed, trace=trace)


class TestCoreSelection:
    def test_array_is_the_default(self):
        assert active_core() == "array"

    def test_using_core_scopes_the_choice(self):
        with using_core("object"):
            assert active_core() == "object"
        assert active_core() == "array"

    def test_using_core_scopes_the_calling_thread_only(self):
        """A thread pinned to the object core (a service job asking for
        it) leaves a sibling thread on the array core."""
        inside, leave, seen = threading.Event(), threading.Event(), {}

        def pinned():
            with using_core("object"):
                seen["pinned"] = active_core()
                inside.set()
                leave.wait(5.0)

        thread = threading.Thread(target=pinned, daemon=True)
        thread.start()
        try:
            assert inside.wait(5.0)
            assert active_core() == "array"
        finally:
            leave.set()
            thread.join(5.0)
        assert seen["pinned"] == "object"

    def test_unknown_core_rejected(self):
        with pytest.raises(ValueError, match="unknown engine core"):
            fastcore.set_engine_core("simd")
        with pytest.raises(ValueError, match="unknown engine core"):
            with using_core("turbo"):
                pass  # pragma: no cover


class TestMappedWindowEquivalence:
    """map_window under the array core vs the object expansion."""

    @pytest.mark.parametrize("seed", range(16))
    def test_fuzz_corpus_identical_windows(self, seed):
        kernel, config, iterations = corpus_case(seed)
        params = MachineParams()
        with using_core("array"):
            array_win = map_window(kernel, config, params,
                                   iterations=iterations)
        with using_core("object"):
            object_win = map_window(kernel, config, params,
                                    iterations=iterations)
        assert array_win.instances == object_win.instances
        assert array_win.const_reads == object_win.const_reads
        assert array_win.placement == object_win.placement
        assert array_win == object_win

    @pytest.mark.parametrize("name", [s.name for s in all_specs()])
    def test_paper_kernels_identical_windows(self, name):
        kernel = spec(name).kernel()
        params = MachineParams()
        for config in CONFIGS:
            with using_core("array"):
                array_win = map_window(kernel, config, params,
                                       record_offset=3)
            with using_core("object"):
                object_win = map_window(kernel, config, params,
                                        record_offset=3)
            assert array_win == object_win

    @pytest.mark.parametrize("seed", range(16))
    def test_fuzz_corpus_identical_placement(self, seed):
        kernel, _config, iterations = corpus_case(seed)
        params = MachineParams()
        with using_core("array"):
            array_placement = place_iterations(kernel, params, iterations)
        with using_core("object"):
            object_placement = place_iterations(kernel, params, iterations)
        assert array_placement == object_placement

    @pytest.mark.parametrize("core", ["array", "object"])
    def test_node_rows_consistent_with_node_of(self, core):
        """Both cores derive ``node_rows`` (the expansion's view of the
        placement) consistent with the authoritative ``node_of``."""
        kernel, _config, iterations = corpus_case(5)
        params = MachineParams()
        with using_core(core):
            placement = place_iterations(kernel, params, iterations)
        assert len(placement.node_rows) == iterations
        iids = [inst.iid for inst in kernel.body]
        for u, row in enumerate(placement.node_rows):
            assert row == [placement.node_of[(u, iid)] for iid in iids]


class TestDataflowCoreEquivalence:
    """DataflowEngine.run: SoA core vs the object issue loop."""

    @pytest.mark.parametrize("seed", range(16))
    def test_fuzz_corpus_identical_timing_and_stats(self, seed):
        kernel, config, iterations = corpus_case(seed)
        with using_core("array"):
            fast = dataflow_engine(kernel, config, iterations)
            t_fast = fast.run()
        with using_core("object"):
            reference = dataflow_engine(kernel, config, iterations)
            t_ref = reference.run()
        assert t_fast == t_ref
        assert fast.stats == reference.stats

    @pytest.mark.parametrize("seed", [0, 3, 5, 9, 12])
    def test_template_soa_matches_build_soa(self, seed):
        """The SoA the template expansion attaches at map time must be
        field-for-field what ``build_soa`` derives from the finished
        window's instances."""
        from repro.machine.fastcore.dataflow_core import WindowSoA, \
            build_soa

        kernel, config, iterations = corpus_case(seed)
        params = MachineParams()
        with using_core("array"):
            window = map_window(kernel, config, params,
                                iterations=iterations)
        fused = window._fastcore_soa
        del window._fastcore_soa
        window.issue_order = None
        rebuilt = build_soa(window)
        for name in WindowSoA.__slots__:
            a, b = getattr(fused, name), getattr(rebuilt, name)
            if name in ("lut_info", "ldi_info") and a is not None:
                # (uids, bases, sizes, iters, kiids): numpy columns.
                assert b is not None, name
                assert len(a) == len(b), name
                for col_a, col_b in zip(a, b):
                    assert numpy.array_equal(col_a, col_b), name
            elif isinstance(a, numpy.ndarray):
                # Whole-array slots (addr_at0, addr_stride).
                assert numpy.array_equal(a, b), name
            else:
                assert a == b, name

    # seeds 0/4: baseline configs (all loads through the L1);
    # seed 9: LUTs over a 16-entry table under S; seed 10: LDI space.
    @pytest.mark.parametrize("seed", [0, 4, 9, 10])
    def test_batch_memory_timing_bit_exact(self, seed):
        """Windows whose streams hit the banked L1 (baseline loads, LUT
        and LDI round trips) must time identically whether the core
        batches the per-cycle address stream through
        ``timed_access_batch`` or the object loop issues one
        ``l1_access`` per instance — including every hit/miss/eviction
        and port-grant the run publishes in its detail snapshot."""
        kernel, config, iterations = corpus_case(seed)
        with using_core("array"):
            fast = dataflow_engine(kernel, config, iterations)
            t_fast = fast.run()
        with using_core("object"):
            reference = dataflow_engine(kernel, config, iterations)
            t_ref = reference.run()
        assert t_fast == t_ref
        assert fast.stats == reference.stats
        assert (fast.memory.metrics_snapshot()
                == reference.memory.metrics_snapshot())
        assert fast.memory.l1.stats == reference.memory.l1.stats
        assert reference.memory.l1.stats.accesses > 0

    def test_traces_identical(self):
        kernel, config, iterations = corpus_case(9)
        with using_core("array"):
            fast = dataflow_engine(kernel, config, iterations, trace=True)
            fast.run()
        with using_core("object"):
            reference = dataflow_engine(kernel, config, iterations,
                                        trace=True)
            reference.run()
        assert fast.trace == reference.trace


class TestLazyWindowExpansion:
    """The array core's windows stay lazy until someone actually needs
    Instance objects — and materialize bit-identically when they do."""

    def setup_window(self, seed=3, offset=0):
        kernel, config, iterations = corpus_case(seed)
        params = MachineParams()
        with using_core("array"):
            window = map_window(kernel, config, params,
                                iterations=iterations,
                                record_offset=offset)
        return kernel, config, params, iterations, window

    def test_map_and_run_never_materialize(self):
        kernel, config, iterations = corpus_case(3)
        params = MachineParams()
        with using_core("array"):
            window = map_window(kernel, config, params,
                                iterations=iterations)
            assert not window.materialized
            memory = MemorySystem(params.rows, params.memory_timings())
            memory.configure_smc(config.smc_stream)
            timing = DataflowEngine(window, memory, seed=1).run()
        assert timing.cycles > 0
        assert not window.materialized  # the SoA run never touched them

    def test_materialization_matches_object_expansion(self):
        kernel, config, params, iterations, window = self.setup_window()
        with using_core("object"):
            eager = map_window(kernel, config, params,
                               iterations=iterations)
        assert window.instances == eager.instances  # forces the clone loop
        assert window.materialized
        assert window.const_reads == eager.const_reads

    def test_instance_views_match_instances_without_materializing(self):
        kernel, config, params, iterations, window = self.setup_window()
        with using_core("object"):
            eager = map_window(kernel, config, params,
                               iterations=iterations)
        views = window.instance_views()
        assert not window.materialized
        assert len(views) == len(eager.instances)
        for view, inst in zip(views, eager.instances):
            assert view == inst
        assert window.instance_view(0) == eager.instances[0]
        assert not window.materialized

    def test_rebase_lazy_then_materialize_matches_fresh_map(self):
        from repro.machine.mapping import rebase_window

        kernel, config, params, iterations, window = self.setup_window()
        rebase_window(window, 11)
        assert not window.materialized  # lazy rebase is O(1) bookkeeping
        with using_core("object"):
            fresh = map_window(kernel, config, params,
                               iterations=iterations, record_offset=11)
        assert window.instances == fresh.instances
        assert window == fresh

    def test_paper_sweep_never_builds_soa(self, monkeypatch):
        """Every window of the Figure 5 / Table 4 / Table 6 sweep gets
        its SoA fused by the template expansion; none is flattened from
        instance objects by ``build_soa``.

        A spy rather than the ``fastcore.soa_*`` METRICS counters: each
        block run's cold pass runs under ``observability_paused()``, so
        a ``build_soa`` there would never reach METRICS.
        """
        from repro.harness import experiments
        from repro.machine.dataflow_engine import DataflowEngine
        from repro.machine.fastcore import dataflow_core
        from repro.machine.window_cache import SHARED_WINDOW_CACHE

        builds, fused = [], []
        build_soa = dataflow_core.build_soa
        run = DataflowEngine.run

        def counting_build_soa(window):
            builds.append(window)
            return build_soa(window)

        def spying_run(engine):
            fused.append(
                getattr(engine.window, "_fastcore_soa", None) is not None
            )
            return run(engine)

        monkeypatch.setattr(dataflow_core, "build_soa", counting_build_soa)
        monkeypatch.setattr(DataflowEngine, "run", spying_run)
        SHARED_WINDOW_CACHE.clear()
        ctx = experiments.ExperimentContext(records=32,
                                            large_kernel_records=16)
        with using_core("array"):
            experiments.figure5(ctx)
            experiments.table4(ctx)
            experiments.table6(ctx)
        assert fused and all(fused)
        assert builds == []


def mimd_pair(name, config, records):
    """Run one MIMD point under each core; returns (fast engine,
    fast result, reference engine, reference result)."""
    params = MachineParams()

    def engine():
        memory = MemorySystem(params.rows, params.memory_timings())
        memory.configure_smc(True)
        return MimdEngine(spec(name).kernel(), config, params, memory)

    with using_core("array"):
        fast = engine()
        r_fast = fast.run(records)
    with using_core("object"):
        reference = engine()
        r_ref = reference.run(records)
    return fast, r_fast, reference, r_ref


class TestMimdCoreEquivalence:
    """MimdEngine records: max-plus affine core vs the object loop."""

    @pytest.mark.parametrize("name,cfg", [
        (s.name, config.name)
        for s in all_specs()
        for config in (MachineConfig.M(), MachineConfig.M_D())
        if GridProcessor().supports(s.kernel(), config)
    ])
    def test_all_capable_points_identical(self, name, cfg):
        config = MachineConfig.M() if cfg == "M" else MachineConfig.M_D()
        records = spec(name).workload(16, 9)
        fast, r_fast, reference, r_ref = mimd_pair(name, config, records)
        assert r_fast == r_ref
        assert fast.stats == reference.stats

    @pytest.mark.parametrize("name,cfg", [
        ("rijndael", "M"),            # LUTs without an L0 data store
        ("anisotropic-filter", "M-D"),  # LDI: live L1 round trips
        ("blowfish", "M"),            # LUT chains, each a rebase
        ("vertex-skinning", "M"),     # all four variable trip counts
    ])
    def test_l1_round_trip_records_use_staged_plans(self, name, cfg):
        """Records whose live set takes the L1 round-trip paths compile
        to *staged* plans — affine between the L1 ops, concrete
        ``l1_access`` calls at each — and must stay bit-identical to the
        object loop, including the L1/port state the stages mutate."""
        config = MachineConfig.M() if cfg == "M" else MachineConfig.M_D()
        records = spec(name).workload(8, 3)
        fast, r_fast, reference, r_ref = mimd_pair(name, config, records)
        plans = fast.__dict__.get("_fastcore_plans", {})
        kernel = fast.kernel
        assert set(plans) == {kernel.trip_count(r) for r in records}
        if name == "vertex-skinning":
            assert len(plans) == kernel.loop.max_trips == 4
        assert all(plan.l1_steps for plan in plans.values())
        assert r_fast == r_ref
        assert fast.stats == reference.stats
        assert (fast.memory.metrics_snapshot()
                == reference.memory.metrics_snapshot())

    @staticmethod
    def _plan(name, config):
        params = MachineParams()
        engine = MimdEngine(spec(name).kernel(), config, params,
                            MemorySystem(params.rows, params.memory_timings()))
        record = spec(name).workload(1, 0)[0]
        return mimd_core.build_plan(engine, engine.kernel.trip_count(record))

    def test_plans_keep_only_terms_that_can_bind(self):
        """Rebasing at every L1 op and pruning chain-dominated terms
        keep plan rows narrow: every dct|M output row is one term (the
        pc after the chunk loads dominates each word column), and so is
        every staged LUT row of blowfish|M and rijndael|M (the pc after
        the previous lookup, plus the instructions between, dominates
        the lookup's operands)."""
        dct = self._plan("dct", MachineConfig.M())
        assert len(dct.out_rows) == 2 + len(dct.slots)
        assert all(rest == () for _c, _v, rest in dct.out_rows)
        for name in ("blowfish", "rijndael"):
            plan = self._plan(name, MachineConfig.M())
            assert plan.l1_steps
            assert all(rest == () for _c, _v, rest, *_ in plan.l1_steps)

    def test_pruning_is_exact_at_tight_gaps(self):
        """Pruning may lean only on the orderings the ``mimd_core``
        docstring states — ``x[1] >= x[0] + chunks``, words ``<= x[1]``,
        ``P_0 >= x[1] + m_0``, ``P_k >= P_j + (m_k - m_j)``,
        ``D_j <= P_j`` — so every row keeps its max on random bases that
        meet just those, most of them with no slack at all.  Real memory
        timings leave wide gaps, which the record-level tests above
        cannot tell from an over-eager rule."""
        rng = random.Random(13)
        n_words, n_l1 = 3, 4
        base_col = 2 + n_words
        width = base_col + 2 * n_l1
        key = mimd_core._chain_key(base_col)
        gaps = []

        def gap():
            gaps.append(0 if rng.random() < 0.6 else rng.randint(1, 3))
            return gaps[-1]

        dropped = 0
        for _ in range(4000):
            chunks = rng.randint(0, 2)
            live_counts = []
            for _ in range(n_l1):
                live_counts.append(
                    (live_counts[-1] if live_counts else 0)
                    + rng.randint(1, 3)
                )
            x1 = rng.randint(0, 4) + chunks
            x = [x1 - chunks - gap(), x1]
            x += [x1 - gap() for _ in range(n_words)]
            pc, m_prev = x1, 0
            for m in live_counts:
                pc += m - m_prev + gap()
                m_prev = m
                x += [pc - gap(), pc]  # D_j, P_j
            cols = [rng.randrange(width) for _ in range(rng.randint(2, 8))]
            if rng.random() < 0.5:
                row = {c: rng.randint(0, 12) for c in cols}
            else:
                # Near-ties: every term lands within a cycle of one
                # value, so each keep-or-drop decision is decisive.
                target = max(x) + rng.randint(0, 3)
                row = {c: target - x[c] + rng.randint(-1, 1) for c in cols}
            potential = mimd_core._potentials(chunks, n_words, live_counts)
            kept = mimd_core._prune(row, key, potential)
            assert kept.items() <= row.items()
            assert (max(x[c] + v for c, v in kept.items())
                    == max(x[c] + v for c, v in row.items()))
            dropped += len(row) - len(kept)
        assert dropped > 0
        assert 2 * gaps.count(0) >= len(gaps)


#: The whole-run MIMD loop's configurations: M and M-D stream records
#: through the SMC; local PCs without streaming, with and without the L0
#: data store, load them through the L1.
MIMD_RUN_CONFIGS = (
    MachineConfig.M(), MachineConfig.M_D(),
    MachineConfig(name="local-pc", local_pc=True),
    MachineConfig(name="local-pc-D", local_pc=True, l0_data=True),
)

#: Every node, and a five-node partition across five rows.
MIMD_PARTITIONS = (None, (0, 9, 18, 27, 63))


def mimd_run(kernel, config, records, nodes, core):
    """One MIMD run under ``core``: its result, stats, memory snapshot
    and each row's store-drain cycle."""
    params = MachineParams()
    memory = MemorySystem(params.rows, params.memory_timings())
    memory.configure_smc(config.smc_stream)
    with using_core(core):
        engine = MimdEngine(kernel, config, params, memory, nodes=nodes)
        result = engine.run(records)
    return (result, engine.stats, list(memory.metrics_snapshot().items()),
            [memory.row_store_drain_cycle(row) for row in range(params.rows)])


class TestMimdRunLoopEquivalence:
    """The array core's whole-run record loop (``mimd_core.run_records``:
    per-run constants, each row's stores sent in one call after the
    last record) vs ``MimdEngine.run``'s object loop, unobserved."""

    @pytest.mark.parametrize("name", [s.name for s in all_specs()])
    def test_whole_run_loop_matches_object_loop(self, name):
        s = spec(name)
        kernel = s.kernel()
        for config in MIMD_RUN_CONFIGS:
            if not GridProcessor().supports(kernel, config):
                continue
            for n in (1, 7, 64, 200):
                records = s.workload(n, 3)
                for nodes in MIMD_PARTITIONS:
                    assert (mimd_run(kernel, config, records, nodes, "array")
                            == mimd_run(kernel, config, records, nodes,
                                        "object")), (config.name, n, nodes)

    def test_matrix_has_448_cases(self):
        capable = sum(
            GridProcessor().supports(s.kernel(), config)
            for s in all_specs() for config in MIMD_RUN_CONFIGS
        )
        assert capable * 4 * len(MIMD_PARTITIONS) == 448

    def test_traced_run_sends_stores_per_record(self):
        """A traced run still pushes each record's stores in one call of
        its own: one store-drain span per record, as the object loop."""
        s = spec("md5")
        records = s.workload(24, 5)
        spans = {}
        for core in ("array", "object"):
            with recording() as rec:
                mimd_run(s.kernel(), MachineConfig.M(), records, None, core)
            spans[core] = [
                (e["ts"], e["dur"], e["args"]) for e in rec.events
                if e["name"] == "store drain"
            ]
            TRACE.clear()
        assert spans["array"] == spans["object"]
        assert len(spans["array"]) == len(records)
        assert all(args["stores"] == s.kernel().record_out
                   for _ts, _dur, args in spans["array"])

    def test_ledgered_point_keeps_its_mimd_memory_phase(self, tmp_path):
        s = spec("md5")
        with ledger_to(tmp_path / "ledger.sqlite") as handle:
            dispatch(get("grid"), s.kernel(), s.workload(64, 1),
                     MachineConfig.M(), MachineParams())
            row = handle.ledger.rows()[0]
        assert row["engine_core"] == "array"
        assert row["phases"]["mimd_memory"] > 0
        assert row["phases"]["mimd_engine"] > 0


class TestProcessorEquivalence:
    """Full GridProcessor runs: RunResult documents must be identical."""

    @pytest.mark.parametrize("name,config", [
        ("fft", MachineConfig.S_O()),
        ("convert", MachineConfig.baseline()),
        ("md5", MachineConfig.S_O_D()),
        ("blowfish", MachineConfig.M_D()),
        ("rijndael", MachineConfig.S()),
        ("anisotropic-filter", MachineConfig.baseline()),
    ])
    def test_run_results_identical_across_cores(self, name, config):
        s = spec(name)
        kernel, records = s.kernel(), s.workload(12, 7)
        results = {}
        for core in ("array", "object"):
            with using_core(core):
                processor = GridProcessor(window_cache=MappedWindowCache())
                results[core] = processor.run(kernel, records, config)
        assert results["array"] == results["object"]
        assert results["array"].detail == results["object"].detail
