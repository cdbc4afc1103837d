"""End-to-end instrumentation: the simulators populate METRICS/TRACE
when enabled, stamp every run's detail with the memory snapshot, and
stay silent when observability is off."""

import json

import pytest

from repro.kernels import spec
from repro.machine import GridProcessor, MachineParams
from repro.machine.config import TABLE5_CONFIGS, named_config
from repro.machine.fastcore import using_core
from repro.machine.window_cache import MappedWindowCache
from repro.obs import (
    METRICS,
    TRACE,
    collecting,
    observability_paused,
    recording,
    subsystems,
    validate_chrome_trace,
)

#: Keys the memory-system snapshot guarantees in every RunResult.detail.
MEMORY_DETAIL_KEYS = (
    "l1.accesses", "l1.hits", "l1.misses",
    "port.requests", "port.stall_cycles",
    "channel.words_delivered",
    "storebuffer.stores", "storebuffer.peak_depth",
    "smc.dma_words",
)


def run_point(config_name: str, records: int = 32, **kwargs):
    s = spec("convert")
    # A private window cache: mapping runs (and its metrics fire) even
    # when another test already mapped this point into the shared cache.
    processor = GridProcessor(MachineParams(), window_cache=MappedWindowCache())
    return processor.run(
        s.kernel(), s.workload(records), named_config(config_name), **kwargs
    )


class TestDetailSnapshot:
    @pytest.mark.parametrize(
        "config", [c.name for c in TABLE5_CONFIGS]
    )
    def test_every_config_reports_memory_detail(self, config):
        """The metrics snapshot lands in RunResult.detail for all
        machine configurations, instrumentation enabled or not."""
        result = run_point(config)
        for key in MEMORY_DETAIL_KEYS:
            assert key in result.detail, (config, key)
        assert "revitalize.broadcasts" in result.detail or config in (
            "M", "M-D",
        )

    def test_streaming_config_counts_channel_words(self):
        result = run_point("S-O-D")
        assert result.detail["channel.words_delivered"] > 0
        assert result.detail["storebuffer.stores"] > 0

    def test_baseline_counts_l1_traffic(self):
        result = run_point("baseline")
        assert result.detail["l1.accesses"] > 0

    def test_revitalize_broadcasts_counted(self):
        """Streams longer than one window revitalize between windows."""
        multi = run_point("S", records=256)   # window caps at 128 iters
        single = run_point("S", records=16)
        assert multi.detail["revitalize.broadcasts"] >= 1
        assert single.detail["revitalize.broadcasts"] == 0


class TestMetricsCollection:
    def test_block_run_populates_registry(self):
        with collecting() as reg:
            run_point("S-O-D", records=64)
        snap = reg.snapshot()
        assert snap["alu.instances_issued"] > 0
        assert snap["net.operand_hops"] > 0
        assert snap["channel.words_delivered"] > 0
        assert snap["placement.windows_placed"] >= 1
        assert 0.0 < snap["alu.occupancy"] <= 1.0
        METRICS.reset()

    def test_mimd_run_populates_registry(self):
        with collecting() as reg:
            run_point("M", records=32)
        snap = reg.snapshot()
        assert snap["alu.instructions_executed"] > 0
        assert snap["alu.node_busy_cycles"] > 0
        METRICS.reset()

    def test_disabled_run_records_nothing(self):
        assert not METRICS.enabled and not TRACE.enabled
        TRACE.clear()  # recordings persist past their scope by design
        before = METRICS.snapshot()
        run_point("S-O-D", records=64)
        run_point("M", records=16)
        assert METRICS.snapshot() == before
        assert TRACE.events == []

    def test_observability_paused_suppresses_and_restores(self):
        with collecting() as reg:
            with observability_paused():
                run_point("S-O-D", records=16)
            assert reg.snapshot() == {}
            assert METRICS.enabled is True
        assert METRICS.enabled is False
        METRICS.reset()

    def test_observability_paused_nests(self):
        """The inner pause must restore to 'still paused', and the
        outer one back to enabled — never flip the flags early."""
        with collecting():
            with observability_paused():
                assert METRICS.enabled is False
                with observability_paused():
                    assert METRICS.enabled is False
                assert METRICS.enabled is False
            assert METRICS.enabled is True
        assert METRICS.enabled is False
        METRICS.reset()

    def test_observability_paused_restores_on_exception(self):
        with collecting():
            with pytest.raises(RuntimeError):
                with observability_paused():
                    raise RuntimeError("unwind")
            assert METRICS.enabled is True
            assert TRACE.enabled is False  # was off before the pause
        assert METRICS.enabled is False
        METRICS.reset()

    def test_observability_paused_noop_when_nothing_enabled(self):
        assert not METRICS.enabled and not TRACE.enabled
        with observability_paused():
            assert not METRICS.enabled and not TRACE.enabled
        assert not METRICS.enabled and not TRACE.enabled


class TestTraceRecording:
    def test_block_trace_covers_three_subsystems(self):
        """The acceptance trace: execution + memory + control events in
        one valid Chrome document (>1 window, so revitalize fires)."""
        with recording("convert/S-O-D") as rec:
            run_point("S-O-D", records=256)
        doc = rec.to_chrome()
        assert validate_chrome_trace(doc) == []
        assert {"execution", "memory", "control"} <= set(subsystems(doc))
        TRACE.clear()

    def test_mimd_trace_has_execution_and_memory_events(self):
        with recording("convert/M") as rec:
            run_point("M", records=32)
        doc = rec.to_chrome()
        assert validate_chrome_trace(doc) == []
        assert {"execution", "memory", "control"} <= set(subsystems(doc))
        TRACE.clear()

    def test_engine_trace_attribute_stays_none(self):
        """Tracing must not flip the engine's own debug trace on."""
        from repro.machine.dataflow_engine import DataflowEngine
        from repro.machine.mapping import map_window
        from repro.memory.system import MemorySystem

        s = spec("convert")
        config = named_config("S-O-D")
        params = MachineParams()
        window = map_window(s.kernel(), config, params, iterations=4)
        memory = MemorySystem(params.rows, params.memory_timings())
        memory.configure_smc(True)
        engine = DataflowEngine(window, memory)
        with recording():
            engine.run()
        assert engine.trace is None
        assert len(TRACE.events) > 0
        TRACE.clear()

    def test_cold_pass_suppressed_for_block_runs(self):
        """Block-style points simulate cold+warm windows but trace only
        the steady one: node issue events appear exactly once per
        windowed instance."""
        with recording() as rec:
            result = run_point("S-O-D", records=64)
        issue_events = [e for e in rec.events if e["cat"] == "execution"]
        assert len(issue_events) == result.window.machine_instructions
        TRACE.clear()


#: (kernel, config, records): a multi-window streaming point (256
#: records > one 128-iteration window, so revitalize fires), the
#: baseline's per-word L1 loads, an S point with L1 table lookups, and
#: MIMD points whose records take plain, LUT and LDI round trips.
PARITY_POINTS = [
    ("convert", "S-O-D", 256),
    ("convert", "baseline", 64),
    ("convert", "M", 64),
    ("blowfish", "M", 64),
    ("anisotropic-filter", "M-D", 64),
    ("rijndael", "S", 64),
]


def observe(core, kernel_name, config_name, records):
    """One point under ``core`` with METRICS and TRACE both on:
    (result, metrics snapshot, sorted trace events)."""
    s = spec(kernel_name)
    with using_core(core):
        processor = GridProcessor(MachineParams(),
                                  window_cache=MappedWindowCache())
        with collecting() as reg, recording() as rec:
            result = processor.run(s.kernel(), s.workload(records),
                                   named_config(config_name))
    metrics = reg.snapshot()
    events = sorted(json.dumps(e, sort_keys=True) for e in rec.events)
    METRICS.reset()
    TRACE.clear()
    return result, metrics, events


class TestCrossCoreParity:
    """Observability is part of the contract: the array core and the
    object loop publish the same metrics and the same trace events."""

    @pytest.mark.parametrize("kernel,config,records", PARITY_POINTS)
    def test_metrics_and_events_match_across_cores(self, kernel, config,
                                                   records):
        r_array, m_array, e_array = observe("array", kernel, config,
                                            records)
        r_object, m_object, e_object = observe("object", kernel, config,
                                               records)
        assert r_array == r_object
        # ``fastcore.*`` counts the array core's own buffers;
        # ``placement.memo_replays`` counts the array placement's
        # region-signature replays, which the object loop does not do.
        for metrics in (m_array, m_object):
            for key in list(metrics):
                if (key.startswith("fastcore.")
                        or key == "placement.memo_replays"):
                    del metrics[key]
        assert m_array == m_object
        assert e_array == e_object
        assert e_array
