"""The reconfigurable grid processor — top-level simulation API.

:class:`GridProcessor` is the public entry point of the machine model: it
morphs the substrate to a :class:`~repro.machine.config.MachineConfig`,
maps a kernel, and measures a steady-state run over a record stream.

Measurement strategy (documented in DESIGN.md):

* **Block-style configurations** (baseline, S, S-O, S-O-D): one *window*
  of concurrently-resident iterations is simulated cycle by cycle, twice —
  the first pass warms the caches/tables, the second (with advanced
  record addresses, so streams stay cold but tables stay warm) is the
  steady-state window.  A window that cannot touch the L1 has nothing
  for the first pass to warm, so it is simulated once, at the advanced
  addresses, unless an observer (TRACE, METRICS, SANITIZER) is on.  The
  mapping fixes that schedule, not the data, so each distinct window is
  simulated once per process and its steady state reused; the mapped
  structure is freed after the warm pass.  The run is then windows
  composed in sequence:

  - baseline: consecutive hyperblock windows pipeline behind block fetch,
    so the steady interval is ``max(window cycles, fetch cycles)``;
  - S-configurations: the mapping persists and a revitalize broadcast
    separates windows (driven through the CTR state machine), so the
    interval is ``window cycles + revitalize delay``, plus DMA streaming
    bandwidth as a floor.

* **MIMD configurations** (M, M-D) are simulated end to end by
  :class:`~repro.machine.mimd_engine.MimdEngine` (per-node in-order
  pipelines, shared-bank contention), which can also execute functionally.

Useful-operation accounting follows the paper: loads, stores, address
arithmetic and moves never count; nullified instructions of
data-dependent loops do not count (but SIMD-style execution still spends
issue slots on them).
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..check.sanitizer import SANITIZER
from ..isa.evaluate import evaluate_stream
from ..isa.kernel import Kernel
from ..memory.system import MemorySystem
from ..obs import observability_paused
from ..obs.metrics import METRICS
from ..obs.trace import CTL, TRACE
from ..perf.phases import PHASES, perf_counter
from .config import MachineConfig
from .dataflow_engine import DataflowEngine
from .l0store import L0DataStore
from .mapping import (
    MappedWindow,
    map_window,
    rebase_window,
    touches_l1,
    window_iterations,
)
from .mimd_engine import MimdEngine, check_capacity
from .params import MachineParams
from .revitalize import RevitalizationController
from .stats import RunResult, WindowTiming
from .window_cache import SHARED_WINDOW_CACHE, MappedWindowCache

Number = Union[int, float]
Record = Sequence[Number]


class GridProcessor:
    """A TRIPS-style grid processor with the universal DLP mechanisms."""

    def __init__(
        self,
        params: Optional[MachineParams] = None,
        window_cache: Optional[MappedWindowCache] = None,
    ):
        """``window_cache`` overrides the process-wide steady-window
        cache (mainly for tests that want isolation)."""
        self.params = params or MachineParams()
        # Explicit None test: an empty cache has len() == 0 and would
        # read as falsy, silently discarding the injected instance.
        self.window_cache = (
            window_cache if window_cache is not None else SHARED_WINDOW_CACHE
        )

    # ---- public API ------------------------------------------------------

    def run(
        self,
        kernel: Kernel,
        records: Sequence[Record],
        config: MachineConfig,
        functional: bool = False,
    ) -> RunResult:
        """Simulate a steady-state run of ``kernel`` over ``records``.

        With ``functional=True`` the result carries the computed output
        records (MIMD executes them natively; block-style configurations
        delegate to the reference dataflow evaluator, which shares the
        opcode semantics the nodes would apply).
        """
        if not records:
            raise ValueError("cannot simulate an empty record stream")
        if config.local_pc:
            result = self._run_mimd(kernel, records, config, functional)
        else:
            result = self._run_blocks(kernel, records, config)
            if functional:
                result.outputs = evaluate_stream(kernel, records)
        # Backend identity tag (repro.backends): every simulator stamps
        # its results so cached documents are self-describing.
        result.detail["backend"] = "grid"
        return result

    def execute(self, kernel: Kernel, records: Sequence[Record]) -> List[List[Number]]:
        """Functional-only execution (no timing) via the dataflow semantics."""
        return evaluate_stream(kernel, records)

    def supports(self, kernel: Kernel, config: MachineConfig) -> bool:
        """Whether the kernel fits this configuration's storage structures."""
        try:
            self.check(kernel, config)
            return True
        except ValueError:
            return False

    def check(self, kernel: Kernel, config: MachineConfig) -> None:
        """Raise if the kernel cannot run under ``config``."""
        if config.local_pc:
            check_capacity(kernel, config, self.params)
        if config.l0_data:
            store = L0DataStore(
                self.params.l0_data_bytes, self.params.l0_entry_bytes
            )
            store.load_tables(kernel.tables)  # raises L0CapacityError

    # ---- MIMD path ------------------------------------------------------------

    def _run_mimd(
        self,
        kernel: Kernel,
        records: Sequence[Record],
        config: MachineConfig,
        functional: bool,
    ) -> RunResult:
        memory = self._fresh_memory(config)
        if config.l0_data:
            self.check(kernel, config)
        engine = MimdEngine(
            kernel, config, self.params, memory, functional=functional
        )
        if not PHASES.enabled:
            result = engine.run(records)
        else:
            # The array core credits its memory-interface time to
            # "mimd_memory" (the object loop leaves it in "mimd_engine");
            # subtract it here so the phases stay disjoint and sum
            # cleanly.
            mem_before = PHASES.seconds.get("mimd_memory", 0.0)
            started = perf_counter()
            result = engine.run(records)
            elapsed = perf_counter() - started
            mem_delta = PHASES.seconds.get("mimd_memory", 0.0) - mem_before
            PHASES.add("mimd_engine", elapsed - mem_delta)
        self._publish_memory(memory.metrics_snapshot(), result)
        return result

    # ---- block-style path ---------------------------------------------------------

    def _run_blocks(
        self, kernel: Kernel, records: Sequence[Record], config: MachineConfig
    ) -> RunResult:
        params = self.params
        if config.l0_data:
            self.check(kernel, config)
        n_records = len(records)

        window, snapshot = self._steady_window(kernel, config, n_records)
        U = window.iterations
        n_windows = math.ceil(n_records / U)

        if config.inst_revitalize:
            controller = RevitalizationController(
                broadcast_delay=params.revitalize_delay,
                preserve_operands=config.operand_revitalize,
            )
            controller.repeat(n_windows)
            map_cycles = math.ceil(
                window.machine_instructions / params.fetch_bandwidth
            )
            # DMA streaming must keep up with the windows (double
            # buffering): total words per window across all row banks.
            words = U * (kernel.record_in + kernel.record_out)
            dma_rate = params.smc_dma_words_per_cycle * params.rows
            dma_floor = math.ceil(words / dma_rate)
            interval = max(window.cycles, dma_floor)
            tracing = TRACE.enabled
            total = map_cycles
            for index in range(n_windows):
                total += interval
                delay = controller.iteration_complete()
                if tracing and delay:
                    TRACE.instant(
                        CTL, "block sequencer", "revitalize broadcast",
                        ts=total, args={"window": index, "delay": delay},
                    )
                total += delay
            setup = map_cycles
            broadcasts = controller.revitalizations
            if SANITIZER.enabled:
                # CTR bounds: n windows need exactly n-1 revitalize
                # broadcasts, after which the controller is disarmed.
                if (broadcasts != n_windows - 1 or not controller.done
                        or controller.ctr != 0):
                    SANITIZER.report(
                        "revitalize.counter_bounds",
                        f"{kernel.name}|{config.name}",
                        "revitalization count or CTR state inconsistent "
                        "with the window count",
                        broadcasts=broadcasts, windows=n_windows,
                        ctr=controller.ctr, done=controller.done,
                    )
        else:
            # Baseline: hyperblocks pipeline continuously — the in-flight
            # window slides rather than flushing.  When the in-flight
            # instruction capacity covers more records than the compiler's
            # unroll window (``rif > U``), successive records overlap and
            # throughput rises by that factor (Little's law); fetch
            # bandwidth is always a floor.
            per_record_mi = window.machine_instructions / U
            in_flight = (
                params.baseline_blocks_in_flight * params.baseline_block_insts
            )
            rif = min(
                in_flight / per_record_mi,
                params.baseline_blocks_in_flight * params.baseline_unroll_cap,
            )
            overlap = max(1.0, rif / U)
            interval = max(
                window.fetch_cycles, math.ceil(window.cycles / overlap)
            )
            fill = window.cycles  # pipeline fill of the first window
            total = fill + (n_windows - 1) * interval if n_windows > 1 else fill
            setup = 0
            broadcasts = 0

        useful = self._useful_ops(kernel, records)
        result = RunResult(
            kernel=kernel.name,
            config=config.name,
            records=n_records,
            cycles=int(total),
            useful_ops=useful,
            window=window,
            setup_cycles=setup,
            detail=dict(window.detail),
        )
        result.detail["revitalize.broadcasts"] = float(broadcasts)
        self._publish_memory(snapshot, result)
        return result

    def _steady_window(
        self,
        kernel: Kernel,
        config: MachineConfig,
        n_records: int,
    ) -> Tuple[WindowTiming, Dict[str, float]]:
        """The steady-state window, and the memory snapshot it leaves.

        Neither pass reads record values: the stream sets only ``U``, so
        both results are a pure function of the window-cache key
        (:class:`~repro.machine.window_cache.MappedWindowCache`).  A hit
        returns copies of the stored memo, building no window, memory
        system or engine.  A miss hands back a private mapped window,
        timed here and freed with this call; the memo is stored after
        the timing.  A window that may touch the L1
        (:func:`~repro.machine.mapping.touches_l1`) is timed by
        :meth:`steady_two_pass`, the executable specification; one that
        cannot is mapped straight at record offset ``U`` and timed by
        :meth:`steady_one_pass`, whose memo equals it.  While TRACE,
        METRICS or SANITIZER observes, every window — a hit's too, mapped
        afresh — runs both passes, so observers see every event and
        check.
        """
        U = min(window_iterations(kernel, config, self.params),
                max(1, n_records))
        observed = TRACE.enabled or METRICS.enabled or SANITIZER.enabled
        one_pass = not observed and not touches_l1(kernel, config)
        phases = PHASES.enabled
        place_before = PHASES.seconds.get("placement", 0.0) if phases else 0.0
        started = perf_counter() if phases else 0.0
        key, steady, window = self.window_cache.get_or_map(
            kernel, config, self.params, U,
            record_offset=U if one_pass else 0,
        )
        if window is None and observed:
            window = map_window(kernel, config, self.params, iterations=U)
        if phases:
            # ``place_iterations`` credits its own time to "placement";
            # subtract it so "window_map" (expansion, cache handling and
            # rebasing) stays disjoint and the phases sum cleanly.
            elapsed = perf_counter() - started
            place_delta = PHASES.seconds.get("placement", 0.0) - place_before
            PHASES.add("window_map", elapsed - place_delta)
        if window is not None:
            if one_pass:
                steady = self.steady_one_pass(window)
            else:
                steady = self.steady_two_pass(window)
            self.window_cache.store(key, steady)
        # Copies: no two results share a mutable detail dict.
        timing, snapshot = steady
        return replace(timing, detail=dict(timing.detail)), dict(snapshot)

    def steady_two_pass(
        self, window: MappedWindow
    ) -> Tuple[WindowTiming, Dict[str, float]]:
        """Time ``window`` (mapped at offset 0) as two consecutive
        windows: the warm second one, and the memory snapshot it leaves.

        A cold pass warms the caches and tables; the window is then
        *rebased* to offset ``U`` — bit-identical to a second
        ``map_window``, per the equivalence suite, and O(1) on the array
        core's lazy windows — so streams stay cold, and the warm pass is
        the steady state.  This is the executable specification of every
        steady window.
        """
        phases = PHASES.enabled
        memory = self._fresh_memory(window.config)
        started = perf_counter() if phases else 0.0
        # The cold pass only warms caches/tables; suppress metrics and
        # trace events so observers see the steady-state window once.
        with observability_paused():
            DataflowEngine(window, memory, seed=1).run()
        if phases:
            PHASES.add("block_engine", perf_counter() - started)
            started = perf_counter()
        memory.reset_timing()
        rebase_window(window, window.iterations)
        if phases:
            PHASES.add("window_map", perf_counter() - started)
            started = perf_counter()
        timing = DataflowEngine(window, memory, seed=2).run()
        if phases:
            PHASES.add("block_engine", perf_counter() - started)
        return timing, memory.metrics_snapshot()

    def steady_one_pass(
        self, window: MappedWindow
    ) -> Tuple[WindowTiming, Dict[str, float]]:
        """:meth:`steady_two_pass` for a window that cannot touch the
        L1, from its warm pass alone; ``window`` must be mapped at record
        offset ``U``.

        Such a window's cold pass leaves nothing the warm pass reads:
        ``MemorySystem.reset_timing`` clears every port, channel slot,
        store buffer and SMC port it used, and what it keeps — the L1's
        tags and counts, the SMC DMA meter and the channel meters — the
        window never touches but for the channel meters.
        """
        if window.record_offset != window.iterations:
            raise ValueError(
                f"a one-pass window is mapped at record offset "
                f"{window.iterations}, not {window.record_offset}"
            )
        phases = PHASES.enabled
        memory = self._fresh_memory(window.config)
        started = perf_counter() if phases else 0.0
        timing = DataflowEngine(window, memory, seed=2).run()
        if phases:
            PHASES.add("block_engine", perf_counter() - started)
        snapshot = memory.metrics_snapshot()
        # The one counter the two passes add up: ``channel.words_delivered``
        # survives ``reset_timing``, and a cold pass delivers exactly the
        # warm pass's LMW words (words per LMW are static), so the memo
        # counts them twice, as the two-pass timing does.  Every other key
        # is the warm pass's own.  A counter that starts to survive
        # ``reset_timing`` must be credited here too;
        # ``tests/machine/test_window_cache.py`` compares this memo with
        # the two-pass one key by key and catches it.
        snapshot["channel.words_delivered"] *= 2
        return timing, snapshot

    # ---- shared helpers --------------------------------------------------------------

    @staticmethod
    def _publish_memory(snapshot: Dict[str, float], result: RunResult) -> None:
        """Fold the hierarchy's traffic summary into the run's detail.

        Always recorded in ``RunResult.detail`` (one cheap snapshot per
        run); merged into the process-wide registry only when metrics
        collection is on.
        """
        result.detail.update(snapshot)
        if METRICS.enabled:
            METRICS.merge(snapshot)

    def _fresh_memory(self, config: MachineConfig) -> MemorySystem:
        memory = MemorySystem(self.params.rows, self.params.memory_timings())
        memory.configure_smc(config.smc_stream)
        return memory

    @staticmethod
    def _useful_ops(kernel: Kernel, records: Sequence[Record]) -> int:
        if not kernel.loop.variable:
            return kernel.useful_ops() * len(records)
        # ``useful_ops_live`` walks the body per call; trip counts repeat
        # heavily across a stream, so memoize per distinct count.
        per_trips: dict = {}
        total = 0
        for r in records:
            trips = kernel.trip_count(r)
            ops = per_trips.get(trips)
            if ops is None:
                ops = per_trips[trips] = kernel.useful_ops_live(trips)
            total += ops
        return total


def run_kernel(
    kernel: Kernel,
    records: Sequence[Record],
    config: MachineConfig,
    params: Optional[MachineParams] = None,
    functional: bool = False,
) -> RunResult:
    """Convenience one-shot simulation."""
    return GridProcessor(params).run(kernel, records, config, functional)
