"""Composed memory system for the grid processor.

One :class:`MemorySystem` owns the full hierarchy of Figure 4a: the
backing store, a banked L1, one L2 bank per ALU row (each reconfigurable
to SMC mode), per-row store buffers and per-row streaming channels.  The
machine simulator asks it timing questions ("a regular record read for
row 3 arrives at cycle 12 — when is each word at the row edge?") and the
test suite asks it functional questions (DMA copies, cache contents).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..obs.trace import MEM, TRACE
from .cache import BankedL1
from .channels import StreamChannel
from .mainmem import MainMemory
from .smc import DmaDescriptor, L2Bank, SmcBank
from .storebuffer import StoreBuffer


@dataclass(frozen=True)
class MemoryTimings:
    """Latency/bandwidth parameters of the hierarchy (cycles / words)."""

    l1_capacity_kb: int = 64
    l1_banks: int = 4
    l1_line_words: int = 8
    l1_assoc: int = 2
    l1_hit_latency: int = 3
    l2_latency: int = 12
    l2_bank_kb: int = 64
    smc_latency: int = 4
    smc_dma_words_per_cycle: int = 8
    channel_words_per_cycle: int = 4
    store_drain_words_per_cycle: int = 2
    store_capacity_lines: int = 16


class MemorySystem:
    """The reconfigurable memory hierarchy for an R-row grid."""

    def __init__(self, rows: int = 8, timings: Optional[MemoryTimings] = None):
        self.rows = rows
        self.timings = timings or MemoryTimings()
        t = self.timings
        self.memory = MainMemory()
        self.l1 = BankedL1(
            capacity_kb=t.l1_capacity_kb,
            banks=t.l1_banks,
            line_words=t.l1_line_words,
            assoc=t.l1_assoc,
            hit_latency=t.l1_hit_latency,
            l2_latency=t.l2_latency,
            backing=self.memory,
        )
        self.l2_banks = [
            L2Bank(t.l2_bank_kb, name=f"l2r{r}", dma_words_per_cycle=t.smc_dma_words_per_cycle)
            for r in range(rows)
        ]
        self.channels = [
            StreamChannel(t.channel_words_per_cycle, name=f"chan{r}")
            for r in range(rows)
        ]
        self.store_buffers = [
            StoreBuffer(
                line_words=t.l1_line_words,
                drain_words_per_cycle=t.store_drain_words_per_cycle,
                capacity_lines=t.store_capacity_lines,
                name=f"stbuf{r}",
            )
            for r in range(rows)
        ]

    # ---- configuration -------------------------------------------------------

    def configure_smc(self, enabled: bool) -> None:
        """Morph every row's L2 bank into (or out of) software-managed mode."""
        for bank in self.l2_banks:
            bank.configure(L2Bank.SMC if enabled else L2Bank.HARDWARE)

    @property
    def smc_enabled(self) -> bool:
        return all(bank.is_smc for bank in self.l2_banks)

    def smc_bank(self, row: int) -> SmcBank:
        bank = self.l2_banks[row].smc
        if bank is None:
            raise RuntimeError(f"row {row} L2 bank is not in SMC mode")
        return bank

    # ---- timing interface used by the grid simulator --------------------------

    def lmw_deliver(
        self, row: int, request_cycle: int, words: int, scattered: bool = False
    ) -> List[int]:
        """Time one LMW: SMC port grant + latency, then channel delivery.

        Returns the cycle each word reaches the row edge (consumer nodes
        add their own routing hops on top).

        ``scattered=True`` models MIMD-style requests arriving from
        individual ALUs: without a block-synchronized schedule the bank
        cannot burst a whole record per port grant, so each word pays its
        own port slot — the paper's "multi-word load ... placed near the
        memory interface, to behave like a vector fetch unit" advantage of
        the SIMD configurations, inverted.
        """
        bank = self.smc_bank(row)
        if scattered:
            cycles = []
            for _ in range(words):
                grant = bank.port.reserve(request_cycle)
                ready = grant + self.timings.smc_latency
                cycles.extend(self.channels[row].deliver(ready, 1))
        else:
            grant = bank.port.reserve(request_cycle)
            ready = grant + self.timings.smc_latency
            cycles = self.channels[row].deliver(ready, words)
        if TRACE.enabled and cycles:
            self._trace_lmw(row, request_cycle, cycles, scattered)
        return cycles

    def lmw_deliver_fast(
        self, row: int, request_cycle: int, words: int, scattered: bool = False
    ) -> List[int]:
        """Batched twin of :meth:`lmw_deliver` for the engine hot loops.

        One call times a whole LMW chunk; :meth:`lmw_deliver` stays as
        the executable reference specification, and the equivalence
        suite pins the two to identical per-word delivery cycles, port
        stats and channel meter state.  A burst takes one SMC-port grant
        and one channel batch.  A scattered chunk grants each word its
        SMC port slot and then its channel slot in one pass, with both
        queues' state in local variables.  (The port and channel are
        independent queues, and each sees its requests in the reference
        order.)
        """
        bank = self.smc_bank(row)
        latency = self.timings.smc_latency
        channel = self.channels[row]
        if not scattered:
            grant = bank.port.reserve(request_cycle)
            cycles = channel.deliver_burst(grant + latency, words)
        else:
            # Each word takes its own port slot, all arriving at
            # ``request``, then the first channel slot at or after its
            # grant plus the latency: PortQueue.reserve_batch's loop for
            # the port and PortQueue.reserve's for the channel.
            request = int(request_cycle)
            port = bank.port
            p_used = port._used
            p_ports = port.ports
            grant = request if request > port._frontier else port._frontier
            slots = channel.slots
            c_used = slots._used
            c_ports = slots.ports
            c_frontier = slots._frontier
            cycles = []
            append = cycles.append
            p_wait = c_wait = 0
            for _ in range(words):
                have = p_used.get(grant, 0)
                while have >= p_ports:
                    grant += 1
                    have = p_used.get(grant, 0)
                p_used[grant] = have + 1
                p_wait += grant - request
                ready = grant + latency
                cycle = ready if ready > c_frontier else c_frontier
                taken = c_used.get(cycle, 0)
                while taken >= c_ports:
                    cycle += 1
                    taken = c_used.get(cycle, 0)
                c_used[cycle] = taken + 1
                if taken + 1 >= c_ports:
                    while c_used.get(c_frontier, 0) >= c_ports:
                        del c_used[c_frontier]
                        c_frontier += 1
                c_wait += cycle - ready
                append(cycle)
            # The port's lazy GC fixpoint, as reserve_batch leaves it.
            p_frontier = port._frontier
            while p_used.get(p_frontier, 0) >= p_ports:
                del p_used[p_frontier]
                p_frontier += 1
            port._frontier = p_frontier
            port.total_requests += words
            port.total_wait += p_wait
            slots._frontier = c_frontier
            slots.total_requests += words
            slots.total_wait += c_wait
            channel.meter.record_many(cycles)
        if TRACE.enabled and cycles:
            self._trace_lmw(row, request_cycle, cycles, scattered)
        return cycles

    def _trace_lmw(
        self, row: int, request_cycle: int, cycles: List[int], scattered: bool
    ) -> None:
        """One channel-track span per LMW burst (request to last word)."""
        first, last = min(cycles), max(cycles)
        TRACE.complete(
            MEM, f"channel row {row}",
            "record fetch" if scattered else "lmw burst",
            ts=request_cycle, dur=max(1, last + 1 - request_cycle),
            args={"words": len(cycles), "first_word": first,
                  "last_word": last},
        )

    def smc_store(self, row: int, address: int, cycle: int) -> float:
        """Time one word store through the row's store buffer."""
        done = self.store_buffers[row].push(address, cycle)
        if TRACE.enabled:
            TRACE.complete(
                MEM, f"store buffer row {row}", "store drain",
                ts=cycle, dur=max(1.0, done - cycle),
            )
        return done

    def smc_store_many(self, row: int, pushes) -> float:
        """Time a batch of ``(address, cycle)`` stores through one row's
        store buffer (same state and stats as sequential
        :meth:`smc_store` calls)."""
        if TRACE.enabled:
            pushes = list(pushes)
            done = self.store_buffers[row].push_many(pushes)
            if pushes:
                first = min(cycle for _, cycle in pushes)
                TRACE.complete(
                    MEM, f"store buffer row {row}", "store drain",
                    ts=first, dur=max(1.0, done - first),
                    args={"stores": len(pushes)},
                )
            return done
        return self.store_buffers[row].push_many(pushes)

    def l1_access(self, address: int, cycle: int, write: bool = False) -> int:
        """Time one access through the hardware-cached L1 path."""
        return self.l1.timed_access(address, cycle, write=write)

    def l1_access_batch(
        self, addresses, cycles, write: bool = False
    ) -> List[int]:
        """Time a stream of L1 accesses (batch twin of :meth:`l1_access`).

        ``cycles`` is one arrival cycle per address, or one int for the
        whole stream.  Identical ready cycles, cache state and port
        state to sequential :meth:`l1_access` calls in order — see
        :meth:`repro.memory.cache.BankedL1.timed_access_batch`.
        """
        return self.l1.timed_access_batch(addresses, cycles, write=write)

    def row_store_drain_cycle(self, row: int) -> int:
        return self.store_buffers[row].drain_complete_cycle()

    # ---- observability ---------------------------------------------------

    def metrics_snapshot(self) -> Dict[str, float]:
        """Flat metric values summarizing this hierarchy's traffic.

        Aggregated across banks/rows; keys follow the ``repro.obs``
        catalog (DESIGN.md "Observability").  Reading is cheap and
        side-effect free — the processor takes one snapshot per run and
        merges it into both :data:`~repro.obs.metrics.METRICS` and
        ``RunResult.detail``.  Keys are emitted in sorted order so the
        snapshot serializes byte-identically wherever it lands (cache
        documents, ledger rows, bench JSON).
        """
        l1 = self.l1.stats
        stall_cycles = 0
        requests = 0
        for port in self.l1.ports:
            stall_cycles += port.total_wait
            requests += port.total_requests
        for channel in self.channels:
            stall_cycles += channel.slots.total_wait
            requests += channel.slots.total_requests
        for bank in self.l2_banks:
            if bank.smc is not None:
                stall_cycles += bank.smc.port.total_wait
                requests += bank.smc.port.total_requests
        snapshot = {
            "l1.accesses": float(l1.accesses),
            "l1.hits": float(l1.hits),
            "l1.misses": float(l1.misses),
            "l1.evictions": float(l1.evictions),
            "l1.writebacks": float(l1.writebacks),
            "port.requests": float(requests),
            "port.stall_cycles": float(stall_cycles),
            "channel.words_delivered": float(
                sum(c.meter.words for c in self.channels)
            ),
            "storebuffer.stores": float(
                sum(b.stats.stores for b in self.store_buffers)
            ),
            "storebuffer.coalesced": float(
                sum(b.stats.coalesced for b in self.store_buffers)
            ),
            "storebuffer.words_drained": float(
                sum(b.stats.words_drained for b in self.store_buffers)
            ),
            "storebuffer.peak_depth": float(
                max((b.peak_lines for b in self.store_buffers), default=0)
            ),
            "smc.dma_words": float(
                sum(
                    bank.smc.meter.words for bank in self.l2_banks
                    if bank.smc is not None
                )
            ),
        }
        return dict(sorted(snapshot.items()))

    def reset_timing(self) -> None:
        """Clear all timing state (ports, buffers) but keep functional state."""
        self.l1.reset_timing()
        for channel in self.channels:
            channel.reset()
        for buf in self.store_buffers:
            buf.reset()
        for bank in self.l2_banks:
            if bank.smc is not None:
                bank.smc.reset_timing()

    # ---- functional helpers ----------------------------------------------------

    def stage_records(
        self, row: int, records: Sequence[Sequence], base: int = 0
    ) -> int:
        """Functionally stage input records into a row's SMC bank.

        Returns the SMC offset after the staged data (useful for staging
        output space behind it).  This mirrors what the DMA engine does
        during double-buffered streaming.
        """
        bank = self.smc_bank(row)
        cursor = base
        for record in records:
            for word in record:
                bank.write(cursor, word)
                cursor += 1
        return cursor

    def dma_fill(self, row: int, descriptor: DmaDescriptor, start_cycle: int = 0) -> int:
        """Run a DMA descriptor on a row's SMC bank against main memory."""
        return self.smc_bank(row).run_dma(descriptor, self.memory, start_cycle)
