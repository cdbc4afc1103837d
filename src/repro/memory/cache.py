"""Set-associative cache model (the hardware-managed L1 path).

The paper's second memory-system mechanism is a conventional cached
memory subsystem for *irregular* accesses (texture lookups, and — on the
baseline ILP machine — all accesses).  This module provides a banked,
set-associative, LRU cache with real tag state, so hit/miss behaviour is
measured rather than assumed, plus port arbitration for bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..obs.trace import MEM, TRACE
from .mainmem import WORD_BYTES, MainMemory
from .ports import PortQueue


@dataclass
class CacheStats:
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class SetAssocCache:
    """One cache bank: set-associative with true-LRU replacement.

    Addresses are word addresses; ``line_words`` words form a line.  The
    cache is write-allocate / write-back, which is what the misses vs.
    writebacks statistics assume.
    """

    def __init__(
        self,
        capacity_kb: int,
        line_words: int = 8,
        assoc: int = 2,
        name: str = "L1",
    ):
        line_bytes = line_words * WORD_BYTES
        total_lines = capacity_kb * 1024 // line_bytes
        if total_lines % assoc:
            raise ValueError(
                f"{capacity_kb}KB / {assoc}-way / {line_bytes}B lines does "
                "not divide evenly"
            )
        self.name = name
        self.line_words = line_words
        self.assoc = assoc
        self.n_sets = total_lines // assoc
        # sets[set_index] = list of (tag, dirty) in LRU order (front = LRU)
        self._sets: List[List[Tuple[int, bool]]] = [[] for _ in range(self.n_sets)]
        self.stats = CacheStats()

    def _locate(self, address: int) -> Tuple[int, int]:
        line = address // self.line_words
        return line % self.n_sets, line // self.n_sets

    def access(self, address: int, write: bool = False) -> bool:
        """Touch ``address``; returns True on hit.  Updates LRU/dirty state."""
        set_index, tag = self._locate(address)
        ways = self._sets[set_index]
        self.stats.accesses += 1
        for i, (t, dirty) in enumerate(ways):
            if t == tag:
                ways.pop(i)
                ways.append((tag, dirty or write))
                self.stats.hits += 1
                return True
        self.stats.misses += 1
        if len(ways) >= self.assoc:
            _, victim_dirty = ways.pop(0)
            self.stats.evictions += 1
            if victim_dirty:
                self.stats.writebacks += 1
        ways.append((tag, write))
        return False

    def contains(self, address: int) -> bool:
        set_index, tag = self._locate(address)
        return any(t == tag for t, _ in self._sets[set_index])

    def flush(self) -> int:
        """Invalidate everything; returns number of dirty lines written back."""
        dirty = sum(1 for ways in self._sets for _, d in ways if d)
        self.stats.writebacks += dirty
        self._sets = [[] for _ in range(self.n_sets)]
        return dirty


class BankedL1:
    """The level-1 data cache: several banks, each with its own port.

    The paper's baseline routes *every* operand through shared structures
    like the L1; its limited bandwidth is one of the two reasons the
    baseline starves (Section 5.2).  ``timed_access`` combines the
    functional hit/miss outcome with port arbitration to give a completion
    cycle.
    """

    def __init__(
        self,
        capacity_kb: int = 64,
        banks: int = 4,
        line_words: int = 8,
        assoc: int = 2,
        hit_latency: int = 3,
        l2_latency: int = 12,
        backing: Optional[MainMemory] = None,
    ):
        self.banks = [
            SetAssocCache(capacity_kb // banks, line_words, assoc, name=f"L1b{i}")
            for i in range(banks)
        ]
        self.ports = [PortQueue(1, name=f"L1p{i}") for i in range(banks)]
        self.hit_latency = hit_latency
        self.l2_latency = l2_latency
        self.line_words = line_words
        self.backing = backing

    def bank_of(self, address: int) -> int:
        return (address // self.line_words) % len(self.banks)

    def timed_access(self, address: int, cycle: int, write: bool = False) -> int:
        """Perform an access arriving at ``cycle``; return data-ready cycle."""
        bank = self.bank_of(address)
        grant = self.ports[bank].reserve(cycle)
        hit = self.banks[bank].access(address, write=write)
        latency = self.hit_latency + (0 if hit else self.l2_latency)
        if TRACE.enabled:
            TRACE.complete(
                MEM, f"l1 bank {bank}", "hit" if hit else "miss",
                ts=grant, dur=latency,
            )
        return grant + latency

    def timed_read(self, address: int, cycle: int) -> int:
        """:meth:`timed_access` for one untraced read, in one call.

        Does the work of :meth:`bank_of`, a one-port
        :meth:`PortQueue.reserve` and :meth:`SetAssocCache.access`
        inline, with the same set indexing, so its ready cycles, tag
        and LRU state, statistics and port state equal the sequential
        calls'.  Port and set state are read through the bank objects on
        every call (:meth:`SetAssocCache.flush` replaces ``_sets``).
        ``cycle`` is an int.  It emits no trace event; a traced run
        calls :meth:`timed_access`.
        """
        line = address // self.line_words
        bank = line % len(self.banks)
        port = self.ports[bank]
        if port.ports != 1:
            raise ValueError(
                f"timed_read needs one port per bank; {port.name} has "
                f"{port.ports}"
            )
        # One-port reserve.  Every entry of ``_used`` is a full cycle,
        # and each grant path collects the full cycles from the frontier
        # on, so the frontier's own cycle is free on entry: only a grant
        # there moves it.
        used = port._used
        frontier = port._frontier
        grant = cycle if cycle > frontier else frontier
        while grant in used:
            grant += 1
        if grant == frontier:
            frontier += 1
            while frontier in used:
                del used[frontier]
                frontier += 1
            port._frontier = frontier
        else:
            used[grant] = 1
        port.total_requests += 1
        port.total_wait += grant - cycle

        cache = self.banks[bank]
        n_sets = cache.n_sets
        ways = cache._sets[line % n_sets]
        tag = line // n_sets
        stats = cache.stats
        stats.accesses += 1
        if ways and ways[-1][0] == tag:  # already most recently used
            stats.hits += 1
            return grant + self.hit_latency
        for i, way in enumerate(ways):
            if way[0] == tag:
                del ways[i]
                ways.append(way)
                stats.hits += 1
                return grant + self.hit_latency
        stats.misses += 1
        if len(ways) >= cache.assoc:
            _, victim_dirty = ways.pop(0)
            stats.evictions += 1
            if victim_dirty:
                stats.writebacks += 1
        ways.append((tag, False))
        return grant + self.hit_latency + self.l2_latency

    def timed_access_batch(
        self,
        addresses: Sequence[int],
        cycles: Union[int, Sequence[int]],
        write: bool = False,
    ) -> List[int]:
        """Batched twin of :meth:`timed_access` for whole address streams.

        Equivalent — in returned ready cycles, per-bank tag/LRU state,
        hit/miss/eviction/writeback statistics and port-queue state — to
        sequential :meth:`timed_access` calls in order.  ``cycles`` may
        be one arrival cycle for the whole stream or one per address.
        The bank, set and tag of every address are precomputed in one
        numpy pass (``line = addr // line_words``; ``bank = line %
        banks``; within a bank, ``set = line % n_sets``, ``tag = line //
        n_sets``) and the remaining per-access work — FIFO port grant
        plus the LRU way scan — runs as a tight loop with the bank
        structures held in locals.  The per-access path stands alone as
        the reference (and serves tracing, which needs one event per
        access).
        """
        n = len(addresses)
        if isinstance(cycles, int):
            cycles = [cycles] * n
        if TRACE.enabled or n < 2:
            return [
                self.timed_access(address, cycle, write=write)
                for address, cycle in zip(addresses, cycles)
            ]
        lines = np.asarray(addresses, dtype=np.int64) // self.line_words
        n_banks = len(self.banks)
        n_sets = self.banks[0].n_sets
        bank_idx = (lines % n_banks).tolist()
        set_idx = (lines % n_sets).tolist()
        tags = (lines // n_sets).tolist()
        banks = self.banks
        ports = self.ports
        hit_latency = self.hit_latency
        miss_latency = hit_latency + self.l2_latency
        out: List[int] = []
        append = out.append
        for i in range(n):
            b = bank_idx[i]
            grant = ports[b].reserve(cycles[i])
            cache = banks[b]
            ways = cache._sets[set_idx[i]]
            stats = cache.stats
            stats.accesses += 1
            tag = tags[i]
            for j, (t, dirty) in enumerate(ways):
                if t == tag:
                    ways.pop(j)
                    ways.append((tag, dirty or write))
                    stats.hits += 1
                    append(grant + hit_latency)
                    break
            else:
                stats.misses += 1
                if len(ways) >= cache.assoc:
                    _, victim_dirty = ways.pop(0)
                    stats.evictions += 1
                    if victim_dirty:
                        stats.writebacks += 1
                ways.append((tag, write))
                append(grant + miss_latency)
        return out

    def warm(self, addresses) -> None:
        """Pre-touch addresses (used to model steady-state resident tables)."""
        for address in addresses:
            bank = self.bank_of(address)
            self.banks[bank].access(address)

    @property
    def stats(self) -> CacheStats:
        total = CacheStats()
        for bank in self.banks:
            total.accesses += bank.stats.accesses
            total.hits += bank.stats.hits
            total.misses += bank.stats.misses
            total.evictions += bank.stats.evictions
            total.writebacks += bank.stats.writebacks
        return total

    def reset_timing(self) -> None:
        for port in self.ports:
            port.reset()
