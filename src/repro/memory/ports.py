"""Port/bandwidth arbitration primitives shared by all memory structures.

Every shared structure in the microarchitecture — register-file banks, L1
cache banks, SMC banks, streaming channels, store-buffer drains — is,
for timing purposes, a resource that can accept a bounded number of
requests per cycle.  :class:`PortQueue` models exactly that: requests ask
for the earliest available slot at-or-after their arrival cycle and the
queue hands out slots in arrival order (FIFO arbitration).

This simple reservation abstraction is what turns the paper's bandwidth
arguments (register-file pressure from scalar constants, L1 pressure from
lookup tables, store-bandwidth limits on scientific codes) into measured
cycles.
"""

from __future__ import annotations

from typing import Dict


class PortQueue:
    """A resource serving at most ``ports`` requests per cycle.

    The implementation tracks, per cycle, how many slots have been handed
    out, and remembers a monotonic high-water mark so long simulations
    stay O(1) per reservation.
    """

    def __init__(self, ports: int, name: str = ""):
        if ports < 1:
            raise ValueError(f"ports must be >= 1, got {ports}")
        self.ports = ports
        self.name = name
        self._used: Dict[int, int] = {}
        self._frontier = 0  # no free slot exists before this cycle
        self.total_requests = 0
        self.total_wait = 0

    def reserve(self, earliest: int) -> int:
        """Reserve one slot at or after ``earliest``; return the granted cycle."""
        cycle = max(int(earliest), self._frontier)
        while self._used.get(cycle, 0) >= self.ports:
            cycle += 1
        used = self._used.get(cycle, 0) + 1
        self._used[cycle] = used
        if used >= self.ports:
            # Garbage-collect full cycles behind the frontier lazily.
            while self._used.get(self._frontier, 0) >= self.ports:
                self._used.pop(self._frontier, None)
                self._frontier += 1
        self.total_requests += 1
        self.total_wait += cycle - int(earliest)
        return cycle

    def reserve_batch(self, earliest: int, count: int) -> list:
        """Grant ``count`` same-arrival requests in one pass.

        Equivalent — in granted cycles, stats and internal state — to
        ``count`` sequential :meth:`reserve` calls that all pass the same
        ``earliest`` (the shape of a whole LMW chunk's reservations
        arriving together).  One dict probe per *cycle* instead of one
        per *request* keeps the batched hot paths cheap.
        """
        if count <= 0:
            return []
        earliest = int(earliest)
        used = self._used
        ports = self.ports
        cycle = earliest if earliest > self._frontier else self._frontier
        grants: list = []
        remaining = count
        while remaining:
            have = used.get(cycle, 0)
            free = ports - have
            if free > 0:
                take = free if free < remaining else remaining
                used[cycle] = have + take
                grants.extend([cycle] * take)
                remaining -= take
            cycle += 1
        # Same lazy GC fixpoint the sequential path maintains.
        while used.get(self._frontier, 0) >= ports:
            used.pop(self._frontier, None)
            self._frontier += 1
        self.total_requests += count
        self.total_wait += sum(grants) - count * earliest
        return grants

    @property
    def average_wait(self) -> float:
        """Mean queuing delay (cycles) across all granted requests."""
        return self.total_wait / self.total_requests if self.total_requests else 0.0

    def reset(self) -> None:
        self._used.clear()
        self._frontier = 0
        self.total_requests = 0
        self.total_wait = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<PortQueue {self.name or '?'} ports={self.ports} "
            f"reqs={self.total_requests} avg_wait={self.average_wait:.2f}>"
        )


class ThroughputMeter:
    """Tracks word-level bandwidth use of a structure for statistics."""

    def __init__(self, name: str = ""):
        self.name = name
        self.words = 0
        self.first_cycle: int | None = None
        self.last_cycle = 0

    def record(self, cycle: int, words: int = 1) -> None:
        self.words += words
        if self.first_cycle is None or cycle < self.first_cycle:
            self.first_cycle = cycle
        self.last_cycle = max(self.last_cycle, cycle)

    def record_many(self, cycles) -> None:
        """Record one word at each cycle (batch twin of :meth:`record`)."""
        if not cycles:
            return
        self.words += len(cycles)
        lo = min(cycles)
        if self.first_cycle is None or lo < self.first_cycle:
            self.first_cycle = lo
        hi = max(cycles)
        if hi > self.last_cycle:
            self.last_cycle = hi

    @property
    def words_per_cycle(self) -> float:
        if self.first_cycle is None:
            return 0.0
        span = max(1, self.last_cycle - self.first_cycle + 1)
        return self.words / span
