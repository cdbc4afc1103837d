"""High-bandwidth streaming channels from SMC banks to ALU rows.

Section 4.2: "dedicated channels are provided from the SMC banks to a
corresponding row of ALUs.  The array based design provides a natural
partitioning of the cache banks to rows of ALUs."

A channel delivers a bounded number of words per cycle into its row.  An
LMW (load-multiple-word) instruction reserves one SMC port slot for the
request and then one channel slot per delivered word; each word then hops
along the row to its consumer node.
"""

from __future__ import annotations

from typing import List

from .ports import PortQueue, ThroughputMeter


class StreamChannel:
    """Delivery pipe from one SMC bank into one row of the ALU array."""

    def __init__(self, words_per_cycle: int = 4, name: str = "chan"):
        self.slots = PortQueue(words_per_cycle, name=f"{name}.slots")
        self.meter = ThroughputMeter(name=f"{name}.bw")
        self.name = name

    def deliver(self, ready_cycle: int, words: int) -> List[int]:
        """Schedule ``words`` deliveries from ``ready_cycle``; per-word cycles."""
        cycles = []
        for _ in range(words):
            grant = self.slots.reserve(ready_cycle)
            self.meter.record(grant)
            cycles.append(grant)
        return cycles

    def deliver_burst(self, ready_cycle: int, words: int) -> List[int]:
        """Batched twin of :meth:`deliver`: one slot-queue pass per burst.

        Bit-identical grants, meter and queue state; :meth:`deliver`
        stays as the executable reference specification.
        """
        cycles = self.slots.reserve_batch(ready_cycle, words)
        self.meter.record_many(cycles)
        return cycles

    def reset(self) -> None:
        self.slots.reset()
