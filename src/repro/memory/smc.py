"""Software-managed cache (SMC) banks and their DMA engines.

Mechanism 1 of the paper (Section 4.2): portions of the secondary-level
cache banks are reconfigured as a fully software-managed cache — tag
checks and hardware replacement disabled, an explicitly-programmed DMA
engine per bank, and the bank exposed to software as a flat scratchpad.
Only statically-identifiable *regular* accesses use the SMC, bypassing
the L1.  One SMC bank sits at the edge of each row of the ALU array and
feeds that row through a dedicated streaming channel.

The DMA programming interface here (descriptor queue of strided copies)
follows the stream-register-file abstraction the paper cites from
Imagine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from .mainmem import WORD_BYTES, MainMemory, Number
from .ports import PortQueue, ThroughputMeter


@dataclass(frozen=True)
class DmaDescriptor:
    """One strided copy programmed into a bank's DMA engine.

    Copies ``records × record_words`` words starting at ``mem_base`` in
    main memory (with ``mem_stride`` words between records) to ``smc_base``
    in the bank, packed contiguously.  ``to_memory=True`` reverses the
    direction (write-back of produced records).
    """

    mem_base: int
    smc_base: int
    record_words: int
    records: int
    mem_stride: Optional[int] = None
    to_memory: bool = False

    @property
    def total_words(self) -> int:
        return self.record_words * self.records

    def stride(self) -> int:
        return self.mem_stride if self.mem_stride is not None else self.record_words


class SmcBank:
    """One L2 bank operating in software-managed mode.

    Functional state is a word array of ``capacity_kb``, allocated on the
    first write (no timing path reads it, and a never-written word reads
    0); timing state is a single access port (the paper packs all regular
    accesses of a row into a single bank) plus a DMA engine with its own
    word-per-cycle transfer rate.
    """

    def __init__(
        self,
        capacity_kb: int = 64,
        name: str = "smc",
        dma_words_per_cycle: int = 8,
    ):
        self.name = name
        self.capacity_words = capacity_kb * 1024 // WORD_BYTES
        self._data: Optional[List[Number]] = None
        self.port = PortQueue(1, name=f"{name}.port")
        self.dma_rate = dma_words_per_cycle
        self.meter = ThroughputMeter(name=f"{name}.bw")
        self.dma_busy_until = 0

    # ---- functional scratchpad interface -------------------------------

    def read(self, offset: int) -> Number:
        self._check(offset)
        return 0 if self._data is None else self._data[offset]

    def write(self, offset: int, value: Number) -> None:
        self._check(offset)
        if self._data is None:
            self._data = [0] * self.capacity_words
        self._data[offset] = value

    def read_block(self, offset: int, count: int) -> List[Number]:
        self._check(offset + count - 1)
        if self._data is None:
            return [0] * count
        return self._data[offset : offset + count]

    def _check(self, offset: int) -> None:
        if not 0 <= offset < self.capacity_words:
            raise IndexError(
                f"{self.name}: offset {offset} outside 0..{self.capacity_words - 1}"
            )

    # ---- DMA engine ---------------------------------------------------------

    def run_dma(self, descriptor: DmaDescriptor, memory: MainMemory, start_cycle: int = 0) -> int:
        """Execute one DMA descriptor; returns the completion cycle.

        Transfers are performed functionally (words moved) and timed at
        ``dma_rate`` words per cycle, serialized after any DMA already in
        flight on this bank.
        """
        if descriptor.total_words > self.capacity_words:
            raise ValueError(
                f"{self.name}: descriptor of {descriptor.total_words} words "
                f"exceeds bank capacity {self.capacity_words}"
            )
        stride = descriptor.stride()
        for r in range(descriptor.records):
            mem_addr = descriptor.mem_base + r * stride
            smc_addr = descriptor.smc_base + r * descriptor.record_words
            if descriptor.to_memory:
                memory.write_block(
                    mem_addr, self.read_block(smc_addr, descriptor.record_words)
                )
            else:
                for w, value in enumerate(memory.read_block(mem_addr, descriptor.record_words)):
                    self.write(smc_addr + w, value)
        begin = max(start_cycle, self.dma_busy_until)
        cycles = -(-descriptor.total_words // self.dma_rate)  # ceil division
        self.dma_busy_until = begin + cycles
        self.meter.record(begin, descriptor.total_words)
        return self.dma_busy_until

    def reset_timing(self) -> None:
        self.port.reset()
        self.dma_busy_until = 0


class L2Bank:
    """A secondary-level cache bank that can morph between modes.

    In ``hardware`` mode the bank backs the L1 (its timing is folded into
    the L1 miss latency); in ``smc`` mode it exposes an :class:`SmcBank`.
    The mode switch is the paper's run-time reconfiguration: "the hardware
    replacement scheme and tag checks in these cache banks are disabled".
    """

    HARDWARE = "hardware"
    SMC = "smc"

    def __init__(self, capacity_kb: int = 64, name: str = "l2", dma_words_per_cycle: int = 8):
        self.name = name
        self.capacity_kb = capacity_kb
        self._dma_rate = dma_words_per_cycle
        self.mode = self.HARDWARE
        self.smc: Optional[SmcBank] = None

    def configure(self, mode: str) -> None:
        if mode not in (self.HARDWARE, self.SMC):
            raise ValueError(f"unknown L2 bank mode {mode!r}")
        self.mode = mode
        if mode == self.SMC:
            self.smc = SmcBank(
                self.capacity_kb, name=f"{self.name}.smc",
                dma_words_per_cycle=self._dma_rate,
            )
        else:
            self.smc = None

    @property
    def is_smc(self) -> bool:
        return self.mode == self.SMC
