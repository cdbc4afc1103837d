"""SMC banks, DMA engines and the L2 mode morph."""

import pytest

from repro.memory.mainmem import MainMemory
from repro.memory.smc import DmaDescriptor, L2Bank, SmcBank


class TestSmcBank:
    def test_scratchpad_read_write(self):
        bank = SmcBank(capacity_kb=1)
        bank.write(5, 42)
        assert bank.read(5) == 42
        assert bank.read_block(4, 3) == [0, 42, 0]

    def test_word_array_allocated_on_first_write(self):
        """Timing never touches the scratchpad, so a bank allocates it
        only when written; until then every word reads 0."""
        bank = SmcBank(capacity_kb=1)
        assert bank._data is None
        assert bank.read(127) == 0
        assert bank.read_block(0, 128) == [0] * 128
        with pytest.raises(IndexError):
            bank.read_block(120, 9)
        assert bank._data is None
        bank.write(3, 5)
        assert len(bank._data) == bank.capacity_words == 128
        assert bank.read_block(2, 3) == [0, 5, 0]

    def test_timing_leaves_the_word_array_unallocated(self):
        from repro.memory import MemorySystem

        memory = MemorySystem(4)
        memory.configure_smc(True)
        memory.smc_store(0, 5, 0)
        memory.lmw_deliver_fast(0, 1, 4)
        assert all(memory.smc_bank(row)._data is None for row in range(4))

    def test_bounds_checked(self):
        bank = SmcBank(capacity_kb=1)  # 128 words
        with pytest.raises(IndexError):
            bank.read(128)
        with pytest.raises(IndexError):
            bank.write(-1, 0)

    def test_dma_gather_with_stride(self):
        mem = MainMemory()
        mem.write_block(100, [1, 2, 3, 4, 5, 6, 7, 8])
        bank = SmcBank(capacity_kb=1)
        # Two records of 2 words with stride 4: picks 100-101, 104-105.
        desc = DmaDescriptor(mem_base=100, smc_base=0, record_words=2,
                             records=2, mem_stride=4)
        bank.run_dma(desc, mem)
        assert bank.read_block(0, 4) == [1, 2, 5, 6]

    def test_dma_writeback_direction(self):
        mem = MainMemory()
        bank = SmcBank(capacity_kb=1)
        bank.write(0, 7)
        bank.write(1, 9)
        desc = DmaDescriptor(mem_base=50, smc_base=0, record_words=2,
                             records=1, to_memory=True)
        bank.run_dma(desc, mem)
        assert mem.read_block(50, 2) == [7, 9]

    def test_dma_timing_serializes_on_engine(self):
        mem = MainMemory()
        bank = SmcBank(capacity_kb=1, dma_words_per_cycle=8)
        d = DmaDescriptor(mem_base=0, smc_base=0, record_words=8, records=2)
        first = bank.run_dma(d, mem, start_cycle=0)
        second = bank.run_dma(d, mem, start_cycle=0)
        assert first == 2          # 16 words at 8/cycle
        assert second == 4         # queued behind the first

    def test_dma_capacity_checked(self):
        bank = SmcBank(capacity_kb=1)
        desc = DmaDescriptor(mem_base=0, smc_base=0, record_words=64,
                             records=4)
        with pytest.raises(ValueError, match="exceeds bank capacity"):
            bank.run_dma(desc, MainMemory())


class TestL2BankMorph:
    def test_default_is_hardware_mode(self):
        bank = L2Bank()
        assert not bank.is_smc
        assert bank.smc is None

    def test_morph_to_smc_and_back(self):
        bank = L2Bank(capacity_kb=64)
        bank.configure(L2Bank.SMC)
        assert bank.is_smc
        bank.smc.write(0, 1)
        bank.configure(L2Bank.HARDWARE)
        assert bank.smc is None  # scratchpad contents are software-managed

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            L2Bank().configure("quantum")
