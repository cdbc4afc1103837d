"""Batched memory-subsystem APIs vs their sequential reference loops.

The engine hot paths call batch twins (``reserve_batch``,
``deliver_burst``, ``push_many``, ``lmw_deliver_fast``,
``smc_store_many``, ``timed_access_batch``/``l1_access_batch``,
``timed_read``) that must be bit-identical — in returned cycles,
statistics and internal queue/tag state — to the original
one-call-per-word methods, which stay in the code as executable
reference specifications.
"""

import random

import pytest

from repro.memory import MemorySystem, MemoryTimings
from repro.memory.cache import BankedL1
from repro.memory.channels import StreamChannel
from repro.memory.ports import PortQueue, ThroughputMeter
from repro.memory.storebuffer import StoreBuffer


def port_state(queue):
    return (queue._used, queue._frontier, queue.total_requests,
            queue.total_wait)


class TestPortQueueBatch:
    @pytest.mark.parametrize("ports,earliest,count", [
        (1, 0, 5), (2, 3, 7), (4, 0, 4), (4, 10, 1), (3, 2, 11),
    ])
    def test_batch_matches_sequential_reserve(self, ports, earliest, count):
        batched = PortQueue(ports)
        reference = PortQueue(ports)
        grants = batched.reserve_batch(earliest, count)
        expected = [reference.reserve(earliest) for _ in range(count)]
        assert grants == expected
        assert port_state(batched) == port_state(reference)

    def test_batch_after_prior_traffic(self):
        """Batches arriving into a partially-used queue see the same
        slots the sequential path would."""
        rng = random.Random(42)
        batched, reference = PortQueue(2), PortQueue(2)
        for _ in range(20):
            cycle = rng.randrange(0, 8)
            assert batched.reserve(cycle) == reference.reserve(cycle)
        earliest = 3
        grants = batched.reserve_batch(earliest, 9)
        assert grants == [reference.reserve(earliest) for _ in range(9)]
        assert port_state(batched) == port_state(reference)
        # Follow-up singles agree too: internal state converged.
        assert batched.reserve(0) == reference.reserve(0)

    def test_empty_batch_is_a_no_op(self):
        queue = PortQueue(2)
        assert queue.reserve_batch(5, 0) == []
        assert queue.total_requests == 0


class TestThroughputMeterBatch:
    def test_record_many_matches_record_loop(self):
        cycles = [7, 3, 3, 12, 9]
        batched, reference = ThroughputMeter(), ThroughputMeter()
        batched.record_many(cycles)
        for cycle in cycles:
            reference.record(cycle)
        assert batched.words == reference.words
        assert batched.first_cycle == reference.first_cycle
        assert batched.last_cycle == reference.last_cycle
        assert batched.words_per_cycle == reference.words_per_cycle

    def test_record_many_empty(self):
        meter = ThroughputMeter()
        meter.record_many([])
        assert meter.words == 0 and meter.first_cycle is None


def channel_state(channel):
    return (port_state(channel.slots), channel.meter.words,
            channel.meter.first_cycle, channel.meter.last_cycle)


class TestStreamChannelBatch:
    @pytest.mark.parametrize("words", [1, 3, 4, 9])
    def test_burst_matches_deliver(self, words):
        batched = StreamChannel(words_per_cycle=4)
        reference = StreamChannel(words_per_cycle=4)
        assert batched.deliver_burst(5, words) == reference.deliver(5, words)
        assert channel_state(batched) == channel_state(reference)


def storebuffer_state(buf):
    return (buf.stats.stores, buf.stats.words_drained, buf.stats.coalesced,
            buf._drain_free_at, buf._last_drain_complete,
            buf.drain_complete_cycle())


class TestStoreBufferBatch:
    def test_push_many_matches_push_loop(self):
        rng = random.Random(7)
        pushes = [(rng.randrange(0, 64), rng.randrange(0, 30))
                  for _ in range(40)]
        batched, reference = StoreBuffer(), StoreBuffer()
        final = batched.push_many(pushes)
        for address, cycle in pushes:
            last = reference.push(address, cycle)
        assert final == last
        assert storebuffer_state(batched) == storebuffer_state(reference)

    def test_push_many_coalesces_like_push(self):
        """Same-line stores inside one batch coalesce exactly as the
        sequential path coalesces them."""
        pushes = [(0, 0), (1, 0), (2, 0), (16, 0), (3, 1)]
        batched, reference = StoreBuffer(line_words=8), StoreBuffer(line_words=8)
        batched.push_many(pushes)
        for address, cycle in pushes:
            reference.push(address, cycle)
        assert batched.stats.coalesced == reference.stats.coalesced > 0
        assert storebuffer_state(batched) == storebuffer_state(reference)

    def test_push_many_matches_push_under_eviction_pressure(self):
        """With a tiny capacity the batch path evicts through the same
        FIFO policy as the sequential path — identical pending lines."""
        rng = random.Random(11)
        pushes = [(rng.randrange(0, 256), rng.randrange(0, 30))
                  for _ in range(60)]
        batched = StoreBuffer(capacity_lines=2)
        reference = StoreBuffer(capacity_lines=2)
        final = batched.push_many(pushes)
        for address, cycle in pushes:
            last = reference.push(address, cycle)
        assert final == last
        assert storebuffer_state(batched) == storebuffer_state(reference)
        assert batched._pending_lines == reference._pending_lines
        assert len(batched._pending_lines) <= 2


def small_l1():
    """A deliberately tiny L1 so random streams hit every path — hits,
    misses, LRU evictions and dirty writebacks."""
    return BankedL1(capacity_kb=2, banks=2, line_words=8, assoc=2)


def l1_state(l1):
    return (
        [port_state(port) for port in l1.ports],
        [bank._sets for bank in l1.banks],
        [(bank.stats.accesses, bank.stats.hits, bank.stats.misses,
          bank.stats.evictions, bank.stats.writebacks)
         for bank in l1.banks],
    )


class TestBankedL1Batch:
    @pytest.mark.parametrize("write", [False, True])
    def test_batch_matches_sequential_access(self, write):
        rng = random.Random(13)
        addresses = [rng.randrange(0, 4096) for _ in range(120)]
        cycles = [rng.randrange(0, 60) for _ in range(120)]
        batched, reference = small_l1(), small_l1()
        got = batched.timed_access_batch(addresses, cycles, write=write)
        want = [reference.timed_access(a, c, write=write)
                for a, c in zip(addresses, cycles)]
        assert got == want
        assert l1_state(batched) == l1_state(reference)
        assert batched.stats.evictions > 0  # the stream really thrashed

    def test_scalar_cycle_broadcasts(self):
        addresses = [0, 8, 16, 64, 8, 0]
        batched, reference = small_l1(), small_l1()
        got = batched.timed_access_batch(addresses, 9)
        want = [reference.timed_access(a, 9) for a in addresses]
        assert got == want
        assert l1_state(batched) == l1_state(reference)

    def test_batch_after_prior_sequential_traffic(self):
        """A batch entering warm tag and port state sees exactly the
        grants/hits the sequential path would — and vice versa after."""
        rng = random.Random(29)
        batched, reference = small_l1(), small_l1()
        for _ in range(40):
            a, c = rng.randrange(0, 2048), rng.randrange(0, 30)
            assert batched.timed_access(a, c) == reference.timed_access(a, c)
        addresses = [rng.randrange(0, 2048) for _ in range(50)]
        got = batched.timed_access_batch(addresses, 12)
        want = [reference.timed_access(a, 12) for a in addresses]
        assert got == want
        # Follow-up singles agree: state fully converged.
        assert batched.timed_access(3, 50) == reference.timed_access(3, 50)
        assert l1_state(batched) == l1_state(reference)

    def test_short_and_empty_batches(self):
        batched, reference = small_l1(), small_l1()
        assert batched.timed_access_batch([], 0) == []
        assert batched.timed_access_batch([40], 2) == \
            [reference.timed_access(40, 2)]
        assert l1_state(batched) == l1_state(reference)

    def test_memory_system_batch_front_door(self):
        """``MemorySystem.l1_access_batch`` is the engines' entry point;
        it must agree with sequential ``l1_access`` including the
        metrics snapshot the run publishes."""
        rng = random.Random(31)
        addresses = [rng.randrange(0, 8192) for _ in range(80)]
        cycles = [rng.randrange(0, 40) for _ in range(80)]
        fast, reference = MemorySystem(rows=4), MemorySystem(rows=4)
        got = fast.l1_access_batch(addresses, cycles)
        want = [reference.l1_access(a, c)
                for a, c in zip(addresses, cycles)]
        assert got == want
        assert fast.metrics_snapshot() == reference.metrics_snapshot()


class TestBankedL1FusedRead:
    """``BankedL1.timed_read`` (the MIMD core's staged L1 round trip)
    vs sequential ``timed_access`` reads."""

    def test_matches_timed_access_across_flush_and_reset(self):
        rng = random.Random(17)
        fused, reference = small_l1(), small_l1()
        for _ in range(60):
            # Earlier reads and writes leave dirty lines behind, so the
            # read streams below evict them and write them back.
            a, c, w = rng.randrange(0, 4096), rng.randrange(0, 40), \
                rng.random() < 0.5
            assert fused.timed_access(a, c, write=w) == \
                reference.timed_access(a, c, write=w)
        for step in range(3):
            before = fused.stats
            addresses = [rng.randrange(0, 4096) for _ in range(150)]
            cycles = [rng.randrange(0, 200) for _ in range(150)]
            got = [fused.timed_read(a, c) for a, c in zip(addresses, cycles)]
            want = [reference.timed_access(a, c)
                    for a, c in zip(addresses, cycles)]
            assert got == want
            assert l1_state(fused) == l1_state(reference)
            after = fused.stats
            assert after.hits > before.hits
            assert after.evictions > before.evictions
            assert after.writebacks > before.writebacks
            for cache in (fused, reference):
                if step == 0:
                    for bank in cache.banks:
                        bank.flush()
                else:
                    cache.reset_timing()
                for a in addresses[:40]:
                    cache.timed_access(a, 5, write=True)
            assert l1_state(fused) == l1_state(reference)

    def test_rejects_a_bank_with_more_than_one_port(self):
        l1 = small_l1()
        l1.ports[1] = PortQueue(2, name="L1p1")
        assert l1.timed_read(0, 3) == small_l1().timed_access(0, 3)
        with pytest.raises(ValueError, match="one port"):
            l1.timed_read(l1.line_words, 3)  # the next line: bank 1


def smc_memory():
    memory = MemorySystem(rows=4)
    memory.configure_smc(True)
    return memory


class TestMemorySystemFastPaths:
    @pytest.mark.parametrize("scattered", [False, True])
    @pytest.mark.parametrize("words", [1, 4, 10])
    def test_lmw_deliver_fast_matches_reference(self, scattered, words):
        fast, reference = smc_memory(), smc_memory()
        got = fast.lmw_deliver_fast(1, 6, words, scattered=scattered)
        want = reference.lmw_deliver(1, 6, words, scattered=scattered)
        assert got == want
        assert port_state(fast.smc_bank(1).port) == \
            port_state(reference.smc_bank(1).port)
        assert channel_state(fast.channels[1]) == \
            channel_state(reference.channels[1])

    @pytest.mark.parametrize("channel_words", [1, 2, 4])
    def test_scattered_pass_after_random_traffic(self, channel_words):
        """The one-pass scattered chunk entering queues that bursts and
        earlier chunks left half full, at out-of-order request cycles."""
        rng = random.Random(channel_words)

        def memory():
            m = MemorySystem(rows=2, timings=MemoryTimings(
                channel_words_per_cycle=channel_words))
            m.configure_smc(True)
            return m

        fast, reference = memory(), memory()
        for _ in range(30):
            cycle, words = rng.randrange(0, 60), rng.randint(1, 9)
            scattered = rng.random() < 0.5
            assert fast.lmw_deliver(1, cycle, words, scattered=scattered) \
                == reference.lmw_deliver(1, cycle, words,
                                         scattered=scattered)
        for _ in range(40):
            cycle, words = rng.randrange(0, 120), rng.randint(0, 10)
            got = fast.lmw_deliver_fast(1, cycle, words, scattered=True)
            want = reference.lmw_deliver(1, cycle, words, scattered=True)
            assert got == want
        assert port_state(fast.smc_bank(1).port) == \
            port_state(reference.smc_bank(1).port)
        assert channel_state(fast.channels[1]) == \
            channel_state(reference.channels[1])
        assert fast.metrics_snapshot() == reference.metrics_snapshot()

    def test_interleaved_fast_and_reference_traffic(self):
        """Fast and reference calls can interleave on one system without
        the queues diverging from an all-reference history."""
        fast, reference = smc_memory(), smc_memory()
        for request, (cycle, words, scattered) in enumerate(
            [(0, 4, False), (2, 3, True), (2, 8, False), (5, 2, True)]
        ):
            method = fast.lmw_deliver_fast if request % 2 == 0 \
                else fast.lmw_deliver
            got = method(0, cycle, words, scattered=scattered)
            want = reference.lmw_deliver(0, cycle, words,
                                         scattered=scattered)
            assert got == want

    def test_smc_store_many_matches_reference(self):
        rng = random.Random(3)
        pushes = [(rng.randrange(0, 128), rng.randrange(0, 20))
                  for _ in range(25)]
        fast, reference = smc_memory(), smc_memory()
        final = fast.smc_store_many(2, pushes)
        for address, cycle in pushes:
            last = reference.smc_store(2, address, cycle)
        assert final == last
        assert storebuffer_state(fast.store_buffers[2]) == \
            storebuffer_state(reference.store_buffers[2])
