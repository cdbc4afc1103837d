"""PortQueue arbitration invariants (property-based)."""

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.memory.ports import PortQueue, ThroughputMeter


class TestPortQueue:
    def test_rejects_zero_ports(self):
        with pytest.raises(ValueError):
            PortQueue(0)

    def test_serializes_same_cycle_requests(self):
        q = PortQueue(1)
        grants = [q.reserve(0) for _ in range(4)]
        assert grants == [0, 1, 2, 3]

    def test_multi_port_packs_per_cycle(self):
        q = PortQueue(2)
        grants = [q.reserve(0) for _ in range(5)]
        assert grants == [0, 0, 1, 1, 2]

    def test_grant_never_before_request(self):
        q = PortQueue(2)
        assert q.reserve(10) == 10
        assert q.reserve(5) == 5  # earlier slot still free

    @given(st.lists(st.integers(min_value=0, max_value=50),
                    min_size=1, max_size=120),
           st.integers(min_value=1, max_value=4))
    def test_never_overbooked_and_never_early(self, arrivals, ports):
        q = PortQueue(ports)
        grants = []
        for arrival in arrivals:
            grant = q.reserve(arrival)
            assert grant >= arrival
            grants.append(grant)
        usage = Counter(grants)
        assert max(usage.values()) <= ports

    def test_average_wait_accounting(self):
        q = PortQueue(1)
        for _ in range(3):
            q.reserve(0)
        assert q.total_requests == 3
        assert q.average_wait == pytest.approx(1.0)  # waits 0,1,2

    def test_reset_clears_state(self):
        q = PortQueue(1)
        q.reserve(0)
        q.reset()
        assert q.reserve(0) == 0
        assert q.total_requests == 1


class TestThroughputMeter:
    def test_words_per_cycle(self):
        m = ThroughputMeter()
        m.record(10, 4)
        m.record(13, 4)
        assert m.words == 8
        assert m.words_per_cycle == pytest.approx(8 / 4)

    def test_empty_meter(self):
        assert ThroughputMeter().words_per_cycle == 0.0
