"""Metrics registry: counters/gauges/histograms, snapshots, merging,
and the ``collecting`` scope (including safe nesting)."""

import pytest

from repro.obs import METRICS, Histogram, MetricsRegistry, collecting


class TestHistogram:
    def test_empty_histogram(self):
        hist = Histogram()
        assert hist.count == 0
        assert hist.mean == 0.0
        assert hist.as_dict() == {
            "count": 0.0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
        }

    def test_observations_accumulate(self):
        hist = Histogram()
        for value in (3.0, 1.0, 2.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == 6.0
        assert hist.min == 1.0
        assert hist.max == 3.0
        assert hist.mean == 2.0


class TestPercentiles:
    def test_exact_below_sample_cap(self):
        hist = Histogram()
        for value in range(1, 101):  # 1..100
            hist.observe(float(value))
        assert hist.percentile(50) == 50.0
        assert hist.percentile(90) == 90.0
        assert hist.percentile(99) == 99.0
        assert hist.percentile(0) == 1.0
        assert hist.percentile(100) == 100.0

    def test_empty_histogram_reports_zero(self):
        assert Histogram().percentile(99) == 0.0

    def test_out_of_range_rejected(self):
        hist = Histogram()
        hist.observe(1.0)
        with pytest.raises(ValueError):
            hist.percentile(101)
        with pytest.raises(ValueError):
            hist.percentile(-1)

    def test_bounded_sample_stays_under_cap(self):
        hist = Histogram()
        for value in range(Histogram.SAMPLE_CAP * 4):
            hist.observe(float(value))
        assert len(hist._samples) <= Histogram.SAMPLE_CAP
        assert hist.count == Histogram.SAMPLE_CAP * 4

    def test_decimated_percentiles_stay_close(self):
        """Past the cap the systematic sample still spans the stream:
        percentiles land within ~1% of the exact answer on a uniform
        ramp (deterministically — repeated runs agree exactly)."""
        n = Histogram.SAMPLE_CAP * 8
        hist, twin = Histogram(), Histogram()
        for value in range(n):
            hist.observe(float(value))
            twin.observe(float(value))
        for p in (50, 90, 99):
            exact = p / 100 * (n - 1)
            assert abs(hist.percentile(p) - exact) <= n * 0.01
            assert hist.percentile(p) == twin.percentile(p)


class TestSnapshotOrdering:
    def test_snapshot_keys_sorted_regardless_of_touch_order(self):
        reg = MetricsRegistry()
        reg.inc("z.last")
        reg.gauge("a.first", 1.0)
        reg.observe("m.middle", 2.0)
        assert list(reg.snapshot()) == sorted(reg.snapshot())


class TestRegistry:
    def test_counters_add(self):
        reg = MetricsRegistry()
        reg.inc("l1.hits")
        reg.inc("l1.hits", 4)
        assert reg.snapshot() == {"l1.hits": 5.0}

    def test_gauge_overwrites_and_gauge_max_keeps_high_water(self):
        reg = MetricsRegistry()
        reg.gauge("runcache.hit_rate", 0.5)
        reg.gauge("runcache.hit_rate", 0.25)
        reg.gauge_max("storebuffer.peak_depth", 3)
        reg.gauge_max("storebuffer.peak_depth", 2)
        snap = reg.snapshot()
        assert snap["runcache.hit_rate"] == 0.25
        assert snap["storebuffer.peak_depth"] == 3.0

    def test_histograms_expand_in_snapshot(self):
        reg = MetricsRegistry()
        reg.observe("alu.node_issue_slots", 2.0)
        reg.observe("alu.node_issue_slots", 4.0)
        snap = reg.snapshot()
        assert snap["alu.node_issue_slots.count"] == 2.0
        assert snap["alu.node_issue_slots.mean"] == 3.0

    def test_count_dict_prefixes(self):
        reg = MetricsRegistry()
        reg.count_dict("l1", {"hits": 3, "misses": 1})
        assert reg.snapshot() == {"l1.hits": 3.0, "l1.misses": 1.0}

    def test_merge_adds_counters_and_maxes_gauges(self):
        """Worker snapshots fold in: totals add, levels take the max."""
        reg = MetricsRegistry()
        reg.inc("l1.hits", 10)
        reg.gauge("runcache.hit_rate", 0.5)
        reg.merge({"l1.hits": 5.0, "runcache.hit_rate": 0.8,
                   "net.operand_hops": 7.0})
        snap = reg.snapshot()
        assert snap["l1.hits"] == 15.0
        assert snap["runcache.hit_rate"] == 0.8
        assert snap["net.operand_hops"] == 7.0

    def test_reset_clears_everything(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.gauge("b", 1.0)
        reg.observe("c", 2.0)
        reg.reset()
        assert reg.snapshot() == {}


class TestCollectingScope:
    def test_disabled_by_default(self):
        assert METRICS.enabled is False

    def test_scope_enables_resets_and_restores(self):
        METRICS.inc("stale", 99)  # pre-existing garbage
        with collecting() as reg:
            assert reg is METRICS
            assert METRICS.enabled is True
            assert reg.snapshot() == {}
            reg.inc("l1.hits")
        assert METRICS.enabled is False
        assert METRICS.snapshot() == {"l1.hits": 1.0}
        METRICS.reset()

    def test_nested_scope_preserves_outer_accumulation(self):
        """Regression: an inner collecting() reset must not clobber the
        outer scope's counters — they are saved and re-merged on exit."""
        with collecting() as outer:
            outer.inc("l1.hits", 10)
            with collecting() as inner:
                assert inner.snapshot() == {}  # inner measures from zero
                inner.inc("l1.hits", 3)
                inner.inc("l1.misses", 1)
            # Outer view resumes with the inner activity folded in.
            snap = outer.snapshot()
            assert snap["l1.hits"] == 13.0
            assert snap["l1.misses"] == 1.0
            assert METRICS.enabled is True
        assert METRICS.enabled is False
        METRICS.reset()

    def test_exception_still_restores(self):
        try:
            with collecting():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert METRICS.enabled is False
        METRICS.reset()
