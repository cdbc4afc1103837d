"""Process-wide metrics registry for the simulation pipeline.

The simulators expose *where cycles go* — which mechanism absorbs fetch,
operand or memory traffic in each configuration — through named metrics:

* **counters** — monotonically increasing totals (``l1.hits``,
  ``net.operand_hops``, ``revitalize.broadcasts``);
* **gauges** — last-written values for levels and ratios
  (``runcache.hit_rate``);
* **histograms** — bounded summaries (count/sum/min/max) of repeated
  observations (``alu.node_issue_slots`` across nodes).

Like :data:`~repro.perf.phases.PHASES`, the registry is a process-global,
explicitly-enabled instrument: when :attr:`MetricsRegistry.enabled` is
False (the default) every instrumented code path pays exactly one
attribute test and records nothing, so normal runs are unaffected (the
overhead contract is pinned by ``tests/obs/test_overhead.py``).

Each process collects into its own registry.
:meth:`MetricsRegistry.merge` folds a flat snapshot into it: a run's
memory-traffic summary, or a nested :class:`collecting` scope's
activity when the scope exits.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional


class Histogram:
    """Bounded summary of repeated observations.

    Keeps count/sum/min/max exactly, plus a *bounded deterministic
    sample* for percentile queries: every observation is retained until
    :data:`SAMPLE_CAP`, after which the retained set is halved (every
    other sample dropped) and only every ``stride``-th subsequent
    observation is kept.  The decimation is systematic — no randomness,
    so repeated runs summarize identically — and memory stays O(cap)
    no matter how long the stream.
    """

    __slots__ = ("count", "total", "min", "max", "_samples", "_stride")

    #: Retained-sample bound; percentiles are exact below it.
    SAMPLE_CAP = 4096

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._samples: List[float] = []
        self._stride = 1

    def observe(self, value: float) -> None:
        """Record one sample (count/sum/min/max plus the bounded pool)."""
        if self.count % self._stride == 0:
            self._samples.append(value)
            if len(self._samples) > self.SAMPLE_CAP:
                del self._samples[::2]
                self._stride *= 2
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0–100) of the observed stream.

        Nearest-rank over the retained sample: exact until the stream
        exceeds :data:`SAMPLE_CAP` observations, a deterministic
        systematic approximation beyond (the decimated pool still
        spans the whole stream).  Returns 0.0 before any observation.
        """
        if not self._samples:
            return 0.0
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile out of range: {p}")
        ordered = sorted(self._samples)
        rank = math.ceil(p / 100.0 * len(ordered)) - 1
        return ordered[max(0, min(len(ordered) - 1, rank))]

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "sum": self.total,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Named counters, gauges and histograms behind one enable flag."""

    __slots__ = ("enabled", "counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.enabled = False
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}

    # ---- recording (callers guard with ``if METRICS.enabled:``) ---------

    def inc(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to the counter ``name`` (creating it at 0)."""
        self.counters[name] = self.counters.get(name, 0.0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to its latest ``value``."""
        self.gauges[name] = float(value)

    def gauge_max(self, name: str, value: float) -> None:
        """Raise the gauge ``name`` to ``value`` if it is a new high."""
        if value > self.gauges.get(name, float("-inf")):
            self.gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Record one sample into the histogram ``name``."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    def count_dict(self, prefix: str, values: Dict[str, float]) -> None:
        """Add every ``{suffix: delta}`` into ``{prefix}.{suffix}``."""
        for suffix, delta in values.items():
            self.inc(f"{prefix}.{suffix}", delta)

    # ---- reading ---------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """Flat ``{name: value}`` view (histograms expand to sub-keys).

        Keys come back sorted, so snapshots serialized into
        ``RunResult.detail``, bench reports or ledger rows are
        byte-stable regardless of the order metrics were first touched.
        """
        doc: Dict[str, float] = dict(self.counters)
        doc.update(self.gauges)
        for name, hist in self.histograms.items():
            for stat, value in hist.as_dict().items():
                doc[f"{name}.{stat}"] = value
        return dict(sorted(doc.items()))

    def merge(self, snapshot: Dict[str, float]) -> None:
        """Fold a flat snapshot into this registry.

        Counter-like keys add; keys that exist here as gauges take the
        max (utilization/high-water readings should not be summed).
        """
        for name, value in snapshot.items():
            if name in self.gauges:
                self.gauge_max(name, value)
            else:
                self.inc(name, value)

    def reset(self) -> None:
        self.counters = {}
        self.gauges = {}
        self.histograms = {}


#: The process-wide registry the simulators report into.
METRICS = MetricsRegistry()


class collecting:
    """Context manager enabling METRICS around a block.

    >>> with collecting() as metrics:
    ...     run_experiments()
    >>> metrics.snapshot()

    ``reset=True`` (the default) starts the scope from empty counters;
    when the registry is *already* enabled by an outer scope, the outer
    accumulation is saved on entry and restored — with this scope's
    activity folded in — on exit, so nesting never loses data (the same
    contract as :class:`repro.perf.phases.measuring`).
    """

    def __init__(self, reset: bool = True):
        self._reset = reset
        self._was_enabled = False
        self._saved: Optional[tuple] = None

    def __enter__(self) -> MetricsRegistry:
        self._was_enabled = METRICS.enabled
        if self._reset:
            if self._was_enabled:
                self._saved = (
                    METRICS.counters, METRICS.gauges, METRICS.histograms
                )
            METRICS.reset()
        METRICS.enabled = True
        return METRICS

    def __exit__(self, *exc) -> None:
        METRICS.enabled = self._was_enabled
        if self._saved is not None:
            inner = METRICS.snapshot()
            METRICS.counters, METRICS.gauges, METRICS.histograms = self._saved
            self._saved = None
            METRICS.merge(inner)


__all__ = ["METRICS", "MetricsRegistry", "Histogram", "collecting"]
