"""Order statistics shared by the benchmark runner and the A/B comparison."""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple

#: A tail percentile is reported only with at least this many samples
#: beyond it; fewer and the "tail" is a handful of outliers.
TAIL_SAMPLES = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(n: int) -> int:
    """The highest whole percentile with ``TAIL_SAMPLES`` samples beyond it.

    ``n`` samples leave ``n * (100 - p) / 100`` above the p-th
    percentile; the answer is the largest ``p`` keeping that at least
    :data:`TAIL_SAMPLES`.  Returns 50 (the median) when even that has
    too few samples beyond it.
    """
    if n <= 0:
        raise ValueError("tail percentile of no samples")
    best = math.floor(100.0 * (1.0 - TAIL_SAMPLES / n) + 1e-9)
    return max(50, min(99, best))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        value = values[0]
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0
