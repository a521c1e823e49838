"""Order statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10


def percentile(samples, q: float) -> float:
    """Nearest-rank q-th percentile, refused unless >= 10 samples lie above it.

    A tail percentile read from fewer samples than that is one or two
    outliers, not a property of the run; p95 therefore needs 200 samples.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("percentile of no samples")
    rank = max(math.ceil(q * n / 100.0), 1)
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise ValueError(f"p{q:g} of {n} samples has {beyond} beyond it; "
                         f"needs at least {MIN_BEYOND}")
    return ordered[rank - 1]


def min_samples(q: float) -> int:
    """Fewest samples for which ``percentile(samples, q)`` is defined."""
    n = MIN_BEYOND
    while n - max(math.ceil(q * n / 100.0), 1) < MIN_BEYOND:
        n += 1
    return n


def quartile_spread(values) -> float:
    """Interquartile distance over the median (``statistics.quantiles``, n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2)
