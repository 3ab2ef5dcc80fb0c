"""Order statistics the benchmark reports."""

from __future__ import annotations

import statistics
from typing import Sequence


def percentile(values: Sequence[float], pct: int) -> float:
    """Nearest-rank percentile: the smallest sample that at least ``pct``
    percent of the samples are less than or equal to.

    ``pct`` is an integer in ``(0, 100]`` so the rank ``ceil(pct·n/100)``
    is computed in exact integer arithmetic.
    """
    if not values:
        raise ValueError("percentile of an empty sample set")
    if isinstance(pct, bool) or not isinstance(pct, int) or not 0 < pct <= 100:
        raise ValueError(f"pct must be an integer in (0, 100], got {pct!r}")
    ordered = sorted(values)
    rank = -(-pct * len(ordered) // 100)
    return ordered[rank - 1]


def summary(values: Sequence[float]) -> dict:
    """Median, quartiles and relative spread of repeated measurements.

    Quartiles are ``statistics.quantiles(values, n=4)``; ``spread`` is the
    interquartile distance as a share of the median.
    """
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {
        "n": len(values),
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
    }
