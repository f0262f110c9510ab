"""Order statistics shared by the runner and the compare command."""

from __future__ import annotations

import math
import statistics


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median, third quartile (``statistics.quantiles``, n=4)."""
    values = list(values)
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def tail_percentile(values) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it.

    Defined only from 100 samples on; returns ``(percentile, value)``.
    """
    values = sorted(values)
    if len(values) < 100:
        return None
    pct = math.floor(100.0 * (1.0 - 10.0 / len(values)))
    return pct, float(statistics.quantiles(values, n=100)[pct - 1])
