"""Percentiles of latency samples."""

from __future__ import annotations


def percentile(values: list[float], p: float) -> float:
    """The *p*-th percentile (0..100), interpolating linearly between ranks.

    Matches ``numpy.percentile``'s default: rank ``p/100 * (n - 1)`` of
    the sorted samples.  Raises ValueError on an empty list or a *p*
    outside 0..100.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile {p} outside 0..100")
    ordered = sorted(values)
    rank = p / 100 * (len(ordered) - 1)
    low = int(rank)
    if low == len(ordered) - 1:
        return ordered[low]
    return ordered[low] + (ordered[low + 1] - ordered[low]) * (rank - low)


def median(values: list[float]) -> float:
    return percentile(values, 50)

