"""Percentile helpers: the median and the reportable tail."""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

#: Percentiles the tail is picked from.
LADDER = (50.0, 75.0, 90.0, 95.0, 97.0, 98.0, 99.0, 99.5, 99.9, 99.95,
          99.99)

#: A tail percentile must have at least this many samples beyond it.
MIN_BEYOND = 10


class Tail(NamedTuple):
    percentile: float
    value: float
    samples: int
    beyond: int


def _rank(p: float, n: int) -> int:
    """Nearest-rank position (1-based) of the p-th percentile of n."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(ordered: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(p, len(ordered)) - 1]


def tail(values: Sequence[float]) -> Optional[Tail]:
    """The highest ladder percentile with MIN_BEYOND samples above its
    rank, or None when even the median has fewer beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for p in LADDER:
        beyond = n - _rank(p, n)
        if beyond < MIN_BEYOND:
            break
        best = Tail(p, ordered[_rank(p, n) - 1], n, beyond)
    return best
