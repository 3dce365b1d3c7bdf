"""Order statistics for the benchmark's reported timings."""

from __future__ import annotations

import math
from typing import Sequence

#: a tail percentile is reported only when at least this many samples
#: lie beyond it; fewer leave it resting on one or two outliers
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``samples``."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q!r}")
    xs = sorted(samples)
    rank = max(1, math.ceil(q / 100 * len(xs)))
    return xs[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank ``q``."""
    return n - max(1, math.ceil(q / 100 * n))


def tail_percentile(samples: Sequence[float], q: float) -> tuple[float, float]:
    """The ``q``-th percentile if :data:`MIN_BEYOND` samples lie beyond it.

    Otherwise the highest percentile that has that many beyond it, or
    the maximum when no percentile has (``len(samples) <= MIN_BEYOND``).
    Returns ``(value, percentile used)``.
    """
    n = len(samples)
    if samples_beyond(n, q) >= MIN_BEYOND:
        return percentile(samples, q), q
    if n <= MIN_BEYOND:
        return max(samples), 100.0
    rank = n - MIN_BEYOND
    used = 100.0 * rank / n
    return sorted(samples)[rank - 1], used


def median(samples: Sequence[float]) -> float:
    """Nearest-rank median, so the value is one that was measured."""
    return percentile(samples, 50)
