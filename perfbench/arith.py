"""The benchmark's own arithmetic: percentiles, medians, interval unions.

Kept free of any ``repro`` import so the self-tests (``test_arith.py``) run
without the library.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, List, Optional, Sequence, Tuple

#: The percentile rule keeps at least this many samples beyond the reported
#: percentile, so one outlier cannot set a tail figure.
TAIL_SAMPLES = 10


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def tail_percentile(
    samples: Sequence[float], want: int = 90
) -> Optional[Tuple[int, float, int]]:
    """The highest integer percentile ``p <= want`` with >= 10 samples beyond it.

    Nearest-rank definition: the ``p``-th percentile of ``n`` sorted samples
    is the ``ceil(p * n / 100)``-th smallest, and ``n - rank`` samples lie
    beyond it.  Returns ``(p, value, n)`` so a report can state which
    percentile it shows and over how many samples, or ``None`` when fewer
    than 11 samples leave no percentile with ten beyond it.
    """
    n = len(samples)
    ordered = sorted(samples)
    for p in range(int(want), 0, -1):
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= TAIL_SAMPLES:
            return p, float(ordered[rank - 1]), n
    return None


def union_length(
    intervals: Iterable[Tuple[float, float]],
    lo: float = -math.inf,
    hi: float = math.inf,
) -> float:
    """Total length covered by ``intervals`` clipped to ``[lo, hi]``.

    Overlapping intervals count once, so two concurrent child spans never
    add up to more than the wall time they share.
    """
    clipped: List[Tuple[float, float]] = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(
    start: float, end: float, children: Iterable[Tuple[float, float]]
) -> float:
    """A span's duration minus the union of its children's intervals."""
    return (end - start) - union_length(children, start, end)
