"""Order statistics and span arithmetic used by the benchmark (stdlib only)."""
from __future__ import annotations

import math
import statistics


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it.  With n samples, n - ceil(q n / 100) lie beyond it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile rank must lie in (0, 100], got {q}")
    xs = sorted(values)
    return xs[max(1, math.ceil(q * len(xs) / 100)) - 1]


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as statistics.quantiles(n=4)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def union_length(intervals) -> float:
    """Total length covered by a set of closed intervals (start, end)."""
    total = 0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Self time of each span: its duration minus the part of its interval
    that its direct children cover.

    `spans` is a sequence of (start, end, parent) with parent the index of the
    enclosing span or -1.  Children are clipped to their parent's interval, and
    overlapping children are counted once.
    """
    children: dict[int, list] = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for k, (start, end, _) in enumerate(spans):
        kids = [
            (max(lo, start), min(hi, end))
            for lo, hi in children.get(k, ())
            if hi > start and lo < end
        ]
        out.append((end - start) - union_length(kids))
    return out
