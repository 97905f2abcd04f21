"""Summary statistics of the benchmark: tail percentiles and span self time."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Hashable, Iterable, Optional, Sequence, Tuple

#: A reported tail percentile must have at least this many samples beyond it.
MIN_BEYOND = 10


def tail_percentile(
    values: Sequence[float], percentile: float = 99.0, min_beyond: int = MIN_BEYOND
) -> Tuple[float, float]:
    """``(value, percentile_used)``: the nearest-rank *percentile* of
    *values*, lowered until at least *min_beyond* samples lie beyond it.

    With ``n`` samples the highest supported rank is ``n - 1 - min_beyond``
    (0-based, ascending), so ``n <= min_beyond`` supports no tail at all and
    raises :class:`ValueError`.
    """
    n = len(values)
    if n <= min_beyond:
        raise ValueError(f"{n} samples leave none with {min_beyond} beyond it")
    ordered = sorted(values)
    rank = max(0, math.ceil(percentile / 100.0 * n) - 1)
    rank = min(rank, n - 1 - min_beyond)
    return ordered[rank], 100.0 * (rank + 1) / n


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def self_times(
    spans: Sequence[Tuple[Hashable, Optional[Hashable], float, float]]
) -> Dict[Hashable, float]:
    """Self time of each ``(span_id, parent_id, start, end)`` span: its
    duration minus its children's durations (spans nest per thread, so a
    span's children run one after another inside it)."""
    selfs = {sid: end - start for sid, _, start, end in spans}
    for _, parent, start, end in spans:
        if parent in selfs:
            selfs[parent] -= end - start
    return selfs
