"""Order statistics of the benchmark: percentiles, quartile spreads, digests."""

from __future__ import annotations

import hashlib
import math
import statistics
from typing import Sequence


def percentile_sorted(xs: Sequence[float], q: float) -> float:
    """q-th percentile (0 <= q <= 100) of ascending values.

    Linear interpolation between the two nearest order statistics, which is
    numpy.percentile's default method.
    """
    if len(xs) == 0:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return float(xs[lo] + (xs[hi] - xs[lo]) * (pos - lo))


#: Percentile of a run's pass times that the run reports.  Other tenants of a
#: shared host slow whole stretches of seconds by up to 2x, in CPU time as much
#: as in wall time; the fastest 2% of many short passes follows the code
#: rather than the neighbours.
FAST_PERCENTILE = 2


def fast(values: Sequence[float]) -> float:
    """The FAST_PERCENTILE-th percentile of per-pass times."""
    return percentile(values, FAST_PERCENTILE)


def percentile(values: Sequence[float], q: float) -> float:
    """q-th percentile of values in any order (see percentile_sorted)."""
    return percentile_sorted(sorted(values), q)


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median.

    Quartiles are those of statistics.quantiles(values, n=4), the rule the
    stability check of the benchmark is judged by.
    """
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def sha256_hex(*chunks: bytes) -> str:
    """Hex sha256 of the concatenated chunks."""
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()
