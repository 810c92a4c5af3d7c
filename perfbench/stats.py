"""Exact order statistics and SLO arithmetic over raw samples.

Every percentile here is computed from the raw values by nearest rank:
the ``q``-quantile of ``n`` samples is the smallest sample ``v`` with at
least ``ceil(q * n)`` samples ``<= v``.  No bucketing is involved, so the
result is always one of the recorded values.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence, Tuple

# p99 is the SLO percentile; p999 needs this many samples beyond it.
SLO_QUANTILE = 0.99
MIN_TAIL_SAMPLES = 10


def rank(q: float, n: int) -> int:
    """1-based nearest rank of the ``q``-quantile among ``n`` samples."""
    if n <= 0:
        raise ValueError("no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile {q} outside (0, 1]")
    # The epsilon keeps q * n exact for products like 0.99 * 100.
    return min(n, max(1, math.ceil(q * n - 1e-9)))


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile of already sorted samples."""
    return ordered[rank(q, len(ordered)) - 1]


def tail_quantile(n: int, q: float = 0.999) -> float:
    """``q``, lowered until at least ten samples lie beyond its rank.

    The highest percentile a sample of ``n`` can support: at
    ``n >= 10 010`` this is ``q`` itself.
    """
    if n - rank(q, n) >= MIN_TAIL_SAMPLES:
        return q
    return max(1.0 / n, (n - MIN_TAIL_SAMPLES) / n)


def summarize(latencies_ns: Sequence[float]) -> Dict[str, float]:
    """p50 / p99 / tail (p999 or the highest supported) in µs, with counts."""
    ordered = sorted(latencies_ns)
    n = len(ordered)
    tail_q = tail_quantile(n)
    return {
        "count": n,
        "p50_us": percentile(ordered, 0.5) / 1e3,
        "p99_us": percentile(ordered, 0.99) / 1e3,
        "tail_q": tail_q,
        "tail_us": percentile(ordered, tail_q) / 1e3,
        "tail_beyond": n - rank(tail_q, n),
    }


def slo_misses(
    latencies_ns: Sequence[float], refused: int, slo_ns: float
) -> int:
    """Requests that missed the SLO: late acks plus every refusal."""
    return refused + sum(1 for value in latencies_ns if value > slo_ns)


def meets_slo(offered: int, misses: int) -> bool:
    """Does the exact p99 over all offered requests meet the SLO?

    A refused (or shed) request counts as an infinitely late sample, so
    the p99 of the ``offered`` samples is within the SLO exactly when
    the ``ceil(0.99 * offered)``-th smallest is, i.e. when no more than
    ``offered - ceil(0.99 * offered)`` requests missed it.
    """
    if offered <= 0:
        return False
    return misses <= offered - rank(SLO_QUANTILE, offered)


def max_rate_at_slo(rungs: Sequence[Tuple[float, int, int]]) -> float:
    """Highest offered rate whose p99 meets the SLO, between rungs.

    ``rungs`` are ``(offered_rate, offered, misses)`` in ascending rate
    order.  The highest rung that meets the SLO sets the floor; when
    the next rung fails, the rate is interpolated linearly in the miss
    fraction to where it crosses 1 %, so the value moves smoothly with
    the system rather than jumping a whole rung.  A ladder whose lowest
    rung already fails interpolates from (0 req/s, 0 misses).
    """
    threshold = 1.0 - SLO_QUANTILE
    best = None
    for index, (_, offered, misses) in enumerate(rungs):
        if meets_slo(offered, misses):
            best = index
    if best is not None and best == len(rungs) - 1:
        return rungs[best][0]
    if best is None:
        low_rate, low_frac = 0.0, 0.0
        high_rate, offered, misses = rungs[0]
    else:
        low_rate, offered_low, misses_low = rungs[best]
        low_frac = misses_low / offered_low
        high_rate, offered, misses = rungs[best + 1]
    high_frac = misses / offered
    if high_frac <= low_frac:
        return low_rate
    share = (threshold - low_frac) / (high_frac - low_frac)
    share = min(1.0, max(0.0, share))
    return low_rate + share * (high_rate - low_rate)
