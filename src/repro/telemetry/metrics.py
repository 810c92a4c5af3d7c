"""Streaming metric primitives: log2 histograms and epoch time-series.

Both are O(1) per sample and strictly bounded in memory, so they can sit
on simulation hot paths for arbitrarily long runs.  The histogram tracks
latency distributions (p50/p95/p99/max) without retaining samples; the
epoch series tracks throughput-style rates per simulated-time epoch and
halves its own resolution when a run outgrows the epoch budget.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

# 2^63 ns is ~292 years of simulated time; 64 buckets cover everything.
_NUM_BUCKETS = 64


class Log2Histogram:
    """Fixed-bucket power-of-two latency histogram.

    Bucket 0 holds values in ``[0, 1]``; bucket ``i`` (i >= 1) holds
    values in ``(2^(i-1), 2^i]``.  Percentiles are resolved to the
    containing bucket: :meth:`percentile` returns the bucket's upper
    bound, so the true (brute-force) percentile of the recorded samples
    always lies inside :meth:`percentile_bounds`.
    """

    __slots__ = ("buckets", "count", "total", "max_value", "min_value")

    def __init__(self) -> None:
        self.buckets = [0] * _NUM_BUCKETS
        self.count = 0
        self.total = 0.0
        self.max_value = 0.0
        self.min_value = float("inf")

    @staticmethod
    def bucket_index(value: float) -> int:
        if value <= 1.0:
            return 0
        # int(ceil(log2(value))) without float-log wobble: bit_length of
        # the integer strictly below the value.
        iv = int(value)
        if iv == value:
            iv -= 1
        index = iv.bit_length()
        return index if index < _NUM_BUCKETS else _NUM_BUCKETS - 1

    @staticmethod
    def bucket_bounds(index: int) -> Tuple[float, float]:
        """``(exclusive lower, inclusive upper)`` of one bucket."""
        if index == 0:
            return (0.0, 1.0)
        return (float(2 ** (index - 1)), float(2 ** index))

    def record(self, value: float) -> None:
        """Count one sample (negatives clamp to 0) in its bucket."""
        if value < 0:
            value = 0.0
        self.buckets[self.bucket_index(value)] += 1
        self.count += 1
        self.total += value
        if value > self.max_value:
            self.max_value = value
        if value < self.min_value:
            self.min_value = value

    # -- percentiles ----------------------------------------------------------

    def _percentile_bucket(self, fraction: float) -> int:
        """Bucket containing the nearest-rank percentile sample."""
        if self.count == 0:
            return 0
        rank = max(1, -(-int(fraction * self.count * 1_000_000) // 1_000_000))
        # nearest-rank: ceil(fraction * count), computed without floats
        # drifting just below an integer boundary.
        rank = min(rank, self.count)
        cumulative = 0
        for index, n in enumerate(self.buckets):
            cumulative += n
            if cumulative >= rank:
                return index
        return _NUM_BUCKETS - 1

    def percentile(self, fraction: float) -> float:
        """Upper bound of the bucket holding the percentile (0 if empty)."""
        if self.count == 0:
            return 0.0
        return self.bucket_bounds(self._percentile_bucket(fraction))[1]

    def percentile_bounds(self, fraction: float) -> Tuple[float, float]:
        if self.count == 0:
            return (0.0, 0.0)
        return self.bucket_bounds(self._percentile_bucket(fraction))

    def merge(self, other: "Log2Histogram") -> None:
        """Fold another histogram's samples into this one.

        Bucket counts, count, and total add; min/max combine.  Merging
        is associative over bucket counts and extrema, so any merge
        order yields the same percentiles — and merging single-writer
        histograms in a fixed (shard) order also makes the float
        ``total``/``mean`` deterministic, which is what keeps the serve
        report's latency digest byte-identical from run to run.
        """
        buckets = self.buckets
        for index, n in enumerate(other.buckets):
            buckets[index] += n
        self.count += other.count
        self.total += other.total
        if other.max_value > self.max_value:
            self.max_value = other.max_value
        if other.min_value < self.min_value:
            self.min_value = other.min_value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
            "max": self.max_value,
            "min": self.min_value if self.count else 0.0,
        }


class EpochSeries:
    """Bounded per-epoch accumulator over simulated time.

    ``add(ts_ns, value)`` folds ``value`` into the epoch containing
    ``ts_ns``.  When a timestamp lands beyond ``max_epochs`` the series
    coalesces adjacent epochs (doubling ``epoch_ns``), so memory stays
    bounded while the full time span remains covered — at coarser
    resolution, never by dropping data.
    """

    __slots__ = ("epoch_ns", "max_epochs", "values")

    def __init__(self, epoch_ns: float = 1e6, max_epochs: int = 2048) -> None:
        if epoch_ns <= 0 or max_epochs < 2:
            raise ValueError("epoch_ns must be positive, max_epochs >= 2")
        self.epoch_ns = float(epoch_ns)
        self.max_epochs = max_epochs
        self.values: List[float] = []

    def add(self, ts_ns: float, value: float = 1.0) -> None:
        """Fold ``value`` into the epoch holding ``ts_ns``."""
        index = int(ts_ns // self.epoch_ns) if ts_ns > 0 else 0
        while index >= self.max_epochs:
            self._coalesce()
            index = int(ts_ns // self.epoch_ns) if ts_ns > 0 else 0
        if index >= len(self.values):
            self.values.extend([0.0] * (index + 1 - len(self.values)))
        self.values[index] += value

    def _coalesce(self) -> None:
        self.epoch_ns *= 2.0
        merged = []
        for i in range(0, len(self.values), 2):
            pair = self.values[i : i + 2]
            merged.append(sum(pair))
        self.values = merged

    @property
    def total(self) -> float:
        return sum(self.values)

    def summary(self) -> Dict[str, object]:
        return {
            "epoch_ns": self.epoch_ns,
            "epochs": len(self.values),
            "total": self.total,
            "values": list(self.values),
        }
