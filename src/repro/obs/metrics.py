"""Metrics core: the fixed-bucket histogram behind timeline latency windows.

Its one hard requirement is hot-loop safety: a simulation processing
millions of records per second must pay *nothing* for instrumentation that
is not attached.  :class:`~repro.sim.system.System` therefore holds an
optional hook that is ``None`` when no observer is attached; the disabled
path is a single ``is None`` check per record, and results stay
bit-identical because the histogram only ever *reads* simulation state.

Histograms use fixed, monotonically increasing bucket upper bounds
(``bisect`` keeps ``observe`` cheap enough to call per record); the last
bucket is an implicit overflow bucket.  Bucket counts snapshot/merge as
plain lists, which is what the interval timeline uses to report per-window
latency distributions.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional, Sequence, Tuple

#: Default memory-stall latency buckets in core cycles.  The low buckets
#: resolve L1/L2/L3 hit stalls, the mid-range in-package DRAM hits, and the
#: top buckets queue-delayed off-package misses; the final bucket is an
#: implicit overflow for pathological contention.
DEFAULT_LATENCY_BOUNDS: Tuple[float, ...] = (
    5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0, 640.0, 1280.0, 2560.0,
)


class Histogram:
    """Fixed-bucket histogram with an implicit overflow bucket.

    ``bounds`` are inclusive upper bounds; an observation lands in the first
    bucket whose bound is >= the value, or in the overflow bucket past the
    last bound.  ``counts`` therefore has ``len(bounds) + 1`` entries.
    """

    __slots__ = ("name", "bounds", "counts", "total", "sum")

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BOUNDS) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"histogram bounds must be strictly increasing, got {bounds}")
        self.name = name
        self.bounds = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation (hot-path: one bisect + two adds)."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += 1
        self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def snapshot(self) -> List[int]:
        """Copy of the bucket counts (overflow last)."""
        return list(self.counts)

    def quantile(self, q: float, counts: Optional[Sequence[int]] = None) -> float:
        """Approximate quantile ``q`` in [0, 1] from bucket counts.

        Returns the upper bound of the bucket holding the q-th observation
        (the conventional fixed-bucket estimate); the overflow bucket
        reports the last finite bound.  ``counts`` defaults to this
        histogram's own counts so per-window deltas can reuse the bounds.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        counts = self.counts if counts is None else list(counts)
        total = sum(counts)
        if total == 0:
            return 0.0
        rank = q * total
        running = 0
        for index, count in enumerate(counts):
            running += count
            if running >= rank and count:
                return self.bounds[min(index, len(self.bounds) - 1)]
        return self.bounds[-1]
