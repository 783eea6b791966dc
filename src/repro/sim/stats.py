"""Statistics collection.

Three kinds of statistics are used throughout the simulator:

* :class:`StatsSet` — a named bag of integer counters (cache hits, misses,
  TLB events, replacement counts, ...).
* :class:`TrafficStats` — bytes moved on a DRAM device, broken down by
  :class:`TrafficCategory`.  Figures 5, 6 and 9 of the paper are produced
  directly from these counters.
* :class:`MissRateWindow` — a sliding-window estimate of the recent DRAM
  cache miss rate, used by Banshee's adaptive sampling (Section 4.2.1).
"""

from __future__ import annotations

from collections import defaultdict
from enum import Enum
from typing import Dict, Iterable


class TrafficCategory(Enum):
    """Categories of DRAM traffic, matching the stacks of Figure 5 / Figure 9."""

    HIT_DATA = "HitData"
    MISS_DATA = "MissData"
    TAG = "Tag"
    COUNTER = "Counter"
    REPLACEMENT = "Replacement"
    WRITEBACK = "Writeback"

    # Every DRAM access bumps a counter keyed by one of these members, and
    # Enum's own ``__hash__`` is a Python-level call that hashes the name.
    # Members are singletons compared by identity, so the identity hash in C
    # is equivalent: dicts keep insertion order and members pickle by value,
    # so breakdowns, results and snapshots do not change.
    __hash__ = object.__hash__

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class StatsSet:
    """A named collection of integer counters with a defaultdict interface."""

    def __init__(self, name: str = "stats") -> None:
        self.name = name
        #: The counters themselves.  Schemes bump per-access counters here
        #: directly (``counters[key] += 1``) instead of through :meth:`inc`.
        self.counters: Dict[str, float] = defaultdict(float)

    def inc(self, key: str, amount: float = 1) -> None:
        """Increment counter ``key`` by ``amount``."""
        self.counters[key] += amount

    def get(self, key: str) -> float:
        """Read counter ``key`` (0 if never incremented)."""
        return self.counters.get(key, 0)

    def set(self, key: str, value: float) -> None:
        """Set counter ``key`` to ``value``."""
        self.counters[key] = value

    def keys(self) -> Iterable[str]:
        """All counter names recorded so far."""
        return self.counters.keys()

    def as_dict(self) -> Dict[str, float]:
        """Snapshot of all counters."""
        return dict(self.counters)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"StatsSet({self.name!r}, {dict(self.counters)!r})"


class TrafficStats:
    """Bytes moved on one DRAM device, by traffic category.

    ``DramDevice.access_latency`` validates its byte count itself and then
    bumps ``_bytes`` inline; :meth:`record` is the checked entry for every
    other caller.
    """

    def __init__(self, device_name: str) -> None:
        self.device_name = device_name
        self._bytes: Dict[TrafficCategory, int] = {category: 0 for category in TrafficCategory}

    def record(self, category: TrafficCategory, num_bytes: int) -> None:
        """Record ``num_bytes`` of traffic in ``category``."""
        if num_bytes < 0:
            raise ValueError(f"traffic bytes must be non-negative, got {num_bytes}")
        self._bytes[category] += num_bytes

    def bytes_for(self, category: TrafficCategory) -> int:
        """Total bytes recorded in ``category``."""
        return self._bytes[category]

    @property
    def total_bytes(self) -> int:
        """Total bytes across all categories."""
        return sum(self._bytes.values())

    def breakdown(self) -> Dict[str, int]:
        """Per-category byte totals keyed by the paper's category labels."""
        return {category.value: count for category, count in self._bytes.items()}

    def bytes_per_instruction(self, instructions: int) -> Dict[str, float]:
        """Per-category bytes normalised by instruction count (Figure 5 / 6 units)."""
        if instructions <= 0:
            return {category.value: 0.0 for category in TrafficCategory}
        return {category.value: count / instructions for category, count in self._bytes.items()}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TrafficStats({self.device_name!r}, total={self.total_bytes})"


class MissRateWindow:
    """Sliding-window DRAM cache miss-rate estimator.

    Banshee's sample rate is ``recent_miss_rate * sampling_coefficient``
    (Algorithm 1, line 3).  The window keeps the estimator responsive to
    phase changes while being cheap to maintain.
    """

    def __init__(self, window: int = 4096, initial_rate: float = 1.0) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        # ``AdaptiveSampler.should_update`` evaluates :attr:`rate`'s formula
        # from these three fields in its own frame; change both together.
        self._hits = 0
        self._misses = 0
        self._rate = float(initial_rate)

    def record(self, hit: bool) -> None:
        """Record the outcome of one DRAM cache access."""
        if hit:
            self._hits += 1
        else:
            self._misses += 1
        if self._hits + self._misses >= self.window:
            self._rate = self._misses / (self._hits + self._misses)
            self._hits = 0
            self._misses = 0

    @property
    def rate(self) -> float:
        """Current miss-rate estimate in [0, 1]."""
        total = self._hits + self._misses
        if total >= self.window // 4:
            # Blend the running window with the last complete window so that
            # the estimate tracks the current phase reasonably quickly.
            current = self._misses / total
            return 0.5 * (self._rate + current)
        return self._rate

