"""Replacement policies for set-associative structures.

The policies operate on way indices within one set and are shared by the
SRAM caches, the TLBs and (for LRU) the Unison DRAM-cache baseline.  Each
policy keeps its own per-set ordering state, indexed by set number, so a
single policy object serves a whole cache.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional

from repro.util.rng import DeterministicRng


class ReplacementPolicy(ABC):
    """Interface for per-set replacement policies."""

    def __init__(self, num_sets: int, num_ways: int) -> None:
        if num_sets <= 0 or num_ways <= 0:
            raise ValueError("num_sets and num_ways must be positive")
        self.num_sets = num_sets
        self.num_ways = num_ways

    @abstractmethod
    def on_access(self, set_index: int, way: int) -> None:
        """Record a hit on ``way`` of ``set_index``."""

    @abstractmethod
    def on_fill(self, set_index: int, way: int) -> None:
        """Record a fill into ``way`` of ``set_index``."""

    @abstractmethod
    def victim(self, set_index: int, valid_ways: List[bool]) -> int:
        """Choose a way to evict from ``set_index``.

        ``valid_ways[way]`` is True when the way currently holds data; invalid
        ways are always preferred as victims.
        """

    def _first_invalid(self, valid_ways: List[bool]) -> Optional[int]:
        for way, valid in enumerate(valid_ways):
            if not valid:
                return way
        return None


class LruPolicy(ReplacementPolicy):
    """Least-recently-used replacement."""

    def __init__(self, num_sets: int, num_ways: int) -> None:
        super().__init__(num_sets, num_ways)
        # recency[s] lists ways from most- to least-recently used.
        self._recency: List[List[int]] = [list(range(num_ways)) for _ in range(num_sets)]

    def on_access(self, set_index: int, way: int) -> None:
        order = self._recency[set_index]
        order.remove(way)
        order.insert(0, way)

    def on_fill(self, set_index: int, way: int) -> None:
        self.on_access(set_index, way)

    def victim(self, set_index: int, valid_ways: List[bool]) -> int:
        invalid = self._first_invalid(valid_ways)
        if invalid is not None:
            return invalid
        return self._recency[set_index][-1]


class FifoPolicy(ReplacementPolicy):
    """First-in-first-out replacement (used by the TDC baseline)."""

    def __init__(self, num_sets: int, num_ways: int) -> None:
        super().__init__(num_sets, num_ways)
        self._insert_order: List[List[int]] = [[] for _ in range(num_sets)]

    def on_access(self, set_index: int, way: int) -> None:
        # FIFO ignores hits.
        return None

    def on_fill(self, set_index: int, way: int) -> None:
        order = self._insert_order[set_index]
        if way in order:
            order.remove(way)
        order.append(way)

    def victim(self, set_index: int, valid_ways: List[bool]) -> int:
        invalid = self._first_invalid(valid_ways)
        if invalid is not None:
            return invalid
        order = self._insert_order[set_index]
        if not order:
            return 0
        return order[0]


class RandomPolicy(ReplacementPolicy):
    """Random replacement."""

    def __init__(self, num_sets: int, num_ways: int, rng: Optional[DeterministicRng] = None) -> None:
        super().__init__(num_sets, num_ways)
        self._rng = rng if rng is not None else DeterministicRng(0)

    def on_access(self, set_index: int, way: int) -> None:
        return None

    def on_fill(self, set_index: int, way: int) -> None:
        return None

    def victim(self, set_index: int, valid_ways: List[bool]) -> int:
        invalid = self._first_invalid(valid_ways)
        if invalid is not None:
            return invalid
        return self._rng.randint(0, self.num_ways)


def make_policy(
    name: str,
    num_sets: int,
    num_ways: int,
    rng: Optional[DeterministicRng] = None,
) -> ReplacementPolicy:
    """Instantiate a replacement policy by name ("lru", "fifo", "random")."""
    if name == "lru":
        return LruPolicy(num_sets, num_ways)
    if name == "fifo":
        return FifoPolicy(num_sets, num_ways)
    if name == "random":
        return RandomPolicy(num_sets, num_ways, rng=rng)
    raise ValueError(f"unknown replacement policy {name!r}")
