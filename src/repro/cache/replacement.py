"""Way-index replacement policies for set-associative DRAM-cache stores.

:class:`LruPolicy` serves Banshee's LRU ablation (``banshee_policy="lru"``,
Figure 7) and Unison's page store; :class:`ReplacementPolicy` is the
interface :class:`~repro.dramcache.components.stores.SetAssociativePageStore`
takes.  (The SRAM caches and the TLBs choose their victims themselves.)
A policy keeps its own per-set ordering state, indexed by set number, so a
single policy object serves a whole cache.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional


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
