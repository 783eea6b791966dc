"""A set-associative SRAM cache model.

The model is purely functional (hit/miss + evictions); timing is handled by
the hierarchy and the core model.  Lines are identified by their line-aligned
address, and dirty state is tracked so that dirty LLC evictions can be routed
to the memory controllers (which matters a great deal for the DRAM-cache
schemes: Banshee's tag-probe path and Alloy's BEAR writeback probe both exist
to serve exactly these requests).

Each set is an :class:`collections.OrderedDict` mapping line tag -> dirty
bit.  For the LRU policy the dict order is recency order (MRU at the end);
for FIFO it is insertion order; for random the victim is drawn from the
keys.  This representation keeps the per-access cost low, which matters
because three caches are consulted for every trace record.

The per-record hot path does not call :meth:`SramCache.access` or
:meth:`SramCache.fill`: :meth:`repro.cache.hierarchy.CacheHierarchy.access_reused`
walks all three levels' sets in one frame.  ``access``/``fill`` are the
per-level reference that walk must match (the hierarchy tests replay both
side by side), and the API for every other caller.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional

from repro.sim.config import CacheLevelConfig
from repro.util.bits import log2_exact
from repro.util.rng import DeterministicRng


@dataclass
class Eviction:
    """A line evicted from a cache."""

    __slots__ = ("addr", "dirty")

    addr: int
    dirty: bool


@dataclass
class CacheAccessResult:
    """Outcome of one cache access."""

    __slots__ = ("hit", "eviction")

    hit: bool
    eviction: Optional[Eviction]


class SramCache:
    """Set-associative write-back, write-allocate SRAM cache."""

    def __init__(self, name: str, config: CacheLevelConfig, rng: Optional[DeterministicRng] = None) -> None:
        self.name = name
        self.config = config
        self.num_sets = config.num_sets
        self.num_ways = config.ways
        self.line_size = config.line_size
        self.policy = config.replacement
        self._line_bits = log2_exact(config.line_size)
        self._set_mask = self.num_sets - 1
        self._sets: List["OrderedDict[int, bool]"] = [OrderedDict() for _ in range(self.num_sets)]
        self._rng = rng if rng is not None else DeterministicRng(0)
        # Policy flags hoisted out of the per-access path (string comparisons
        # in ``access``/``fill`` and the hierarchy walk show up in profiles at
        # trace scale).
        self._lru = self.policy == "lru"
        self._random = self.policy == "random"

        self.hits = 0
        self.misses = 0
        self.dirty_evictions = 0

    # ------------------------------------------------------------------ address math

    def line_addr(self, addr: int) -> int:
        """Line-aligned address containing ``addr``."""
        return addr >> self._line_bits << self._line_bits

    # ------------------------------------------------------------------ operations

    def lookup(self, addr: int) -> bool:
        """Check for presence without updating replacement state."""
        line = addr >> self._line_bits
        return line in self._sets[line & self._set_mask]

    def access(self, addr: int, is_write: bool) -> CacheAccessResult:
        """Access ``addr``; allocate on miss; return hit status and any eviction."""
        line = addr >> self._line_bits
        bucket = self._sets[line & self._set_mask]
        if line in bucket:
            self.hits += 1
            if is_write:
                bucket[line] = True
            if self._lru:
                bucket.move_to_end(line)
            return CacheAccessResult(hit=True, eviction=None)
        self.misses += 1
        return CacheAccessResult(hit=False, eviction=self._insert(bucket, line, is_write))

    def fill(self, addr: int, dirty: bool = False) -> Optional[Eviction]:
        """Insert ``addr`` without counting a demand access (e.g. writeback fill)."""
        line = addr >> self._line_bits
        bucket = self._sets[line & self._set_mask]
        if line in bucket:
            if dirty:
                bucket[line] = True
            if self._lru:
                bucket.move_to_end(line)
            return None
        return self._insert(bucket, line, dirty)

    def _insert(self, bucket: "OrderedDict[int, bool]", line: int, dirty: bool) -> Optional[Eviction]:
        """Allocate ``line`` in ``bucket``, evicting a victim when the set is full."""
        eviction: Optional[Eviction] = None
        if len(bucket) >= self.num_ways:
            if self._random:
                self._random_victim_to_front(bucket)
            victim, victim_dirty = bucket.popitem(last=False)
            if victim_dirty:
                self.dirty_evictions += 1
            eviction = Eviction(addr=victim << self._line_bits, dirty=victim_dirty)
        bucket[line] = dirty
        return eviction

    def _random_victim_to_front(self, bucket: "OrderedDict[int, bool]") -> None:
        """Draw the random policy's victim and move it to the front of ``bucket``.

        LRU keeps recency order and FIFO insertion order, so both evict the
        front entry; moving the drawn victim there lets every eviction site
        pop the front.  The rest of the set keeps its order, so popping the
        front equals popping the victim in place.  One ``randint`` per
        eviction, and an iterator advance instead of materialising the key
        list (dict iteration order is the order ``list(bucket)`` would have).
        """
        index = self._rng.randint(0, len(bucket))
        iterator = iter(bucket)
        for _ in range(index):
            next(iterator)
        bucket.move_to_end(next(iterator), last=False)

    def invalidate(self, addr: int) -> Optional[Eviction]:
        """Remove ``addr`` if present, returning it as an eviction if dirty."""
        line = addr >> self._line_bits
        bucket = self._sets[line & self._set_mask]
        if line in bucket:
            dirty = bucket.pop(line)
            if dirty:
                return Eviction(addr=line << self._line_bits, dirty=True)
        return None

    def flush_page(self, page_addr: int, page_size: int) -> List[Eviction]:
        """Invalidate all lines of a page, returning the dirty ones.

        Used when the OS reconfigures large pages (Section 4.3) and by the
        HMA baseline when it remaps pages (address-consistency scrubbing).
        """
        evictions: List[Eviction] = []
        for offset in range(0, page_size, self.line_size):
            evicted = self.invalidate(page_addr + offset)
            if evicted is not None:
                evictions.append(evicted)
        return evictions

    # ------------------------------------------------------------------ introspection

    @property
    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(len(bucket) for bucket in self._sets)

    @property
    def capacity_lines(self) -> int:
        """Total number of line frames."""
        return self.num_sets * self.num_ways

    @property
    def miss_rate(self) -> float:
        """Demand miss rate since construction."""
        total = self.hits + self.misses
        return self.misses / total if total else 0.0

    def resident_lines(self) -> List[int]:
        """Addresses of all currently valid lines (test helper)."""
        lines = []
        for bucket in self._sets:
            lines.extend(line << self._line_bits for line in bucket)
        return lines
