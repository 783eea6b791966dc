"""A set-associative SRAM cache model.

The model is purely functional (hit/miss + evictions); timing is handled by
the hierarchy and the core model.  Lines are identified by their line-aligned
address, and dirty state is tracked so that dirty LLC evictions can be routed
to the memory controllers (which matters a great deal for the DRAM-cache
schemes: Banshee's tag-probe path and Alloy's BEAR writeback probe both exist
to serve exactly these requests).

Replacement is LRU.  Each set is a plain ``dict`` mapping line tag ->
dirty bit, whose iteration order is insertion order and so recency order
(MRU at the end): a hit pops its line and inserts it again, and a full set
evicts its first key.  Plain dicts rather than ``collections``' ordered
mapping: an eviction then allocates and frees no linked-list node, and
CPython specialises item loads and stores only for exact dicts.  That makes
every miss cheaper, and on the miss-bound workloads nearly every record
misses every level.  A hit costs more (a pop and an insert instead of one
move), which is why the TLB, where hits are the common case, keeps its
ordered mapping.

The per-record hot path does not call :meth:`SramCache.access` or
:meth:`SramCache.fill`: :meth:`repro.cache.hierarchy.CacheHierarchy.access_reused`
walks all three levels' sets in one frame.  ``access``/``fill`` are the
per-level reference that walk must match (the hierarchy tests replay both
side by side), and the API for every other caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.sim.config import CacheLevelConfig
from repro.util.bits import log2_exact


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
    """Set-associative write-back, write-allocate LRU SRAM cache."""

    def __init__(self, name: str, config: CacheLevelConfig) -> None:
        self.name = name
        self.config = config
        self.num_sets = config.num_sets
        self.num_ways = config.ways
        self.line_size = config.line_size
        self._line_bits = log2_exact(config.line_size)
        self._set_mask = self.num_sets - 1
        self._sets: List[Dict[int, bool]] = [{} for _ in range(self.num_sets)]

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
            bucket[line] = bucket.pop(line) or is_write
            return CacheAccessResult(hit=True, eviction=None)
        self.misses += 1
        return CacheAccessResult(hit=False, eviction=self._insert(bucket, line, is_write))

    def fill(self, addr: int, dirty: bool = False) -> Optional[Eviction]:
        """Insert ``addr`` without counting a demand access (e.g. writeback fill)."""
        line = addr >> self._line_bits
        bucket = self._sets[line & self._set_mask]
        if line in bucket:
            bucket[line] = bucket.pop(line) or dirty
            return None
        return self._insert(bucket, line, dirty)

    def _insert(self, bucket: Dict[int, bool], line: int, dirty: bool) -> Optional[Eviction]:
        """Allocate ``line`` in ``bucket``, evicting a victim when the set is full."""
        eviction: Optional[Eviction] = None
        if len(bucket) >= self.num_ways:
            for victim in bucket:
                break
            victim_dirty = bucket.pop(victim)
            if victim_dirty:
                self.dirty_evictions += 1
            eviction = Eviction(addr=victim << self._line_bits, dirty=victim_dirty)
        bucket[line] = dirty
        return eviction

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
