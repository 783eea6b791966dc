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
        # in ``access``/``_fill`` show up in profiles at trace scale).
        self._lru = self.policy == "lru"
        self._random = self.policy == "random"

        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.dirty_evictions = 0

        # Victim of the most recent ``access_fast``/``fill_fast`` call.
        # ``victim_addr is None`` means nothing was evicted; ``victim_dirty``
        # is only meaningful when ``victim_addr`` is set.  Out-parameters
        # instead of :class:`Eviction` objects keep the fast path
        # allocation-free.
        self.victim_addr: Optional[int] = None
        self.victim_dirty: bool = False

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
        if self.access_fast(addr, is_write):
            return CacheAccessResult(hit=True, eviction=None)
        eviction = None
        if self.victim_addr is not None:
            eviction = Eviction(addr=self.victim_addr, dirty=self.victim_dirty)
        return CacheAccessResult(hit=False, eviction=eviction)

    def access_fast(self, addr: int, is_write: bool) -> bool:
        """Allocation-free :meth:`access`: returns the hit flag.

        On a miss the victim (if any) is exposed via ``victim_addr`` /
        ``victim_dirty`` instead of an :class:`Eviction`; on a hit the victim
        fields are left stale and must not be read.  This is what the
        per-record hot path uses — three of these run per trace record.
        """
        line = addr >> self._line_bits
        bucket = self._sets[line & self._set_mask]
        if line in bucket:
            self.hits += 1
            if is_write:
                bucket[line] = True
            if self._lru:
                bucket.move_to_end(line)
            return True
        self.misses += 1
        self._fill_fast(bucket, line, is_write)
        return False

    def fill(self, addr: int, dirty: bool = False) -> Optional[Eviction]:
        """Insert ``addr`` without counting a demand access (e.g. writeback fill)."""
        self.fill_fast(addr, dirty)
        if self.victim_addr is not None:
            return Eviction(addr=self.victim_addr, dirty=self.victim_dirty)
        return None

    def fill_fast(self, addr: int, dirty: bool = False) -> None:
        """Allocation-free :meth:`fill`; victim reported via ``victim_addr``."""
        line = addr >> self._line_bits
        bucket = self._sets[line & self._set_mask]
        if line in bucket:
            if dirty:
                bucket[line] = True
            if self._lru:
                bucket.move_to_end(line)
            self.victim_addr = None
            return
        self._fill_fast(bucket, line, dirty)

    def _fill_fast(self, bucket: "OrderedDict[int, bool]", line: int, dirty: bool) -> None:
        if len(bucket) >= self.num_ways:
            if self._random:
                # Advance an iterator instead of materialising the key list;
                # the draw and the chosen victim are identical (dict iteration
                # order is the order list(bucket.keys()) would have).
                index = self._rng.randint(0, len(bucket))
                iterator = iter(bucket)
                for _ in range(index):
                    next(iterator)
                victim = next(iterator)
                victim_dirty = bucket.pop(victim)
            else:
                # LRU keeps recency order, FIFO keeps insertion order; both
                # evict the oldest entry, i.e. the front of the dict.
                victim, victim_dirty = bucket.popitem(last=False)
            self.victim_addr = victim << self._line_bits
            self.victim_dirty = victim_dirty
            self.evictions += 1
            if victim_dirty:
                self.dirty_evictions += 1
        else:
            self.victim_addr = None
        bucket[line] = dirty

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
