"""The on-chip cache hierarchy: per-core L1/L2 and a shared L3 (LLC).

The hierarchy is functional: it answers "which level served this access" and
produces the stream of dirty LLC writebacks that the memory controllers must
handle.  Latency numbers for each level come from the core configuration and
are applied by the core timing model.

:meth:`CacheHierarchy.access_reused` is the per-record hot path: it walks
all three levels in one frame, against the levels' sets directly.
:meth:`repro.cache.sram_cache.SramCache.access` and
:meth:`~repro.cache.sram_cache.SramCache.fill` are the per-level reference
that walk is tested against.

Coherence between private caches is not modelled, a simplification that
leaves the comparison intact: the studied workloads are dominated by
private data, and the DRAM-cache schemes under comparison sit below the
LLC, where coherence traffic is identical for all of them.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cache.sram_cache import Eviction, SramCache
from repro.sim.config import SystemConfig
from repro.util.rng import DeterministicRng


class HierarchyAccess:
    """Outcome of one access walking the hierarchy.

    A plain ``__slots__`` class (not a dataclass): one of these is produced
    for every trace record, and the fast path reuses preallocated instances.

    Attributes:
        level: "l1", "l2", "l3" or "memory" — the level that served the access.
        llc_miss: True when the access must go to a memory controller.
        writebacks: dirty lines evicted from the LLC by this access (these
            become writeback requests to the memory controllers).
    """

    __slots__ = ("level", "llc_miss", "writebacks")

    def __init__(self, level: str, llc_miss: bool, writebacks: Optional[List[Eviction]] = None) -> None:
        self.level = level
        self.llc_miss = llc_miss
        self.writebacks = writebacks if writebacks is not None else []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"HierarchyAccess(level={self.level!r}, llc_miss={self.llc_miss!r}, "
            f"writebacks={self.writebacks!r})"
        )


class CacheHierarchy:
    """Private L1/L2 per core plus a shared L3."""

    def __init__(self, config: SystemConfig, rng: Optional[DeterministicRng] = None) -> None:
        self.config = config
        rng = rng if rng is not None else DeterministicRng(config.seed)
        self.l1: List[SramCache] = [
            SramCache(f"l1-{core}", config.l1, rng=rng.fork(100 + core)) for core in range(config.num_cores)
        ]
        self.l2: List[SramCache] = [
            SramCache(f"l2-{core}", config.l2, rng=rng.fork(200 + core)) for core in range(config.num_cores)
        ]
        self.l3 = SramCache("l3", config.l3, rng=rng.fork(300))

        # Reused outcome objects for the per-record fast path.  ``_l1_hit``
        # is returned for every L1 hit (by far the common case) without
        # touching its always-empty writeback list; ``_scratch`` is reused
        # for every deeper walk, its writeback list cleared in place.
        self._l1_hit = HierarchyAccess(level="l1", llc_miss=False, writebacks=[])
        self._scratch = HierarchyAccess(level="memory", llc_miss=True, writebacks=[])
        # Eviction pool for the scratch writeback list: one access produces at
        # most three LLC writebacks (L1-victim chain, L2 victim, L3 victim),
        # so three reused records cover every path without allocating.
        self._wb_pool = [Eviction(addr=0, dirty=True) for _ in range(3)]

    def access(self, core_id: int, addr: int, is_write: bool) -> HierarchyAccess:
        """Walk the hierarchy for one demand access from ``core_id``."""
        if not 0 <= core_id < self.config.num_cores:
            raise ValueError(f"core_id {core_id} out of range")
        outcome = self.access_reused(core_id, addr, is_write)
        # Copy the pooled Eviction records too: the pool is reused on the
        # next access, and this composed API promises caller-owned results.
        return HierarchyAccess(
            level=outcome.level,
            llc_miss=outcome.llc_miss,
            writebacks=[Eviction(addr=wb.addr, dirty=wb.dirty) for wb in outcome.writebacks],
        )

    def access_reused(self, core_id: int, addr: int, is_write: bool) -> HierarchyAccess:
        """Allocation-free :meth:`access`: the per-record hot path.

        The returned :class:`HierarchyAccess` (and its writeback list) is
        owned by the hierarchy and only valid until the next call; callers
        must consume it immediately and must not mutate or retain it.
        ``core_id`` is trusted to be in range.

        The L1/L2/L3 walk runs in this one frame.  It probes each level's
        sets directly and counts on the level objects exactly as the
        per-level :meth:`SramCache.access`/:meth:`SramCache.fill` reference
        does, in the same order: the L1 access, whose dirty victim fills the
        L2, whose dirty victim fills the L3, whose dirty victim becomes a
        writeback; then the L2 access, whose dirty victim goes down the same
        way; then the L3 access.  A full set evicts its first key (LRU and
        FIFO order), or under the random policy the key its draw picks; a
        resident line that a dirty victim fills becomes dirty, and under LRU
        also most recent.
        """
        l1 = self.l1[core_id]
        line = addr >> l1._line_bits
        bucket = l1._sets[line & l1._set_mask]
        if line in bucket:
            l1.hits += 1
            if l1._lru:
                bucket[line] = bucket.pop(line) or is_write
            elif is_write:
                bucket[line] = True
            return self._l1_hit

        outcome = self._scratch
        writebacks = outcome.writebacks
        del writebacks[:]
        wb_pool = self._wb_pool
        l2 = self.l2[core_id]
        l3 = self.l3

        # L1 miss.  ``spill`` is the address of a dirty victim on its way to
        # the next level down, or None.
        l1.misses += 1
        spill: Optional[int] = None
        if len(bucket) >= l1.num_ways:
            if l1._random:
                victim = l1._random_victim(bucket)
            else:
                for victim in bucket:
                    break
            if bucket.pop(victim):
                l1.dirty_evictions += 1
                spill = victim << l1._line_bits
        bucket[line] = is_write

        if spill is not None:
            # The dirty L1 victim fills the L2.
            line = spill >> l2._line_bits
            bucket = l2._sets[line & l2._set_mask]
            spill = None
            if line in bucket:
                if l2._lru:
                    del bucket[line]
            elif len(bucket) >= l2.num_ways:
                if l2._random:
                    victim = l2._random_victim(bucket)
                else:
                    for victim in bucket:
                        break
                if bucket.pop(victim):
                    l2.dirty_evictions += 1
                    spill = victim << l2._line_bits
            bucket[line] = True
            if spill is not None:
                # Its dirty L2 victim fills the L3.
                line = spill >> l3._line_bits
                bucket = l3._sets[line & l3._set_mask]
                if line in bucket:
                    if l3._lru:
                        del bucket[line]
                elif len(bucket) >= l3.num_ways:
                    if l3._random:
                        victim = l3._random_victim(bucket)
                    else:
                        for victim in bucket:
                            break
                    if bucket.pop(victim):
                        l3.dirty_evictions += 1
                        eviction = wb_pool[len(writebacks)]
                        eviction.addr = victim << l3._line_bits
                        writebacks.append(eviction)
                bucket[line] = True

        # L2 access.
        line = addr >> l2._line_bits
        bucket = l2._sets[line & l2._set_mask]
        if line in bucket:
            l2.hits += 1
            if l2._lru:
                bucket[line] = bucket.pop(line) or is_write
            elif is_write:
                bucket[line] = True
            outcome.level = "l2"
            outcome.llc_miss = False
            return outcome
        l2.misses += 1
        spill = None
        if len(bucket) >= l2.num_ways:
            if l2._random:
                victim = l2._random_victim(bucket)
            else:
                for victim in bucket:
                    break
            if bucket.pop(victim):
                l2.dirty_evictions += 1
                spill = victim << l2._line_bits
        bucket[line] = is_write

        if spill is not None:
            # The dirty L2 victim fills the L3.
            line = spill >> l3._line_bits
            bucket = l3._sets[line & l3._set_mask]
            if line in bucket:
                if l3._lru:
                    del bucket[line]
            elif len(bucket) >= l3.num_ways:
                if l3._random:
                    victim = l3._random_victim(bucket)
                else:
                    for victim in bucket:
                        break
                if bucket.pop(victim):
                    l3.dirty_evictions += 1
                    eviction = wb_pool[len(writebacks)]
                    eviction.addr = victim << l3._line_bits
                    writebacks.append(eviction)
            bucket[line] = True

        # L3 access.
        line = addr >> l3._line_bits
        bucket = l3._sets[line & l3._set_mask]
        if line in bucket:
            l3.hits += 1
            if l3._lru:
                bucket[line] = bucket.pop(line) or is_write
            elif is_write:
                bucket[line] = True
            outcome.level = "l3"
            outcome.llc_miss = False
            return outcome
        l3.misses += 1
        if len(bucket) >= l3.num_ways:
            if l3._random:
                victim = l3._random_victim(bucket)
            else:
                for victim in bucket:
                    break
            if bucket.pop(victim):
                l3.dirty_evictions += 1
                eviction = wb_pool[len(writebacks)]
                eviction.addr = victim << l3._line_bits
                writebacks.append(eviction)
        bucket[line] = is_write
        outcome.level = "memory"
        outcome.llc_miss = True
        return outcome

    def flush_page(self, page_addr: int, page_size: int) -> List[Eviction]:
        """Scrub one page from every cache level, returning dirty lines.

        This is the "address consistency" operation that PTE/TLB remapping
        schemes with separate address spaces must perform; in Banshee it is
        only needed for large-page reconfiguration.
        """
        dirty: List[Eviction] = []
        for cache in self.l1 + self.l2 + [self.l3]:
            dirty.extend(cache.flush_page(page_addr, page_size))
        return dirty

    def stats(self) -> Dict[str, int]:
        """Aggregate hit/miss counters for all levels."""
        return {
            "l1_hits": sum(c.hits for c in self.l1),
            "l1_misses": sum(c.misses for c in self.l1),
            "l2_hits": sum(c.hits for c in self.l2),
            "l2_misses": sum(c.misses for c in self.l2),
            "l3_hits": self.l3.hits,
            "l3_misses": self.l3.misses,
            "l3_dirty_evictions": self.l3.dirty_evictions,
        }
