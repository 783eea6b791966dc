"""Per-core TLB with the Banshee mapping-bit extension.

The TLB caches PTEs, including the (cached, way) extension bits.  Because
Banshee updates PTEs lazily, TLB copies of the extension bits may be *stale*;
the memory controller's tag buffer holds the authoritative mapping for any
page whose remap has not yet been pushed to the page table, so stale bits are
harmless for correctness.  A system-wide shootdown (invalidate_all) is issued
after each batched PTE update.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.sim.config import TlbConfig
from repro.vm.page_table import PageTableEntry


class TlbEntry:
    """One TLB entry: a cached translation plus Banshee's extension bits.

    A plain ``__slots__`` class (not a dataclass): one entry exists per
    resident translation and the hot path reads its fields on every record,
    so dict-backed instances would waste space and indirection.
    """

    __slots__ = ("vpn", "ppn", "cached", "way", "large", "generation")

    def __init__(
        self,
        vpn: int,
        ppn: int,
        cached: bool,
        way: int,
        large: bool = False,
        generation: int = 0,
    ) -> None:
        self.vpn = vpn
        self.ppn = ppn
        self.cached = cached
        self.way = way
        self.large = large
        self.generation = generation

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TlbEntry(vpn={self.vpn!r}, ppn={self.ppn!r}, cached={self.cached!r}, "
            f"way={self.way!r}, large={self.large!r}, generation={self.generation!r})"
        )


class Tlb:
    """A small fully-associative TLB with LRU replacement.

    Real L1 TLBs are set-associative; full associativity with LRU is a
    conventional simulator simplification that slightly under-counts TLB
    misses and is identical across all compared schemes.
    """

    def __init__(self, core_id: int, config: TlbConfig) -> None:
        self.core_id = core_id
        self.config = config
        self._entries: "OrderedDict[int, TlbEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def lookup(self, vpn: int) -> Optional[TlbEntry]:
        """Return the entry for ``vpn`` or None on a TLB miss."""
        entry = self._entries.get(vpn)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(vpn)
            return entry
        self.misses += 1
        return None

    def fill(self, pte: PageTableEntry) -> TlbEntry:
        """Install a translation after a page walk."""
        if len(self._entries) >= self.config.entries and pte.vpn not in self._entries:
            self._entries.popitem(last=False)
        # The entry is retained in the TLB and only built on a TLB miss (per
        # page walk, not per record).  # repro: allow[hotpath-alloc]
        entry = TlbEntry(
            vpn=pte.vpn,
            ppn=pte.ppn,
            cached=pte.cached,
            way=pte.way,
            large=pte.large,
            generation=pte.generation,
        )
        self._entries[pte.vpn] = entry
        self._entries.move_to_end(pte.vpn)
        return entry

    def invalidate_all(self) -> int:
        """TLB shootdown: drop every entry, returning how many were dropped."""
        dropped = len(self._entries)
        self._entries.clear()
        self.invalidations += 1
        return dropped

    def invalidate(self, vpn: int) -> bool:
        """Drop a single entry (used by HMA's per-page remaps)."""
        return self._entries.pop(vpn, None) is not None

    @property
    def occupancy(self) -> int:
        """Number of resident translations."""
        return len(self._entries)

    @property
    def miss_rate(self) -> float:
        """TLB miss rate since construction."""
        total = self.hits + self.misses
        return self.misses / total if total else 0.0
