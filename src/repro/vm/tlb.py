"""Per-core TLB with the Banshee mapping-bit extension.

The TLB caches the page table's :class:`~repro.vm.page_table.PageTableEntry`
objects themselves, (cached, way) extension bits included, rather than
copies of them.  That is exact: a PTE's bits change only inside the batched
PTE update (``pte_update_batch``, the one caller of
:meth:`~repro.vm.page_table.PageTable.apply_mapping`), and that routine
shoots down every TLB before it returns, so a cached PTE always equals the
copy a fill would have made.  Banshee still updates PTEs lazily: the memory
controller's tag buffer holds the authoritative mapping of any page whose
remap has not yet been pushed to the page table.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.sim.config import TlbConfig
from repro.vm.page_table import PageTableEntry


class Tlb:
    """A small fully-associative TLB with LRU replacement.

    Real L1 TLBs are set-associative; full associativity with LRU is a
    conventional simulator simplification that slightly under-counts TLB
    misses and is identical across all compared schemes.

    The entries are an ``OrderedDict`` in recency order (MRU at the end),
    unlike the SRAM cache's plain-dict sets: every TLB hit moves its entry,
    and in a plain dict a move is a pop plus an insert (which also rebuilds
    a 64-entry dict every ~107 moves), where ``move_to_end`` is one call.
    A plain-dict TLB measured 5.1% slower on perfbench's ``hit-path`` and
    no faster on ``miss-read`` (EXPERIMENTS.md, "SRAM cache sets as plain
    dicts").
    """

    def __init__(self, core_id: int, config: TlbConfig) -> None:
        self.core_id = core_id
        self.config = config
        self._entries: "OrderedDict[int, PageTableEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def lookup(self, vpn: int) -> Optional[PageTableEntry]:
        """Return the entry for ``vpn`` or None on a TLB miss."""
        entry = self._entries.get(vpn)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(vpn)
            return entry
        self.misses += 1
        return None

    def fill(self, pte: PageTableEntry) -> PageTableEntry:
        """Install a translation after a page walk; returns ``pte``.

        Evicts the least recently used entry when the TLB is full.
        """
        entries = self._entries
        if len(entries) >= self.config.entries and pte.vpn not in entries:
            entries.popitem(last=False)
        entries[pte.vpn] = pte
        entries.move_to_end(pte.vpn)
        return pte

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
