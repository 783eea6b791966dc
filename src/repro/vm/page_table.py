"""Page table with Banshee's PTE extension.

Each PTE carries the Banshee extension of Section 3.2: a *cached* bit
saying whether the page is resident in the in-package DRAM cache and *way*
bits saying which way of its set it occupies.  Crucially (and unlike
TDC/HMA), remapping a page in Banshee does **not** change its physical
address — only these extension bits change — so on-chip caches never need
to be scrubbed for address consistency.

The model maps every virtual page to the physical page of the same number
and never aliases one page under two numbers, so a PTE needs no physical
page number, and Section 3.4's reverse-map walk from a physical page to
the PTEs mapping it is one dict lookup.  The page size is the workload's;
large (2 MB) pages reach the memory system as the request's ``page_size``
(Section 4.3).
"""

from __future__ import annotations

from typing import Dict


class PageTableEntry:
    """One page-table entry: its page number and the Banshee extension bits.

    A plain ``__slots__`` class (not a dataclass): one entry exists per
    mapped page and the translation hot path touches them constantly, so
    dict-backed instances would dominate the page table's footprint.
    """

    __slots__ = ("vpn", "cached", "way")

    def __init__(self, vpn: int) -> None:
        self.vpn = vpn
        self.cached = False
        self.way = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PageTableEntry(vpn={self.vpn!r}, cached={self.cached!r}, way={self.way!r})"


class PageTable:
    """A per-workload page table, one entry per page, filled on first touch.

    The table is shared by all cores (one address space), which matches the
    multi-threaded graph workloads and is a conservative simplification for
    the multi-programmed SPEC mixes (each core's virtual ranges are disjoint
    there, so sharing the table changes nothing).
    """

    def __init__(self, page_size: int) -> None:
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        self.page_size = page_size
        self._entries: Dict[int, PageTableEntry] = {}

    def translate(self, vaddr: int) -> PageTableEntry:
        """The PTE of ``vaddr``'s page, mapping the page on first touch."""
        vpn = vaddr // self.page_size
        entry = self._entries.get(vpn)
        if entry is None:
            # A PTE is built once per page, on its first touch (a page
            # fault), and kept for the run.  # repro: allow[hotpath-alloc]
            entry = self._entries[vpn] = PageTableEntry(vpn)
        return entry

    def apply_mapping(self, page: int, cached: bool, way: int) -> int:
        """Set the extension bits of ``page``'s PTE; returns the PTEs updated.

        That is 1, or 0 for a page never translated, which has no PTE to
        update.  This is the software routine that the tag-buffer-full
        interrupt triggers.  TLBs cache PTE objects, so a caller must shoot
        down every TLB before the next translation (as ``pte_update_batch``
        does).
        """
        entry = self._entries.get(page)
        if entry is None:
            return 0
        entry.cached = cached
        entry.way = way
        return 1

    def mapped_pages(self) -> int:
        """Number of pages mapped so far."""
        return len(self._entries)
