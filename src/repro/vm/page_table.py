"""Page table with Banshee's PTE extension.

Each PTE carries the normal virtual→physical translation plus the Banshee
extension of Section 3.2: a *cached* bit saying whether the page is resident
in the in-package DRAM cache and *way* bits saying which way of its set it
occupies.  Crucially (and unlike TDC/HMA), remapping a page in Banshee does
**not** change its physical address — only these extension bits change — so
on-chip caches never need to be scrubbed for address consistency.

Large (2 MB) pages are supported: a large PTE covers ``large_page_size /
page_size`` small-page frames and carries a ``large`` flag that the TLB and
memory requests propagate (Section 4.3).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.vm.physical_memory import FrameAllocator
from repro.vm.reverse_mapping import ReverseMapping


class PageTableEntry:
    """One page-table entry (with the Banshee extension bits).

    A plain ``__slots__`` class (not a dataclass): one entry exists per
    mapped page and the translation hot path touches them constantly, so
    dict-backed instances would dominate the page table's footprint.
    """

    __slots__ = ("vpn", "ppn", "cached", "way", "large", "generation")

    def __init__(
        self,
        vpn: int,
        ppn: int,
        cached: bool = False,
        way: int = 0,
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
            f"PageTableEntry(vpn={self.vpn!r}, ppn={self.ppn!r}, cached={self.cached!r}, "
            f"way={self.way!r}, large={self.large!r}, generation={self.generation!r})"
        )


class PageTable:
    """A per-workload page table with on-demand allocation.

    The table is shared by all cores (one address space), which matches the
    multi-threaded graph workloads and is a conservative simplification for
    the multi-programmed SPEC mixes (each core's virtual ranges are disjoint
    there, so sharing the table changes nothing).
    """

    def __init__(
        self,
        page_size: int,
        allocator: Optional[FrameAllocator] = None,
        reverse_mapping: Optional[ReverseMapping] = None,
        identity: bool = True,
    ) -> None:
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        self.page_size = page_size
        self.identity = identity
        self.allocator = allocator if allocator is not None else FrameAllocator()
        self.reverse_mapping = reverse_mapping if reverse_mapping is not None else ReverseMapping()
        self._entries: Dict[int, PageTableEntry] = {}
        self.walks = 0
        self.update_batches = 0
        self.updated_ptes = 0

    # ------------------------------------------------------------------ translation

    def translate(self, vaddr: int) -> PageTableEntry:
        """Translate ``vaddr``, allocating a frame on first touch."""
        vpn = vaddr // self.page_size
        entry = self._entries.get(vpn)
        if entry is None:
            entry = self._allocate(vpn)
        self.walks += 1
        return entry

    def entry_for_vpn(self, vpn: int) -> PageTableEntry:
        """Return (allocating if needed) the PTE for ``vpn``."""
        entry = self._entries.get(vpn)
        if entry is None:
            entry = self._allocate(vpn)
        return entry

    def _allocate(self, vpn: int) -> PageTableEntry:
        if self.identity:
            ppn = vpn
        else:
            ppn = self.allocator.allocate()
        # The PTE is retained for the life of the mapping and only built on a
        # page fault (first touch).  # repro: allow[hotpath-alloc]
        entry = PageTableEntry(vpn=vpn, ppn=ppn)
        self._entries[vpn] = entry
        self.reverse_mapping.add(ppn, vpn)
        return entry

    # ------------------------------------------------------------------ Banshee PTE updates

    def entries_for_ppn(self, ppn: int) -> Iterable[PageTableEntry]:
        """All PTEs mapping ``ppn`` (via the OS reverse mapping, Section 3.4)."""
        for vpn in self.reverse_mapping.vpns_for(ppn):
            entry = self._entries.get(vpn)
            if entry is not None:
                yield entry

    def apply_mapping(self, ppn: int, cached: bool, way: int) -> int:
        """Update the extension bits of every PTE mapping ``ppn``.

        Returns the number of PTEs touched.  This is the software routine that
        the tag-buffer-full interrupt triggers.  TLBs cache PTE objects, so a
        caller must shoot down every TLB before the next translation (as
        ``pte_update_batch`` does).
        """
        count = 0
        for entry in self.entries_for_ppn(ppn):
            entry.cached = cached
            entry.way = way
            entry.generation += 1
            count += 1
        self.updated_ptes += count
        return count

    def record_update_batch(self) -> None:
        """Count one batched PTE-update invocation (tag buffer flush)."""
        self.update_batches += 1

    # ------------------------------------------------------------------ introspection

    def mapped_pages(self) -> int:
        """Number of pages allocated so far."""
        return len(self._entries)

    def alias(self, vpn: int, target_vpn: int) -> PageTableEntry:
        """Create a page-aliasing mapping: ``vpn`` maps to ``target_vpn``'s frame.

        Exists to exercise the reverse-mapping path that an inverted page
        table (the TDC proposal) cannot handle; tests use it to show that
        Banshee's PTE update touches every alias.
        """
        target = self.entry_for_vpn(target_vpn)
        entry = PageTableEntry(vpn=vpn, ppn=target.ppn, cached=target.cached, way=target.way)
        self._entries[vpn] = entry
        self.reverse_mapping.add(target.ppn, vpn)
        return entry
