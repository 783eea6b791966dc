"""Lazy PTE/TLB coherence: the batched update triggered by tag-buffer fills.

Section 3.4: when a tag buffer reaches its fill threshold, hardware raises an
interrupt; a software routine reads the remap entries of *all* tag buffers,
uses the OS reverse mapping to find every PTE of each physical page (page
aliasing included), rewrites the cached/way bits, issues one system-wide TLB
shootdown, and finally tells the tag buffers to clear their remap bits.

:class:`PteUpdateBatcher` encapsulates that routine.  The actual PTE writes,
shootdown cost accounting and TLB invalidation are performed by the system
through the :class:`repro.dramcache.base.OsServices` callback, keeping the
hardware model and the OS model decoupled, as in the real design.  The
simulated OS never aliases a page, so its reverse-map walk is one lookup
(:meth:`repro.vm.page_table.PageTable.apply_mapping`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence, Tuple

from repro.core.tag_buffer import TagBuffer

if TYPE_CHECKING:
    # Annotation only: importing repro.dramcache here would close the loop
    # repro.dramcache.components.coherence -> repro.core -> repro.dramcache.
    from repro.dramcache.base import OsServices


class PteUpdateBatcher:
    """Collects remap entries from all tag buffers and drives the update."""

    def __init__(self, tag_buffers: Sequence[TagBuffer], os_services: OsServices) -> None:
        if not tag_buffers:
            raise ValueError("at least one tag buffer is required")
        self.tag_buffers: List[TagBuffer] = list(tag_buffers)
        self.os = os_services
        self.flushes = 0
        self.updates_applied = 0

    def set_os_services(self, os_services: OsServices) -> None:
        """Swap the OS callback (the system installs its own after construction)."""
        self.os = os_services

    def needs_flush(self, threshold: float) -> bool:
        """True if any tag buffer's remap occupancy reached ``threshold``.

        Checked after every recorded remap, so a plain loop (a generator
        expression here would allocate on the demand hot path).
        """
        for buffer in self.tag_buffers:
            if buffer.remap_fraction >= threshold:
                return True
        return False

    def collect_updates(self) -> List[Tuple[int, bool, int]]:
        """All (page, cached, way) remaps not yet reflected in the PTEs."""
        updates: List[Tuple[int, bool, int]] = []
        for buffer in self.tag_buffers:
            updates.extend(buffer.remap_entries())
        return updates

    def flush(self, initiator_core: int) -> int:
        """Run the software update routine; returns the number of remaps applied."""
        updates = self.collect_updates()
        self.os.pte_update_batch(initiator_core, updates)
        for buffer in self.tag_buffers:
            buffer.clear_remap_bits()
        self.flushes += 1
        self.updates_applied += len(updates)
        return len(updates)
