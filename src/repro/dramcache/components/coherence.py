"""Lazy PTE/TLB mapping coherence through per-controller tag buffers.

Banshee tracks DRAM-cache contents in the page tables; remapping a page
therefore means updating PTEs and shooting down TLBs.  Doing that per
replacement would be ruinous, so remaps accumulate in small per-memory-
controller tag buffers and are applied in batches by a software routine
(Sections 3.1–3.4).  :class:`TagBufferCoherence` packages that machinery —
the buffers, the update batcher and the flush policy — behind
``record_remap``, ``flush`` and ``finalize``.  The per-access side reads
the buffers directly: Banshee's ``access`` probes the owning controller's
buffer inline and inserts the clean (remap=0) entries itself, since a
clean insert never raises (a full set drops it).

Schemes that keep their mapping in the PTEs (Banshee today; any future
PTE-tracked variant) compose this instead of hand-wiring buffers, batcher
and thresholds.
"""

from __future__ import annotations

from typing import List

from repro.core.pte_extension import PteUpdateBatcher
from repro.core.tag_buffer import TagBuffer, TagBufferFullError
from repro.dramcache.base import OsServices
from repro.sim.stats import StatsSet


class TagBufferCoherence:
    """Per-MC tag buffers with batched, thresholded PTE update flushes."""

    __slots__ = ("tag_buffers", "pte_updater", "flush_threshold", "stats")

    def __init__(
        self,
        num_controllers: int,
        entries: int,
        ways: int,
        flush_threshold: float,
        os_services: OsServices,
        stats: StatsSet,
    ) -> None:
        self.tag_buffers: List[TagBuffer] = [
            TagBuffer(entries, ways) for _ in range(num_controllers)
        ]
        self.pte_updater = PteUpdateBatcher(self.tag_buffers, os_services)
        self.flush_threshold = flush_threshold
        self.stats = stats

    # ------------------------------------------------------------------ wiring

    def set_os_services(self, os_services: OsServices) -> None:
        """Install the system's OS-callback implementation."""
        self.pte_updater.set_os_services(os_services)

    def controller_of(self, page: int) -> int:
        """The memory controller (and therefore tag buffer) owning ``page``."""
        return page % len(self.tag_buffers)

    # ------------------------------------------------------------------ remaps

    def record_remap(self, mc_id: int, page: int, cached: bool, way: int, core_id: int) -> None:
        """Record a mapping change; flush when the buffer demands it.

        A full buffer forces an immediate flush (the insert must land);
        otherwise a flush fires once remap entries exceed the occupancy
        threshold (Section 3.4).
        """
        buffer = self.tag_buffers[mc_id]
        try:
            buffer.insert(page, cached, way, remap=True)
        except TagBufferFullError:
            self.flush(core_id)
            buffer.insert(page, cached, way, remap=True)
        if self.pte_updater.needs_flush(self.flush_threshold):
            self.flush(core_id)

    def flush(self, core_id: int) -> None:
        """Apply every pending remap as one batched software PTE update."""
        applied = self.pte_updater.flush(core_id)
        self.stats.inc("tag_buffer_flushes")
        self.stats.inc("pte_updates", applied)

    def finalize(self, core_id: int = 0) -> None:
        """Flush outstanding remaps so PTE state is consistent at end of run."""
        if self.pte_updater.collect_updates():
            self.flush(core_id)
