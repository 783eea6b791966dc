"""Heterogeneous Memory Architecture (HMA) baseline (Meswani et al., HPCA 2015).

HMA manages the in-package DRAM entirely in software: periodically (every
100 ms to 1 s) the OS ranks all pages by access count, moves the hottest ones
into the in-package DRAM and the cold ones out, updates every PTE, flushes
all TLBs (coherence) and scrubs the remapped pages from the on-chip caches
(address consistency).  Between intervals the mapping is fixed, so the common
path has no tag or metadata traffic at all — but the scheme cannot adapt to
fine-grained temporal locality and every remap interval freezes the system.

HMA is part of the design-space discussion (Table 1) rather than the main
evaluation figures; it is implemented here for completeness and used by the
Table 1 behaviour benchmark and the examples.

Mechanically the scheme is a composition of a
:class:`~repro.dramcache.components.stores.ResidentPageSet` (wholesale
membership swaps at remap time) and
:class:`~repro.dramcache.components.traffic.TransferFlows` (untimed migration
accounting — remap traffic is charged while every core is stalled).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional

from repro.dram.device import DramDevice
from repro.dramcache.base import DramCacheScheme, OsServices
from repro.dramcache.components.stores import ResidentPageSet
from repro.dramcache.components.traffic import TransferFlows
from repro.memctrl.request import AccessResult, MemRequest
from repro.sim.config import SystemConfig
from repro.sim.stats import TrafficCategory
from repro.util.rng import DeterministicRng
from repro.util.units import cycles_from_ms, cycles_from_us

_HIT = TrafficCategory.HIT_DATA
_WB = TrafficCategory.WRITEBACK


class HmaCache(DramCacheScheme):
    """Software-managed, interval-based hot-page migration."""

    name = "hma"

    def __init__(
        self,
        config: SystemConfig,
        in_dram: DramDevice,
        off_dram: DramDevice,
        rng: Optional[DeterministicRng] = None,
        os_services: Optional[OsServices] = None,
    ) -> None:
        super().__init__(config, in_dram, off_dram, rng=rng, os_services=os_services)
        self.capacity_pages = config.in_package_dram.capacity_bytes // self.page_size
        self.interval_cycles = cycles_from_ms(config.dram_cache.hma_interval_ms, config.core.freq_ghz)
        self.remap_cost_cycles = cycles_from_us(config.dram_cache.hma_remap_cost_us, config.core.freq_ghz)
        self.store = ResidentPageSet()
        self.flows = TransferFlows(self)
        self._epoch_counts: Dict[int, int] = defaultdict(int)
        self._next_remap = self.interval_cycles

    @property
    def _resident(self):
        """The resident page set (exposed for tests and diagnostics)."""
        return self.store.pages

    def is_resident(self, page: int) -> bool:
        return self.store.is_resident(page)

    # ------------------------------------------------------------------ access

    def access(self, now: int, request: MemRequest) -> AccessResult:
        self.notify_cycle(now)
        addr = request.addr
        page = addr // self.page_size
        result = self._result
        if request.is_writeback:
            result.latency = 0
            if self.store.is_resident(page):
                self.store.mark_dirty(page)
                self._in_access(now, addr, self.line_size, _WB, background=True)
                result.dram_cache_hit = True
                result.served_by = "in-package"
            else:
                self._off_access(now, addr, self.line_size, _WB, background=True)
                result.dram_cache_hit = False
                result.served_by = "off-package"
            return result

        self._epoch_counts[page] += 1
        if self.store.is_resident(page):
            result.latency = self._in_access(now, addr, self.line_size, _HIT)
            if request.is_write:
                self.store.mark_dirty(page)
            self._count["dram_cache_hits"] += 1
            result.dram_cache_hit = True
            result.served_by = "in-package"
            return result

        result.latency = self._off_access(now, addr, self.line_size, _HIT)
        self._count["dram_cache_misses"] += 1
        result.dram_cache_hit = False
        result.served_by = "off-package"
        return result

    # ------------------------------------------------------------------ periodic remap

    def notify_cycle(self, now: int) -> None:
        """Run the OS hot-page migration once per interval."""
        if now < self._next_remap:
            return
        self._next_remap = now + self.interval_cycles
        self._remap(now)

    def _remap(self, now: int) -> None:
        ranked = sorted(self._epoch_counts.items(), key=lambda item: item[1], reverse=True)
        target = {page for page, _count in ranked[: self.capacity_pages]}
        incoming, outgoing = self.store.retarget(target)

        for page in outgoing:
            if page in self.store.dirty:
                self.flows.migrate_out_record_only(self.page_size)
            self.store.dirty.discard(page)
            # Address consistency: the remapped page must be scrubbed from the
            # on-chip caches because HMA changes physical addresses.
            self.os.flush_page_from_caches(page * self.page_size, self.page_size)
        for _page in incoming:
            self.flows.migrate_in_record_only(self.page_size)

        self._epoch_counts = defaultdict(int)
        self.stats.inc("remap_intervals")
        self.stats.inc("pages_migrated", len(incoming) + len(outgoing))
        # The OS routine stops every program while pages are moved.
        if incoming or outgoing:
            self.os.stall_all_cores(self.remap_cost_cycles)
