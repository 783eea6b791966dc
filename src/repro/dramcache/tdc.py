"""Tagless DRAM Cache (TDC) baseline (Lee et al., ISCA 2015), idealised.

TDC tracks DRAM-cache contents through the page tables and TLBs (like
Banshee), so there is no tag traffic at all: a hit moves exactly the 64 B
demand line, a miss fetches it from off-package DRAM, both with ~1x latency.
The cache is fully associative with FIFO replacement, and replacement happens
on every miss.

Following Section 5.1.1 we model the *idealised* TDC: its hardware TLB
coherence mechanism is free, the address-consistency problem is ignored, and
it gets the same perfect footprint predictor as Unison Cache.  Even this
idealisation loses to Banshee because it still pays full replacement traffic
on every miss and FIFO can evict hot pages.

Mechanically the scheme is a composition of a
:class:`~repro.dramcache.components.stores.FifoPageStore` (residency in FIFO
order) and :class:`~repro.dramcache.components.traffic.TransferFlows`
(footprint-sized fills and dirty-page evictions) — no probe component, which
*is* the point of the design.
"""

from __future__ import annotations

from typing import Optional

from repro.dram.device import DramDevice
from repro.dramcache.base import DramCacheScheme, OsServices
from repro.dramcache.components.stores import FifoPageStore
from repro.dramcache.components.traffic import TransferFlows
from repro.dramcache.footprint import FootprintPredictor
from repro.memctrl.request import AccessResult, MemRequest
from repro.sim.config import SystemConfig
from repro.sim.stats import TrafficCategory
from repro.util.rng import DeterministicRng

_HIT = TrafficCategory.HIT_DATA
_MISS = TrafficCategory.MISS_DATA
_WB = TrafficCategory.WRITEBACK


class TaglessDramCache(DramCacheScheme):
    """Fully-associative, FIFO, PTE/TLB-mapped page-granularity DRAM cache."""

    name = "tdc"

    def __init__(
        self,
        config: SystemConfig,
        in_dram: DramDevice,
        off_dram: DramDevice,
        rng: Optional[DeterministicRng] = None,
        os_services: Optional[OsServices] = None,
    ) -> None:
        super().__init__(config, in_dram, off_dram, rng=rng, os_services=os_services)
        self.store = FifoPageStore(config.in_package_dram.capacity_bytes // self.page_size)
        self.capacity_pages = self.store.capacity_pages
        self.flows = TransferFlows(self)
        self.footprint = FootprintPredictor(
            self.page_size, granularity_lines=config.dram_cache.footprint_granularity_lines
        )

    @property
    def _resident(self):
        """The FIFO residency map (exposed for tests and diagnostics)."""
        return self.store.entries

    def is_resident(self, page: int) -> bool:
        return self.store.is_resident(page)

    # ------------------------------------------------------------------ access

    def access(self, now: int, request: MemRequest) -> AccessResult:
        addr = request.addr
        page = addr // self.page_size
        result = self._result
        if request.is_writeback:
            # The mapping is known from the PTE/TLB extension, so no tag probe.
            result.latency = 0
            if self.store.is_resident(page):
                self.store.mark_dirty(page)
                self._in_access(now, addr, self.line_size, _WB, background=True)
                self.footprint.on_access(page, addr)
                result.dram_cache_hit = True
                result.served_by = "in-package"
            else:
                self._off_access(now, addr, self.line_size, _WB, background=True)
                result.dram_cache_hit = False
                result.served_by = "off-package"
            return result

        if self.store.is_resident(page):
            result.latency = self._in_access(now, addr, self.line_size, _HIT)
            if request.is_write:
                self.store.mark_dirty(page)
            self.footprint.on_access(page, addr)
            self._count["dram_cache_hits"] += 1
            result.dram_cache_hit = True
            result.served_by = "in-package"
            return result

        # Miss: the mapping was already known from the TLB, so the demand line
        # comes straight from off-package DRAM with no DRAM-cache probe.
        latency = self._off_access(now, addr, self.line_size, _MISS)
        self._count["dram_cache_misses"] += 1
        self._fill(now + latency, request, page)
        result.latency = latency
        result.dram_cache_hit = False
        result.served_by = "off-package"
        return result

    def _fill(self, now: int, request: MemRequest, page: int) -> None:
        """Replacement on every miss with FIFO eviction."""
        victim = self.store.pop_victim_if_full()
        if victim is not None:
            victim_page, victim_dirty = victim
            if victim_dirty:
                dirty_bytes = self.footprint.writeback_bytes(victim_page)
                self.flows.evict_dirty_to_off(now, victim_page * self.page_size, dirty_bytes)
                self._count["dirty_page_evictions"] += 1
            self.footprint.on_evict(victim_page)
            self._count["page_evictions"] += 1

        self.store.insert(page, request.is_write)
        self.footprint.on_fill(page)
        self.footprint.on_access(page, request.addr)
        fill_bytes = self.footprint.predicted_fill_bytes()
        self.flows.fill_from_off(now, page * self.page_size, fill_bytes)
        self._count["page_fills"] += 1
        self._count["fill_bytes"] += fill_bytes
