"""Unison Cache baseline (Jevdjic et al., MICRO 2014).

Unison Cache is a set-associative, page-granularity DRAM cache that keeps
tags and LRU metadata in the in-package DRAM.  Following the paper's
methodology (Section 5.1.1) we model:

* perfect way prediction — a hit costs one combined data+tag read (96 B on
  the wire) plus a tag/LRU update write (32 B), i.e. "at least 128 B" as in
  Table 1, with single-access latency;
* LRU replacement *on every miss*;
* a perfect footprint predictor (see :mod:`repro.dramcache.footprint`)
  managed at 4-line granularity, so fills move only the page's predicted
  footprint rather than the whole 4 KB.

Misses pay the speculative tag+data read in the DRAM cache (96 B, the way
prediction still has to be verified) plus the off-package demand fetch, for
roughly 2x latency.

Mechanically the scheme is a composition of a
:class:`~repro.dramcache.components.stores.SetAssociativePageStore` (residency
+ LRU), a :class:`~repro.dramcache.components.traffic.TagProbe` (in-DRAM
data+tag reads) and :class:`~repro.dramcache.components.traffic.TransferFlows`
(footprint-sized fills and dirty-page evictions).  Hits, misses and
writebacks run in ``access``'s one frame, which finds the page in the store's
location dict and records hits with the LRU policy directly; a miss calls
``_replace`` for the victim search, the install and the footprint fill.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.replacement import LruPolicy
from repro.dram.device import DramDevice
from repro.dramcache.base import TAG_ACCESS_BYTES, DramCacheScheme, OsServices
from repro.dramcache.components.stores import SetAssociativePageStore
from repro.dramcache.components.traffic import TagProbe, TransferFlows
from repro.dramcache.footprint import FootprintPredictor
from repro.memctrl.request import AccessResult, MemRequest
from repro.sim.config import SystemConfig
from repro.sim.stats import TrafficCategory
from repro.util.rng import DeterministicRng

_MISS = TrafficCategory.MISS_DATA
_TAG = TrafficCategory.TAG
_WB = TrafficCategory.WRITEBACK


class UnisonCache(DramCacheScheme):
    """Set-associative page-granularity DRAM cache with in-DRAM tags and LRU."""

    name = "unison"

    def __init__(
        self,
        config: SystemConfig,
        in_dram: DramDevice,
        off_dram: DramDevice,
        rng: Optional[DeterministicRng] = None,
        os_services: Optional[OsServices] = None,
    ) -> None:
        super().__init__(config, in_dram, off_dram, rng=rng, os_services=os_services)
        self.ways = config.dram_cache.ways
        total_pages = config.in_package_dram.capacity_bytes // self.page_size
        self.num_sets = max(1, total_pages // self.ways)
        self.store = SetAssociativePageStore(
            self.num_sets, self.ways, LruPolicy(self.num_sets, self.ways)
        )
        # ``access`` finds a page in the store's location dict and records a
        # hit with the LRU policy directly, in its own frame.
        self._locations = self.store.locations
        self._lru_access = self.store.policy.on_access
        self.probe = TagProbe(self)
        self.flows = TransferFlows(self)
        self.footprint = FootprintPredictor(
            self.page_size, granularity_lines=config.dram_cache.footprint_granularity_lines
        )

    # ------------------------------------------------------------------ helpers

    def is_resident(self, page: int) -> bool:
        return self.store.is_resident(page)

    # ------------------------------------------------------------------ access

    def access(self, now: int, request: MemRequest) -> AccessResult:
        addr = request.addr
        page = addr // self.page_size
        location = self._locations.get(page)
        result = self._result
        if request.is_writeback:
            # Writebacks must probe the in-DRAM tags to find the page.
            self._in_access(now, addr, TAG_ACCESS_BYTES, _TAG, background=True)
            result.latency = 0
            if location is not None:
                set_index, way = location
                self.store.mark_dirty(set_index, way)
                self._in_access(now, addr, self.line_size, _WB, background=True)
                self.footprint.on_access(page, addr)
                result.dram_cache_hit = True
                result.served_by = "in-package"
            else:
                self._off_access(now, addr, self.line_size, _WB, background=True)
                result.dram_cache_hit = False
                result.served_by = "off-package"
            return result

        if location is not None:
            set_index, way = location
            # Data + tag read in one access (perfect way prediction), LRU update write.
            result.latency = self.probe.hit_read(now, addr, 2)
            self._lru_access(set_index, way)
            if request.is_write:
                self.store.mark_dirty(set_index, way)
            self.footprint.on_access(page, addr)
            self._count["dram_cache_hits"] += 1
            result.dram_cache_hit = True
            result.served_by = "in-package"
            return result

        # Speculative tag + data read in the DRAM cache, then the real fetch.
        spec_latency = self.probe.speculative_read(now, addr)
        latency = spec_latency + self._off_access(now + spec_latency, addr, self.line_size, _MISS)
        self._count["dram_cache_misses"] += 1
        self._replace(now + latency, request, page)
        result.latency = latency
        result.dram_cache_hit = False
        result.served_by = "off-package"
        return result

    def _replace(self, now: int, request: MemRequest, page: int) -> None:
        """Replacement happens on every miss (Table 1)."""
        store = self.store
        set_index = store.set_of(page)
        victim_way = store.victim_way(set_index)
        victim = store.evict(set_index, victim_way)
        if victim is not None:
            self._evict(now, victim.page, victim.dirty)
        store.install(set_index, victim_way, page, request.is_write)
        self.footprint.on_fill(page)
        self.footprint.on_access(page, request.addr)

        # Fill traffic: predicted footprint read from off-package and written
        # into the DRAM cache, plus the tag update.
        fill_bytes = self.footprint.predicted_fill_bytes()
        page_addr = page * self.page_size
        self.flows.fill_from_off(now, page_addr, fill_bytes)
        self.flows.fill_metadata(now, page_addr)
        self._count["page_fills"] += 1
        self._count["fill_bytes"] += fill_bytes

    def _evict(self, now: int, victim_page: int, victim_dirty: bool) -> None:
        if victim_dirty:
            dirty_bytes = self.footprint.writeback_bytes(victim_page)
            self.flows.evict_dirty_to_off(now, victim_page * self.page_size, dirty_bytes)
            self._count["dirty_page_evictions"] += 1
        self.footprint.on_evict(victim_page)
        self._count["page_evictions"] += 1
