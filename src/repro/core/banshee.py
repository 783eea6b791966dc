"""The Banshee DRAM-cache scheme (Sections 3 and 4 of the paper).

Banshee combines:

* PTE/TLB-based content tracking — requests carry the cached/way bits, so a
  hit moves exactly the 64 B demand line and a miss goes straight to
  off-package DRAM (no probe), both with ~1x latency (Table 1);
* per-memory-controller tag buffers providing lazy TLB/PTE coherence
  (:class:`~repro.dramcache.components.coherence.TagBufferCoherence` over
  :mod:`repro.core.tag_buffer` and :mod:`repro.core.pte_extension`);
* a frequency-based replacement policy with sampled counter updates and a
  replacement threshold that only brings in pages whose expected benefit
  outweighs the replacement traffic (Algorithm 1, as
  :class:`~repro.dramcache.components.replacement.SampledFrequencyPolicy`
  gated by :class:`~repro.dramcache.components.replacement.AdaptiveSampler`);
* large-page (2 MB) support via DRAM-cache partitioning
  (:mod:`repro.core.large_pages`);
* an optional BATMAN-style bandwidth balancer (Section 5.4.2).

Two ablations of the replacement policy are selectable through
``DramCacheConfig.banshee_policy`` to reproduce Figure 7:

* ``"lru"`` — page-granularity LRU with replacement on every miss (like
  Unison but without a footprint cache and without tag lookups);
* ``"fbr-nosample"`` — frequency-based replacement whose counters are read
  and written on *every* DRAM-cache access (like CHOP);
* ``"fbr-sample"`` — the full Banshee policy (default).

Every LLC miss and writeback runs :meth:`BansheeCache.access` in one frame:
the partition lookup, the probe of the owning controller's tag buffer (an
inline :meth:`~repro.core.tag_buffer.TagBuffer.lookup`), residency, counters,
the data transfer, the miss-window update and the sampling draw.  What it
calls out to — replacement decisions, metadata traffic, fills/evictions and
remap recording — lives in :mod:`repro.dramcache.components`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cache.replacement import LruPolicy
from repro.core.bandwidth_balancer import BandwidthBalancer
from repro.core.frequency import INVALID_PAGE, FrequencySetMetadata
from repro.core.large_pages import PartitionPlan, plan_partitions
from repro.core.tag_buffer import TagBuffer
from repro.dram.device import DramDevice
from repro.dramcache.base import TAG_ACCESS_BYTES, DramCacheScheme, OsServices
from repro.dramcache.components.coherence import TagBufferCoherence
from repro.dramcache.components.replacement import AdaptiveSampler, SampledFrequencyPolicy
from repro.dramcache.components.stores import PageDirectory
from repro.dramcache.components.traffic import METADATA_ACCESS_BYTES, MetadataChannel, TransferFlows
from repro.memctrl.request import AccessResult, MappingInfo, MemRequest
from repro.sim.config import SystemConfig
from repro.sim.stats import MissRateWindow, TrafficCategory
from repro.util.rng import DeterministicRng

__all__ = ["METADATA_ACCESS_BYTES", "BansheeCache", "BansheePartition"]

#: Shared read-only mapping used when a request carries none (unit tests and
#: direct scheme drivers; the simulated System always attaches a mapping).
#: ``access`` only reads ``cached``/``way``, so one module-level instance
#: replaces a per-access fallback allocation.
_DEFAULT_MAPPING = MappingInfo()

_HIT = TrafficCategory.HIT_DATA
_MISS = TrafficCategory.MISS_DATA
_TAG = TrafficCategory.TAG
_WB = TrafficCategory.WRITEBACK


class BansheePartition:
    """State of the DRAM cache for one page size (regular or large pages)."""

    def __init__(self, plan: PartitionPlan, config: SystemConfig, policy: str) -> None:
        self.plan = plan
        self.page_size = plan.page_size
        self.ways = plan.ways
        self.num_sets = max(1, plan.num_sets)
        self.capacity_pages = plan.num_pages
        self.policy = policy
        self.sampling_coefficient = plan.sampling_coefficient
        self.threshold = config.dram_cache.effective_threshold(plan.page_size, plan.sampling_coefficient)
        self.counter_max = config.dram_cache.counter_max
        num_candidates = config.dram_cache.num_candidates
        self.metadata: List[FrequencySetMetadata] = [
            FrequencySetMetadata(self.ways, num_candidates, self.counter_max) for _ in range(self.num_sets)
        ]
        self.directory = PageDirectory()
        # The directory's containers double as this partition's public
        # ``resident``/``dirty`` views (shared objects, not copies).
        self.resident: Dict[int, int] = self.directory.pages
        self.dirty: set = self.directory.dirty
        self.lru = LruPolicy(self.num_sets, self.ways) if policy == "lru" else None
        # Reused validity vector for the LRU ablation's victim search.
        self._valid_scratch: List[bool] = [False] * self.ways
        # Wired by BansheeCache.__init__ (they need the scheme's shared
        # miss-rate window, RNG and stats); kept on the partition so the
        # demand hot path reaches them without a per-access dict lookup.
        self.sampler: Optional[AdaptiveSampler] = None
        self.fbr: Optional[SampledFrequencyPolicy] = None

    def set_of(self, page: int) -> int:
        """DRAM-cache set holding ``page``."""
        return page % self.num_sets

    def is_resident(self, page: int) -> bool:
        """Ground-truth residency."""
        return page in self.resident

    def way_of(self, page: int) -> int:
        """Way where ``page`` resides (page must be resident)."""
        return self.resident[page]

    def mark_dirty(self, page: int) -> None:
        """Record that the resident copy of ``page`` has been modified."""
        self.directory.mark_dirty(page)

    def occupancy(self) -> int:
        """Number of resident pages."""
        return self.directory.occupancy()


class BansheeCache(DramCacheScheme):
    """The Banshee DRAM cache."""

    name = "banshee"

    def __init__(
        self,
        config: SystemConfig,
        in_dram: DramDevice,
        off_dram: DramDevice,
        rng: Optional[DeterministicRng] = None,
        os_services: Optional[OsServices] = None,
    ) -> None:
        super().__init__(config, in_dram, off_dram, rng=rng, os_services=os_services)
        cache_config = config.dram_cache
        self.policy = cache_config.banshee_policy
        plans = plan_partitions(cache_config, config.in_package_dram.capacity_bytes)
        self._partitions: Dict[int, BansheePartition] = {
            plan.page_size: BansheePartition(plan, config, self.policy) for plan in plans if plan.capacity_bytes > 0
        }
        # Requests for an unplanned page size fall back to the first
        # partition (e.g. a 2 MB request when no large partition was
        # planned); the request is still served correctly, only capacity is
        # shared.
        self._fallback_partition = next(iter(self._partitions.values()))
        self._lru_ablation = self.policy == "lru"
        self._num_controllers = config.num_mem_controllers
        self.coherence = TagBufferCoherence(
            num_controllers=config.num_mem_controllers,
            entries=cache_config.tag_buffer_entries,
            ways=cache_config.tag_buffer_ways,
            flush_threshold=cache_config.tag_buffer_flush_threshold,
            os_services=self.os,
            stats=self.stats,
        )
        self.tag_buffers: List[TagBuffer] = self.coherence.tag_buffers
        self.pte_updater = self.coherence.pte_updater
        self.metadata_channel = MetadataChannel(self)
        self.flows = TransferFlows(self)
        self.miss_window = MissRateWindow(window=2048, initial_rate=1.0)
        for partition in self._partitions.values():
            partition.sampler = AdaptiveSampler(
                self.miss_window,
                partition.sampling_coefficient,
                self.rng,
                always=(self.policy == "fbr-nosample"),
            )
            partition.fbr = SampledFrequencyPolicy(
                partition.metadata, partition.threshold, self.rng, self.stats
            )
        self.balancer: Optional[BandwidthBalancer] = None
        if cache_config.bandwidth_balance:
            self.balancer = BandwidthBalancer(
                in_dram, off_dram, target_in_fraction=cache_config.bandwidth_balance_target
            )

    # ------------------------------------------------------------------ wiring

    def set_os_services(self, os_services: OsServices) -> None:
        super().set_os_services(os_services)
        self.coherence.set_os_services(os_services)

    def partition_for(self, page_size: int) -> BansheePartition:
        """The partition managing pages of ``page_size``."""
        return self._partitions.get(page_size, self._fallback_partition)

    def is_resident(self, page: int) -> bool:
        partition = self.partition_for(self.page_size)
        return partition.is_resident(page)

    # ------------------------------------------------------------------ access path

    def access(self, now: int, request: MemRequest) -> AccessResult:
        addr = request.addr
        partition = self._partitions.get(request.page_size, self._fallback_partition)
        page = addr // partition.page_size
        # Probe the tag buffer of the controller that owns the request's page
        # (static page-granularity routing): TagBuffer.lookup, inline.
        mc_id = (addr // request.page_size) % self._num_controllers
        buffer = self.tag_buffers[mc_id]
        buffer.lookups += 1
        entry = buffer._sets[page & buffer._set_mask].get(page)
        if entry is not None:
            buffer.hits += 1
            buffer._clock += 1
            entry.last_use = buffer._clock
        count = self._count
        result = self._result

        if request.is_writeback:
            if entry is not None:
                cached = entry.cached
                count["writeback_tagbuffer_hits"] += 1
            else:
                # Without mapping information the controller must probe the
                # tags stored in the DRAM cache (Section 3.3).
                self._in_access(now, addr, TAG_ACCESS_BYTES, _TAG, background=True)
                cached = page in partition.resident
                count["writeback_tag_probes"] += 1
            result.latency = 0
            if cached:
                self._in_access(now, addr, self.line_size, _WB, background=True)
                if page in partition.resident:
                    partition.dirty.add(page)
                result.dram_cache_hit = True
                result.served_by = "in-package"
            else:
                self._off_access(now, addr, self.line_size, _WB, background=True)
                result.dram_cache_hit = False
                result.served_by = "off-package"
            return result

        if entry is not None:
            carried_cached = entry.cached
        else:
            mapping = request.mapping if request.mapping is not None else _DEFAULT_MAPPING
            carried_cached = mapping.cached
            # Allocate a clean (remap=0) entry so later dirty evictions of
            # this page avoid the in-DRAM tag probe (Section 3.3).  A clean
            # insert never raises: a full set drops it.
            buffer.insert(page, carried_cached, mapping.way, False)

        cached = page in partition.resident
        count["mapping_consistent" if cached == carried_cached else "mapping_stale"] += 1
        if cached:
            if self.balancer is not None and page not in partition.dirty and self.balancer.should_redirect(
                self.rng.random()
            ):
                latency = self._off_access(now, addr, self.line_size, _HIT)
                result.served_by = "off-package"
                self.stats.inc("balanced_hits")
            else:
                latency = self._in_access(now, addr, self.line_size, _HIT)
                result.served_by = "in-package"
            if request.is_write:
                partition.dirty.add(page)
            count["dram_cache_hits"] += 1
        else:
            latency = self._off_access(now, addr, self.line_size, _MISS)
            result.served_by = "off-package"
            count["dram_cache_misses"] += 1

        # The shared miss-rate window drives every partition's adaptive
        # sample rate (Section 4.2.1).
        self.miss_window.record(cached)
        if partition.capacity_pages:
            if self._lru_ablation:
                self._lru_policy(now + latency, request, page, partition, mc_id, cached)
            elif partition.sampler.should_update():
                self._fbr_sampled_update(now + latency, request, page, partition, mc_id)
        result.latency = latency
        result.dram_cache_hit = cached
        return result

    # ------------------------------------------------------------------ replacement policies

    def _fbr_sampled_update(
        self, now: int, request: MemRequest, page: int, partition: BansheePartition, mc_id: int
    ) -> None:
        """Algorithm 1: load the set metadata, update counters, maybe replace."""
        set_index = partition.set_of(page)
        meta_addr = request.addr
        self.metadata_channel.read(now, meta_addr)
        decision = partition.fbr.update(set_index, page)
        if decision is not None:
            candidate_index, victim_way = decision
            self._replace(now, request, page, partition, mc_id, set_index, candidate_index, victim_way)
        self.metadata_channel.write(now, meta_addr)

    def _replace(
        self,
        now: int,
        request: MemRequest,
        page: int,
        partition: BansheePartition,
        mc_id: int,
        set_index: int,
        candidate_index: int,
        victim_way: int,
    ) -> None:
        """Swap the accessed candidate page with the coldest cached page."""
        meta = partition.metadata[set_index]
        victim_page, _victim_count, _ = meta.promote(candidate_index, victim_way)

        if victim_page != INVALID_PAGE:
            self._evict_page(now, victim_page, partition)
        self._fill_page(now, page, victim_way, partition, dirty=request.is_write)
        self.stats.inc("replacements")

        # Both the evicted and the inserted page changed their mapping: record
        # the remaps in this controller's tag buffer (Section 3.1).
        self.coherence.record_remap(mc_id, page, cached=True, way=victim_way, core_id=request.core_id)
        if victim_page != INVALID_PAGE:
            victim_mc = self.coherence.controller_of(victim_page)
            self.coherence.record_remap(victim_mc, victim_page, cached=False, way=0, core_id=request.core_id)

    def _evict_page(self, now: int, victim_page: int, partition: BansheePartition) -> None:
        if victim_page in partition.dirty:
            self.flows.evict_dirty_to_off(now, victim_page * partition.page_size, partition.page_size)
            self.stats.inc("dirty_page_evictions")
        partition.directory.evict(victim_page)
        self.stats.inc("page_evictions")

    def _fill_page(self, now: int, page: int, way: int, partition: BansheePartition, dirty: bool) -> None:
        self.flows.fill_from_off(now, page * partition.page_size, partition.page_size)
        partition.directory.fill(page, way, dirty)
        self.stats.inc("page_fills")

    # ------------------------------------------------------------------ LRU ablation (Figure 7)

    def _lru_policy(
        self, now: int, request: MemRequest, page: int, partition: BansheePartition, mc_id: int, hit: bool
    ) -> None:
        """Banshee LRU: page-granularity LRU, replacement on every miss.

        The LRU recency bits live in the per-set metadata row, so every access
        reads and writes 32 B of metadata; every miss moves a whole page (no
        footprint cache), like Unison Cache but without the tag lookups.
        """
        assert partition.lru is not None
        set_index = partition.set_of(page)
        meta_addr = request.addr
        self.metadata_channel.touch(now, meta_addr)
        self.metadata_channel.touch(now, meta_addr)

        if hit:
            partition.lru.on_access(set_index, partition.way_of(page))
            return

        meta = partition.metadata[set_index]
        valid_ways = partition._valid_scratch
        cached = meta.cached
        for way in range(partition.ways):
            valid_ways[way] = cached[way].valid
        victim_way = partition.lru.victim(set_index, valid_ways)
        victim_slot = meta.cached[victim_way]
        if victim_slot.valid:
            self._evict_page(now, victim_slot.page, partition)
            self.coherence.record_remap(mc_id, victim_slot.page, cached=False, way=0, core_id=request.core_id)
        meta.fill_way(victim_way, page, count=1, dirty=request.is_write)
        self._fill_page(now, page, victim_way, partition, dirty=request.is_write)
        partition.lru.on_fill(set_index, victim_way)
        self.coherence.record_remap(mc_id, page, cached=True, way=victim_way, core_id=request.core_id)
        self.stats.inc("replacements")

    # ------------------------------------------------------------------ end of run

    def finalize(self, now: int) -> None:
        """Flush any outstanding remaps so PTE state is consistent at the end."""
        self.coherence.finalize(core_id=0)
