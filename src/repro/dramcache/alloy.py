"""Alloy Cache baseline (Qureshi & Loh, MICRO 2012) with BEAR optimisations.

Alloy Cache is a direct-mapped, cacheline-granularity DRAM cache that stores
each line's tag adjacent to its data ("TAD"), so a hit reads tag+data in a
single DRAM access — 96 bytes on an HBM-style link with a 32 B minimum
transfer (Table 1).  On a miss the speculative tag+data read is wasted and
the demand line is fetched from off-package DRAM.

The BEAR additions modelled here, following Section 5.1.1 of the Banshee
paper:

* *stochastic cache fills* — a missing line is inserted only with probability
  ``alloy_replacement_probability`` (1.0 for "Alloy 1", 0.1 for "Alloy 0.1");
* *bandwidth-efficient writeback probe* — an LLC dirty eviction first probes
  only the tag (32 B) and writes the 64 B line to the DRAM cache only when it
  is present, otherwise the line goes straight to off-package DRAM.

The paper disables the original Alloy optimisation of issuing the in- and
off-package accesses in parallel on a miss (it hurts when off-package
bandwidth is scarce); we follow that and serialise them.

Mechanically the scheme is a composition of a
:class:`~repro.dramcache.components.stores.DirectMappedLineStore` (residency),
a :class:`~repro.dramcache.components.traffic.TagProbe` (the TAD reads) and
:class:`~repro.dramcache.components.traffic.TransferFlows` (dirty-victim
writebacks).  A demand access or writeback runs in ``access``'s one frame:
it reads the store's ``tags``/``dirty_frames`` in place and issues single
transfers (the BEAR probe, the writeback, the fill's line and tag writes)
itself; the TAD reads, the fill draw and ``store.install`` stay calls.
"""

from __future__ import annotations

from typing import Optional

from repro.dram.device import DramDevice
from repro.dramcache.base import TAG_ACCESS_BYTES, DramCacheScheme, OsServices
from repro.dramcache.components.stores import DirectMappedLineStore
from repro.dramcache.components.traffic import TagProbe, TransferFlows
from repro.memctrl.request import AccessResult, MemRequest
from repro.sim.config import SystemConfig
from repro.sim.stats import TrafficCategory
from repro.util.rng import DeterministicRng

_HIT = TrafficCategory.HIT_DATA
_MISS = TrafficCategory.MISS_DATA
_TAG = TrafficCategory.TAG
_REPL = TrafficCategory.REPLACEMENT
_WB = TrafficCategory.WRITEBACK


class AlloyCache(DramCacheScheme):
    """Direct-mapped, line-granularity DRAM cache with stochastic fills."""

    name = "alloy"

    def __init__(
        self,
        config: SystemConfig,
        in_dram: DramDevice,
        off_dram: DramDevice,
        rng: Optional[DeterministicRng] = None,
        os_services: Optional[OsServices] = None,
    ) -> None:
        super().__init__(config, in_dram, off_dram, rng=rng, os_services=os_services)
        # One tag+data frame per cacheline of in-package capacity.  The TAD
        # layout stores 8 B of tag next to each 64 B line; we keep the
        # conventional simplification of ignoring the resulting ~11% capacity
        # loss (it is identical for Alloy 1 and Alloy 0.1).
        self.store = DirectMappedLineStore(config.in_package_dram.capacity_bytes // self.line_size)
        self.num_frames = self.store.num_frames
        # The store's containers, read and marked in ``access``'s own frame
        # (shared objects, never reassigned); fills go through ``install``.
        self._tags = self.store.tags
        self._dirty_frames = self.store.dirty_frames
        self.fill_probability = config.dram_cache.alloy_replacement_probability
        self.probe = TagProbe(self)
        self.flows = TransferFlows(self)
        self.balancer = None
        if config.dram_cache.bandwidth_balance:
            from repro.core.bandwidth_balancer import BandwidthBalancer

            self.balancer = BandwidthBalancer(
                in_dram, off_dram, target_in_fraction=config.dram_cache.bandwidth_balance_target
            )

    # ------------------------------------------------------------------ internals

    def is_resident(self, page: int) -> bool:
        """Residency of the *line-sized* block whose number is ``page``."""
        return self.store.is_resident(page)

    # ------------------------------------------------------------------ access

    def access(self, now: int, request: MemRequest) -> AccessResult:
        line_size = self.line_size
        line = request.addr // line_size
        line_addr = line * line_size
        frame = line % self.num_frames
        result = self._result
        if request.is_writeback:
            # BEAR writeback probe: read only the tag first.
            self._in_access(now, line_addr, TAG_ACCESS_BYTES, _TAG, background=True)
            result.latency = 0
            if self._tags.get(frame) == line:
                self._in_access(now, line_addr, line_size, _WB, background=True)
                self._dirty_frames.add(frame)
                self._count["writeback_hits"] += 1
                result.dram_cache_hit = True
                result.served_by = "in-package"
            else:
                self._off_access(now, line_addr, line_size, _WB, background=True)
                self._count["writeback_misses"] += 1
                result.dram_cache_hit = False
                result.served_by = "off-package"
            return result

        if self._tags.get(frame) == line:
            if (
                self.balancer is not None
                and not request.is_write
                and frame not in self._dirty_frames
                and self.balancer.should_redirect(self.rng.random())
            ):
                # Bandwidth balancing (Section 5.4.2): serve this clean hit
                # from off-package DRAM to relieve the in-package channels.
                result.latency = self._off_access(now, line_addr, line_size, _HIT)
                result.served_by = "off-package"
            else:
                # One TAD read returns tag + data: 96 B on the wire.
                result.latency = self.probe.hit_read(now, line_addr)
                result.served_by = "in-package"
            if request.is_write:
                self._dirty_frames.add(frame)
            self._count["dram_cache_hits"] += 1
            result.dram_cache_hit = True
            return result

        # Miss: the speculative TAD read is wasted, then fetch from off-package.
        spec_latency = self.probe.speculative_read(now, line_addr)
        latency = spec_latency + self._off_access(now + spec_latency, line_addr, line_size, _MISS)
        self._count["dram_cache_misses"] += 1
        if self.rng.chance(self.fill_probability):
            fill_now = now + latency
            victim, victim_dirty = self.store.install(frame, line, request.is_write)
            if victim_dirty:
                # The evicted line is dirty: it must be written to off-package DRAM.
                self.flows.evict_dirty_to_off(fill_now, victim * line_size, line_size)
                self.stats.inc("dirty_victim_writebacks")
            # The fill writes the 64 B line and its tag into the TAD frame.
            self._in_access(fill_now, line_addr, line_size, _REPL, background=True)
            self._in_access(fill_now, line_addr, TAG_ACCESS_BYTES, _REPL, background=True)
            self._count["fills"] += 1
        result.latency = latency
        result.dram_cache_hit = False
        result.served_by = "off-package"
        return result
