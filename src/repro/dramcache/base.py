"""Common machinery for DRAM-cache schemes.

Every scheme receives the two DRAM devices (in-package and off-package), the
system configuration and a deterministic RNG.  A scheme's job, for every
request that misses the LLC (demand access or dirty writeback), is to:

* decide whether the request hits in the in-package DRAM cache,
* issue the DRAM accesses the design would perform (data, tags, metadata,
  replacement traffic), with the correct byte counts and categories, and
* return the latency seen by the requesting core.

Traffic for operations that are off the critical path (fills, writebacks,
replacement moves) is still issued against the DRAM channels — it consumes
bandwidth and therefore delays later requests — but its latency is not added
to the triggering request.

Every LLC miss and writeback runs a scheme's ``access``, so each scheme runs
its common path in that one frame: single transfers go straight to the
hoisted device methods (``_in_access``/``_off_access``, ``background=True``
when off the critical path), per-access counters are bumped in the stats'
own dict (``_count``), and the reused ``_result`` is filled in place.
Calls remain for flows of two or more transfers, RNG draws and store
updates.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Tuple

from repro.dram.device import DramDevice
from repro.memctrl.request import AccessResult, MemRequest
from repro.sim.config import SystemConfig
from repro.sim.stats import StatsSet
from repro.util.rng import DeterministicRng

LINE_SIZE = 64
TAG_ACCESS_BYTES = 32


class OsServices:
    """Callbacks into the operating system / rest of the system.

    The scheme must not know about cores, TLBs or the page table directly;
    the :class:`repro.sim.system.System` implements these callbacks.  A
    default no-op implementation is provided so schemes can be unit-tested in
    isolation.
    """

    def pte_update_batch(self, initiator_core: int, updates: List[Tuple[int, bool, int]]) -> None:
        """Apply a batch of (page, cached, way) mapping updates to the PTEs.

        Called when a Banshee tag buffer reaches its flush threshold.  The
        system charges the software-routine cost and the TLB shootdown here.
        """

    def stall_all_cores(self, cycles: int) -> None:
        """Stall every core for ``cycles`` (used by the HMA baseline)."""

    def flush_page_from_caches(self, page_addr: int, page_size: int) -> int:
        """Scrub a page from the on-chip caches; returns number of dirty lines."""
        return 0


class DramCacheScheme(ABC):
    """Base class for all DRAM-cache schemes."""

    name = "base"

    def __init__(
        self,
        config: SystemConfig,
        in_dram: DramDevice,
        off_dram: DramDevice,
        rng: Optional[DeterministicRng] = None,
        os_services: Optional[OsServices] = None,
    ) -> None:
        self.config = config
        self.cache_config = config.dram_cache
        self.in_dram = in_dram
        self.off_dram = off_dram
        self.rng = rng if rng is not None else DeterministicRng(config.seed)
        self.os = os_services if os_services is not None else OsServices()
        self.stats = StatsSet(self.name)
        self.line_size = config.cacheline_size
        self.page_size = config.dram_cache.page_size
        # Bound device-access methods, hoisted once: every LLC miss and
        # writeback calls them from the scheme's ``access`` frame.
        self._in_access = self.in_dram.access_latency
        self._off_access = self.off_dram.access_latency
        # The stats' counter dict, for in-frame ``+= 1`` on the access path.
        self._count = self.stats.counters
        # Preallocated result record, filled in place by ``access``: the
        # System reads ``latency`` synchronously before issuing the next
        # request and never retains a result, so one instance per scheme
        # replaces an AccessResult allocation per LLC miss and writeback.
        self._result = AccessResult(latency=0)

    # ------------------------------------------------------------------ interface

    @abstractmethod
    def access(self, now: int, request: MemRequest) -> AccessResult:
        """Handle one LLC miss or writeback.

        Returns the scheme's reused :class:`AccessResult`, valid only until
        the next ``access`` call; a caller that keeps a result must copy
        its fields (:meth:`repro.sim.system.System.process_record_cols`
        reads ``latency`` at once and drops the reference).
        """

    def set_os_services(self, os_services: OsServices) -> None:
        """Install the system's OS-callback implementation."""
        self.os = os_services

    def notify_cycle(self, now: int) -> None:
        """Give periodic schemes (HMA) a chance to act; default is a no-op."""

    def finalize(self, now: int) -> None:
        """Hook called at the end of simulation; default is a no-op."""

    def is_resident(self, page: int) -> bool:
        """Ground-truth residency query used by tests; default: never resident."""
        return False

    # ------------------------------------------------------------------ helpers

    @property
    def demand_accesses(self) -> int:
        """Number of demand accesses seen so far."""
        return int(self.stats.get("dram_cache_hits") + self.stats.get("dram_cache_misses"))

    @property
    def miss_rate(self) -> float:
        """Demand miss rate so far."""
        total = self.demand_accesses
        if total == 0:
            return 0.0
        return self.stats.get("dram_cache_misses") / total

    def traffic_summary(self) -> Dict[str, Dict[str, int]]:
        """Per-device traffic breakdown (bytes)."""
        return {
            "in-package": self.in_dram.traffic.breakdown(),
            "off-package": self.off_dram.traffic.breakdown(),
        }
