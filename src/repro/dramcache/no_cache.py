"""The NoCache baseline: the system only has off-package DRAM.

Speedups in Figure 4 of the paper are normalised to this configuration.
"""

from __future__ import annotations

from repro.dramcache.base import DramCacheScheme
from repro.memctrl.request import AccessResult, MemRequest
from repro.sim.stats import TrafficCategory

_HIT = TrafficCategory.HIT_DATA
_WB = TrafficCategory.WRITEBACK


class NoCache(DramCacheScheme):
    """Every LLC miss and writeback is served by off-package DRAM."""

    name = "nocache"

    def access(self, now: int, request: MemRequest) -> AccessResult:
        result = self._result
        result.served_by = "off-package"
        if request.is_writeback:
            self._off_access(now, request.addr, self.line_size, _WB, background=True)
            result.latency = 0
            result.dram_cache_hit = None
            return result
        result.latency = self._off_access(now, request.addr, self.line_size, _HIT)
        result.dram_cache_hit = False
        self._count["dram_cache_misses"] += 1
        return result
