"""The CacheOnly baseline: an in-package DRAM of infinite capacity.

This is the upper bound used in Figure 4.  Note the paper's observation that
CacheOnly is *not* always the best configuration: it has no off-package
DRAM, so its total bandwidth is lower than a scheme that can also stream from
off-package memory (Section 5.2) — the same effect reproduces here because
all traffic is forced onto the in-package channels.
"""

from __future__ import annotations

from repro.dramcache.base import DramCacheScheme
from repro.memctrl.request import AccessResult, MemRequest
from repro.sim.stats import TrafficCategory

_HIT = TrafficCategory.HIT_DATA
_WB = TrafficCategory.WRITEBACK


class CacheOnly(DramCacheScheme):
    """Every LLC miss and writeback hits in an infinitely large in-package DRAM."""

    name = "cacheonly"

    def access(self, now: int, request: MemRequest) -> AccessResult:
        result = self._result
        result.served_by = "in-package"
        if request.is_writeback:
            self._in_access(now, request.addr, self.line_size, _WB, background=True)
            result.latency = 0
            result.dram_cache_hit = None
            return result
        result.latency = self._in_access(now, request.addr, self.line_size, _HIT)
        result.dram_cache_hit = True
        self._count["dram_cache_hits"] += 1
        return result

    def is_resident(self, page: int) -> bool:
        return True
