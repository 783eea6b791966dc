"""Memory-controller routing.

Physical addresses are statically mapped to memory controllers at page
granularity (Section 2): page ``addr // page_size`` belongs to controller
``page % num_mem_controllers``.  The set of controllers shares one
DRAM-cache scheme object, so routing a request is handing it to the scheme;
a scheme that keeps per-controller hardware (Banshee's tag buffers) computes
the owning controller itself from the request's page.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.memctrl.request import AccessResult, MemRequest
from repro.sim.config import SystemConfig

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a circular import
    from repro.dramcache.base import DramCacheScheme


class MemoryControllerSet:
    """All memory controllers of the system."""

    def __init__(self, config: SystemConfig, scheme: "DramCacheScheme") -> None:
        self.config = config
        self.scheme = scheme
        self.num_controllers = config.num_mem_controllers
        # Bound method hoisted once: ``access`` runs for every LLC miss and
        # writeback, and the extra attribute hop is measurable at trace scale.
        self._scheme_access = scheme.access

    def access(self, now: int, request: MemRequest) -> AccessResult:
        """Hand one LLC miss or writeback to the DRAM-cache scheme."""
        return self._scheme_access(now, request)
