"""Factory for DRAM-cache schemes.

Keeps the mapping from configuration names ("banshee", "alloy", ...) to
classes in one place so the simulator, the experiment harness and the
examples never hard-code scheme construction.  The names are
:data:`repro.sim.config.SCHEMES`, which ``DramCacheConfig`` checks.
"""

from __future__ import annotations

from typing import Dict, Optional, Type

from repro.dram.device import DramDevice
from repro.dramcache.alloy import AlloyCache
from repro.dramcache.base import DramCacheScheme, OsServices
from repro.dramcache.cache_only import CacheOnly
from repro.dramcache.hma import HmaCache
from repro.dramcache.no_cache import NoCache
from repro.dramcache.tdc import TaglessDramCache
from repro.dramcache.unison import UnisonCache
from repro.sim.config import SystemConfig
from repro.util.rng import DeterministicRng


def _registry() -> Dict[str, Type[DramCacheScheme]]:
    # Imported lazily to avoid a circular import: repro.core.banshee depends
    # on repro.dramcache.base, which lives in this package.
    from repro.core.banshee import BansheeCache

    return {
        "nocache": NoCache,
        "cacheonly": CacheOnly,
        "alloy": AlloyCache,
        "unison": UnisonCache,
        "tdc": TaglessDramCache,
        "hma": HmaCache,
        "banshee": BansheeCache,
    }


def create_scheme(
    config: SystemConfig,
    in_dram: DramDevice,
    off_dram: DramDevice,
    rng: Optional[DeterministicRng] = None,
    os_services: Optional[OsServices] = None,
) -> DramCacheScheme:
    """Build the scheme named by ``config.dram_cache.scheme``."""
    scheme_class = _registry()[config.dram_cache.scheme]
    return scheme_class(config, in_dram, off_dram, rng=rng, os_services=os_services)
