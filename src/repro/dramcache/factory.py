"""Factory for DRAM-cache schemes and their declared variants.

Keeps the mapping from configuration names ("banshee", "alloy", ...) to
classes in one place so the simulator, the experiment harness and the
examples never hard-code scheme construction.  Variant names
("banshee-tb4k", "unison-2kpage", ...) resolve through
:mod:`repro.dramcache.variants`: the variant's ``DramCacheConfig`` overrides
are applied before the base class is constructed, so one scheme class
serves every declared point of its sensitivity axes.
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
from repro.dramcache.variants import resolve_scheme
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
    """Build the scheme (or variant) named by ``config.dram_cache.scheme``.

    A variant's overrides were already folded into the configuration when it
    was constructed (``DramCacheConfig.__post_init__``), so the whole system
    — workloads, page tables, cell keys — simulated with the same values the
    scheme sees; this factory only has to pick the base class.  The
    constructed scheme reports the variant name (``scheme.name``) so
    campaign tables and results stay self-describing.
    """
    requested = config.dram_cache.scheme
    registry = _registry()
    if requested in registry:
        base = requested
    elif config.dram_cache.base_scheme in registry:
        # Variant (possibly registered in another process; the config
        # carries its resolution — see DramCacheConfig.base_scheme).
        base = config.dram_cache.base_scheme
    else:
        # Unresolvable: raise the registry's ValueError listing the names.
        base, _overrides = resolve_scheme(requested)
    scheme = registry[base](config, in_dram, off_dram, rng=rng, os_services=os_services)
    if requested != base:
        scheme.name = requested
        scheme.stats.name = requested
    return scheme
