"""DRAM-cache schemes: the paper's baselines plus the scheme factory.

Banshee itself (the paper's contribution) lives in :mod:`repro.core`; the
factory here knows how to build it so that the simulator can instantiate any
scheme by name.  The shared mechanisms the schemes are composed from live
in :mod:`repro.dramcache.components`.
"""

from repro.dramcache.alloy import AlloyCache
from repro.dramcache.base import DramCacheScheme, OsServices
from repro.dramcache.cache_only import CacheOnly
from repro.dramcache.factory import create_scheme
from repro.dramcache.footprint import FootprintPredictor
from repro.dramcache.hma import HmaCache
from repro.dramcache.no_cache import NoCache
from repro.dramcache.tdc import TaglessDramCache
from repro.dramcache.unison import UnisonCache

__all__ = [
    "AlloyCache",
    "DramCacheScheme",
    "OsServices",
    "CacheOnly",
    "create_scheme",
    "FootprintPredictor",
    "HmaCache",
    "NoCache",
    "TaglessDramCache",
    "UnisonCache",
]
