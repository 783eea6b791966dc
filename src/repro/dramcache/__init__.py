"""DRAM-cache schemes: the paper's baselines plus the scheme factory.

Banshee itself (the paper's contribution) lives in :mod:`repro.core`; the
factory here knows how to build it so that the simulator can instantiate any
scheme by name.  Parameterised *variants* of the schemes — named points of
the paper's sensitivity studies, declared as configuration overrides in
:mod:`repro.dramcache.variants` — resolve through the same factory, and the
shared mechanisms the schemes are composed from live in
:mod:`repro.dramcache.components`.
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
from repro.dramcache.variants import (
    SchemeVariant,
    available_scheme_names,
    register_variant,
    resolve_scheme,
)

__all__ = [
    "AlloyCache",
    "DramCacheScheme",
    "OsServices",
    "CacheOnly",
    "SchemeVariant",
    "available_scheme_names",
    "create_scheme",
    "register_variant",
    "resolve_scheme",
    "FootprintPredictor",
    "HmaCache",
    "NoCache",
    "TaglessDramCache",
    "UnisonCache",
]
