"""SRAM cache substrate: replacement policies, set-associative caches, hierarchy."""

from repro.cache.hierarchy import CacheHierarchy, HierarchyAccess
from repro.cache.replacement import LruPolicy
from repro.cache.sram_cache import CacheAccessResult, Eviction, SramCache

__all__ = [
    "CacheHierarchy",
    "HierarchyAccess",
    "LruPolicy",
    "CacheAccessResult",
    "Eviction",
    "SramCache",
]
