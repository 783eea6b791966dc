"""Composable mechanisms shared by the DRAM-cache schemes.

Every scheme in :mod:`repro.dramcache` (and :mod:`repro.core.banshee`) is a
composition of a small number of recurring mechanisms:

* a **residency store** tracking which lines/pages are in the in-package
  DRAM and which of them are dirty (:mod:`.stores`);
* **probe traffic charging** for tags and per-set metadata kept in the
  in-package DRAM (:mod:`.traffic`);
* **fill / evict / writeback flows** that move data between the two DRAM
  devices with the correct byte counts and traffic categories
  (:mod:`.traffic`);
* a **replacement policy** deciding what to insert and what to evict
  (:mod:`.replacement`, plus :mod:`repro.cache.replacement` for LRU);
* **mapping coherence** for the PTE/TLB-tracked schemes
  (:mod:`.coherence`).

The components operate against a *port* — any object exposing the
:class:`repro.dramcache.base.DramCacheScheme` traffic surface (the hoisted
device-access methods ``_in_access``/``_off_access``, ``line_size``,
``stats``, ``in_dram``, ``off_dram``).  In practice the port is the scheme
itself, so a scheme composes components by passing ``self`` at construction
time.  Components bind the port's device-access methods once, so the
composition adds no attribute-chain walking to the per-access hot path;
schemes call the same bound methods directly for single transfers.
"""

from repro.dramcache.components.coherence import TagBufferCoherence
from repro.dramcache.components.replacement import AdaptiveSampler, SampledFrequencyPolicy
from repro.dramcache.components.stores import (
    DirectMappedLineStore,
    FifoPageStore,
    PageDirectory,
    ResidentPageSet,
    SetAssociativePageStore,
)
from repro.dramcache.components.traffic import (
    METADATA_ACCESS_BYTES,
    MetadataChannel,
    TagProbe,
    TransferFlows,
)

__all__ = [
    "AdaptiveSampler",
    "DirectMappedLineStore",
    "FifoPageStore",
    "METADATA_ACCESS_BYTES",
    "MetadataChannel",
    "PageDirectory",
    "ResidentPageSet",
    "SampledFrequencyPolicy",
    "SetAssociativePageStore",
    "TagBufferCoherence",
    "TagProbe",
    "TransferFlows",
]
