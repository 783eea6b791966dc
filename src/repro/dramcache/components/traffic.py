"""Probe and data-movement traffic charging.

Table 1 of the paper is, at heart, a catalogue of which DRAM accesses each
scheme performs per hit, miss, fill and eviction.  These components express
the multi-transfer ones once, with the correct byte counts and
:class:`~repro.sim.stats.TrafficCategory` labels:

* :class:`TagProbe` — data+tag reads for schemes that keep tags in the
  in-package DRAM (Alloy's TAD layout, Unison's in-DRAM tags);
* :class:`MetadataChannel` — the 32 B per-set metadata record that Banshee's
  frequency counters (and the LRU-ablation recency bits) live in;
* :class:`TransferFlows` — fill, dirty-evict and migration data movement
  between the two DRAM devices.

A single transfer (an LLC writeback, a lone tag probe, a demand read) is
issued by the scheme itself through its hoisted device-access methods, in
the frame of its ``access``.  The components bind the same methods once at
construction, so a flow costs one extra call over hand-inlined transfers.
"""

from __future__ import annotations

from repro.dramcache.base import TAG_ACCESS_BYTES
from repro.sim.stats import TrafficCategory

#: Bytes of one per-set metadata record (Section 5.1: ~32 bytes per set).
METADATA_ACCESS_BYTES = 32

_HIT = TrafficCategory.HIT_DATA
_MISS = TrafficCategory.MISS_DATA
_TAG = TrafficCategory.TAG
_COUNTER = TrafficCategory.COUNTER
_REPL = TrafficCategory.REPLACEMENT
_WB = TrafficCategory.WRITEBACK


class TagProbe:
    """Tag traffic for schemes whose tags live in the in-package DRAM."""

    __slots__ = ("tag_bytes", "line_size", "_in_access")

    def __init__(self, port, tag_bytes: int = TAG_ACCESS_BYTES) -> None:
        self.tag_bytes = tag_bytes
        self.line_size = port.line_size
        self._in_access = port._in_access

    def hit_read(self, now: int, addr: int, tag_accesses: int = 1) -> int:
        """Combined data+tag read on a hit; returns the critical-path latency.

        The data read carries the latency; ``tag_accesses`` background tag
        transfers ride along (1 for Alloy's TAD read, 2 for Unison's tag
        read + LRU update write).
        """
        latency = self._in_access(now, addr, self.line_size, _HIT)
        for _ in range(tag_accesses):
            self._in_access(now, addr, self.tag_bytes, _TAG, background=True)
        return latency

    def speculative_read(self, now: int, addr: int) -> int:
        """Wasted tag+data read on a miss (way prediction must be verified)."""
        latency = self._in_access(now, addr, self.line_size, _MISS)
        self._in_access(now, addr, self.tag_bytes, _TAG, background=True)
        return latency


class MetadataChannel:
    """The 32 B per-set metadata record in the in-package DRAM (Banshee)."""

    __slots__ = ("access_bytes", "_in_access", "_stats_inc")

    def __init__(self, port, access_bytes: int = METADATA_ACCESS_BYTES) -> None:
        self.access_bytes = access_bytes
        self._in_access = port._in_access
        self._stats_inc = port.stats.inc

    def read(self, now: int, addr: int) -> None:
        """Load the set's metadata record (counted as a counter read)."""
        self._in_access(now, addr, self.access_bytes, _COUNTER, background=True)
        self._stats_inc("counter_reads")

    def write(self, now: int, addr: int) -> None:
        """Store the set's metadata record (counted as a counter write)."""
        self._in_access(now, addr, self.access_bytes, _COUNTER, background=True)
        self._stats_inc("counter_writes")

    def touch(self, now: int, addr: int) -> None:
        """One uncounted metadata transfer (the LRU ablation's recency bits)."""
        self._in_access(now, addr, self.access_bytes, _COUNTER, background=True)


class TransferFlows:
    """Fill / evict / writeback / migration data movement."""

    __slots__ = ("line_size", "_in_access", "_off_access", "_in_dram", "_off_dram")

    def __init__(self, port) -> None:
        self.line_size = port.line_size
        self._in_access = port._in_access
        self._off_access = port._off_access
        self._in_dram = port.in_dram
        self._off_dram = port.off_dram

    # ------------------------------------------------------------------ fills

    def fill_from_off(self, now: int, addr: int, num_bytes: int) -> None:
        """Move ``num_bytes`` from off-package DRAM into the cache (a fill)."""
        self._off_access(now, addr, num_bytes, _REPL, background=True)
        self._in_access(now, addr, num_bytes, _REPL, background=True)

    def fill_metadata(self, now: int, addr: int, num_bytes: int = TAG_ACCESS_BYTES) -> None:
        """Tag/metadata update that accompanies a fill (replacement traffic)."""
        self._in_access(now, addr, num_bytes, _REPL, background=True)

    # ------------------------------------------------------------------ evictions

    def evict_dirty_to_off(self, now: int, addr: int, num_bytes: int) -> None:
        """Read a dirty victim out of the cache and write it off-package."""
        self._in_access(now, addr, num_bytes, _REPL, background=True)
        self._off_access(now, addr, num_bytes, _WB, background=True)

    # ------------------------------------------------------------------ OS-driven migration

    def migrate_in_record_only(self, num_bytes: int) -> None:
        """Account an off→in page migration without timing it (HMA remap)."""
        self._off_dram.record_only(num_bytes, _REPL)
        self._in_dram.record_only(num_bytes, _REPL)

    def migrate_out_record_only(self, num_bytes: int) -> None:
        """Account an in→off dirty-page migration without timing it."""
        self._in_dram.record_only(num_bytes, _REPL)
        self._off_dram.record_only(num_bytes, _WB)
