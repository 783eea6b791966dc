"""Residency stores: who is in the in-package DRAM, and who is dirty.

Each class models one organisation of the DRAM cache's data array:

* :class:`DirectMappedLineStore` — direct-mapped, line granularity (Alloy);
* :class:`SetAssociativePageStore` — set-associative, page granularity,
  with a pluggable per-set replacement policy (Unison);
* :class:`FifoPageStore` — fully-associative, page granularity, FIFO
  eviction order (TDC);
* :class:`PageDirectory` — page → way mapping mirrored in the PTEs
  (Banshee partitions; the "store" is really the page table's view);
* :class:`ResidentPageSet` — an unordered resident set whose contents are
  re-chosen wholesale at remap intervals (HMA).

Stores only track state — they never touch the DRAM devices.  Charging the
traffic that state transitions imply is the scheme's job, via
:class:`repro.dramcache.components.traffic.TransferFlows`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Set, Tuple

from repro.cache.replacement import ReplacementPolicy


class DirectMappedLineStore:
    """Direct-mapped, line-granularity residency (one tag per frame)."""

    __slots__ = ("num_frames", "tags", "dirty_frames")

    def __init__(self, num_frames: int) -> None:
        if num_frames <= 0:
            raise ValueError("in-package DRAM too small for even one line")
        self.num_frames = num_frames
        self.tags: Dict[int, int] = {}
        self.dirty_frames: Set[int] = set()

    def is_resident(self, line: int) -> bool:
        """True when ``line`` currently occupies its frame."""
        return self.tags.get(line % self.num_frames) == line

    def install(self, frame: int, line: int, dirty: bool) -> Tuple[Optional[int], bool]:
        """Install ``line`` into ``frame``; returns ``(victim_line, victim_dirty)``.

        ``victim_line`` is ``None`` when the frame was empty.  The victim's
        dirty state is consumed here (the frame's dirty bit now describes the
        new occupant).
        """
        victim = self.tags.get(frame)
        victim_dirty = victim is not None and frame in self.dirty_frames
        self.dirty_frames.discard(frame)
        self.tags[frame] = line
        if dirty:
            self.dirty_frames.add(frame)
        # One result tuple per fill (misses only, further gated by Alloy's
        # stochastic fill probability).  # repro: allow[hotpath-alloc]
        return victim, victim_dirty


class _StoredPage:
    """One resident page frame of a set-associative store."""

    __slots__ = ("page", "dirty")

    def __init__(self, page: int) -> None:
        self.page = page
        self.dirty = False


class SetAssociativePageStore:
    """Set-associative page residency with a pluggable replacement policy."""

    __slots__ = ("num_sets", "ways", "policy", "_sets", "locations", "_valid_scratch")

    def __init__(self, num_sets: int, ways: int, policy: ReplacementPolicy) -> None:
        if num_sets <= 0 or ways <= 0:
            raise ValueError("num_sets and ways must be positive")
        self.num_sets = num_sets
        self.ways = ways
        self.policy = policy
        self._sets: List[List[Optional[_StoredPage]]] = [[None] * ways for _ in range(num_sets)]
        #: page -> ``(set_index, way)`` of every resident page.
        self.locations: Dict[int, Tuple[int, int]] = {}
        # Reused validity vector for victim_way (runs on every miss).
        self._valid_scratch: List[bool] = [False] * ways

    def set_of(self, page: int) -> int:
        """Set index that ``page`` maps to."""
        return page % self.num_sets

    def is_resident(self, page: int) -> bool:
        """True when ``page`` is currently cached."""
        return page in self.locations

    def mark_dirty(self, set_index: int, way: int) -> None:
        """Record a write to the page in ``(set_index, way)``."""
        entry = self._sets[set_index][way]
        if entry is not None:
            entry.dirty = True

    def victim_way(self, set_index: int) -> int:
        """Way the policy wants to evict from ``set_index`` (invalid ways first)."""
        ways_valid = self._valid_scratch
        row = self._sets[set_index]
        for way in range(self.ways):
            ways_valid[way] = row[way] is not None
        return self.policy.victim(set_index, ways_valid)

    def evict(self, set_index: int, way: int) -> Optional[_StoredPage]:
        """Remove and return the occupant of ``(set_index, way)``."""
        entry = self._sets[set_index][way]
        if entry is not None:
            self._sets[set_index][way] = None
            self.locations.pop(entry.page, None)
        return entry

    def install(self, set_index: int, way: int, page: int, dirty: bool) -> _StoredPage:
        """Place ``page`` into ``(set_index, way)`` (the way must be free)."""
        # Both the frame record and its location tuple are retained until the
        # page is evicted, so neither can be pooled; installs happen per miss,
        # not per record.
        entry = _StoredPage(page)  # repro: allow[hotpath-alloc]
        entry.dirty = dirty
        self._sets[set_index][way] = entry
        self.locations[page] = (set_index, way)  # repro: allow[hotpath-alloc]
        self.policy.on_fill(set_index, way)
        return entry


class FifoPageStore:
    """Fully-associative page residency in FIFO insertion order."""

    __slots__ = ("capacity_pages", "entries")

    def __init__(self, capacity_pages: int) -> None:
        if capacity_pages <= 0:
            raise ValueError("in-package DRAM too small for a single page")
        self.capacity_pages = capacity_pages
        # OrderedDict doubles as the FIFO queue: insertion order is eviction
        # order.  The value is the page's dirty bit.  Not a plain dict (as the
        # SRAM cache sets are): popping the front of a dict of thousands of
        # pages leaves deleted slots there, which every later front lookup
        # skips until the next resize.
        self.entries: "OrderedDict[int, bool]" = OrderedDict()

    def is_resident(self, page: int) -> bool:
        """True when ``page`` is currently cached."""
        return page in self.entries

    def mark_dirty(self, page: int) -> None:
        """Record a write to resident ``page`` (no-op ordering-wise: FIFO)."""
        self.entries[page] = True

    def pop_victim_if_full(self) -> Optional[Tuple[int, bool]]:
        """Evict the oldest page when at capacity; returns ``(page, dirty)``."""
        if len(self.entries) >= self.capacity_pages:
            return self.entries.popitem(last=False)
        return None

    def insert(self, page: int, dirty: bool) -> None:
        """Append ``page`` to the FIFO (caller must have made room)."""
        self.entries[page] = dirty


class PageDirectory:
    """Page → way mapping plus dirty tracking (the PTE view of the cache)."""

    __slots__ = ("pages", "dirty")

    def __init__(self) -> None:
        self.pages: Dict[int, int] = {}
        self.dirty: Set[int] = set()

    def is_resident(self, page: int) -> bool:
        """True when ``page`` is currently cached."""
        return page in self.pages

    def way_of(self, page: int) -> int:
        """Way where ``page`` resides (page must be resident)."""
        return self.pages[page]

    def mark_dirty(self, page: int) -> None:
        """Record that the resident copy of ``page`` has been modified."""
        if page in self.pages:
            self.dirty.add(page)

    def fill(self, page: int, way: int, dirty: bool) -> None:
        """Record ``page`` as resident in ``way``."""
        self.pages[page] = way
        if dirty:
            self.dirty.add(page)

    def evict(self, page: int) -> bool:
        """Drop ``page``; returns whether its copy was dirty."""
        was_dirty = page in self.dirty
        self.dirty.discard(page)
        self.pages.pop(page, None)
        return was_dirty

    def occupancy(self) -> int:
        """Number of resident pages."""
        return len(self.pages)


class ResidentPageSet:
    """Unordered resident set whose membership is re-chosen at remap time."""

    __slots__ = ("pages", "dirty")

    def __init__(self) -> None:
        self.pages: Set[int] = set()
        self.dirty: Set[int] = set()

    def is_resident(self, page: int) -> bool:
        """True when ``page`` is currently in the in-package DRAM."""
        return page in self.pages

    def mark_dirty(self, page: int) -> None:
        """Record a write to resident ``page``."""
        self.dirty.add(page)

    def retarget(self, target: Set[int]) -> Tuple[Set[int], Set[int]]:
        """Replace the resident set with ``target``; returns (incoming, outgoing).

        Dirty bookkeeping for outgoing pages is the caller's responsibility
        (it must charge the writeback traffic before discarding the bit).
        """
        incoming = target - self.pages
        outgoing = self.pages - target
        self.pages = target
        return incoming, outgoing
