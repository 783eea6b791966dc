"""The Banshee tag buffer (Section 3.3).

One tag buffer sits in each memory controller and holds the mapping
information of recently remapped pages belonging to that controller.  It is
organised as a small set-associative structure keyed by physical page number.
Each entry carries:

* ``valid`` — the entry holds a useful mapping;
* ``cached`` / ``way`` — whether and where the page is in the DRAM cache;
* ``remap`` — the mapping is newer than what the page tables say.

Entries with ``remap=0`` duplicate the PTE contents; they exist only to
reduce tag probes for LLC dirty evictions and may be evicted at any time
(LRU among the non-remap entries).  Entries with ``remap=1`` must be retained
until the next batched PTE update, so if a set fills with remap entries the
controller must trigger a flush before it can accept another remap.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.util.bits import is_power_of_two


class TagBufferEntry:
    """One tag-buffer entry.

    A plain ``__slots__`` class (not a dataclass): entries are created on the
    demand hot path and mutated in place on every lookup, so dict-backed
    instances would cost space and time per resident mapping.
    """

    __slots__ = ("page", "cached", "way", "remap", "last_use")

    def __init__(self, page: int, cached: bool, way: int, remap: bool, last_use: int = 0) -> None:
        self.page = page
        self.cached = cached
        self.way = way
        self.remap = remap
        self.last_use = last_use

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TagBufferEntry(page={self.page!r}, cached={self.cached!r}, "
            f"way={self.way!r}, remap={self.remap!r}, last_use={self.last_use!r})"
        )


class TagBufferFullError(RuntimeError):
    """Raised when a remap entry cannot be inserted without a flush."""


class TagBuffer:
    """Set-associative tag buffer for one memory controller."""

    def __init__(self, num_entries: int = 1024, num_ways: int = 8) -> None:
        if num_entries <= 0 or num_ways <= 0:
            raise ValueError("num_entries and num_ways must be positive")
        if num_entries % num_ways != 0:
            raise ValueError("num_entries must be divisible by num_ways")
        num_sets = num_entries // num_ways
        if not is_power_of_two(num_sets):
            raise ValueError("tag buffer set count must be a power of two")
        self.num_entries = num_entries
        self.num_ways = num_ways
        self.num_sets = num_sets
        # ``BansheeCache.access`` inlines ``lookup`` against these three
        # fields (set index ``page & _set_mask``, LRU ``_clock``).
        self._sets: List[Dict[int, TagBufferEntry]] = [dict() for _ in range(num_sets)]
        self._set_mask = num_sets - 1
        self._clock = 0
        #: Entries whose remap bit is set.  Remap entries are never evicted,
        #: so only inserts raise the count and ``clear_remap_bits`` resets it.
        self._remap_count = 0
        self.lookups = 0
        self.hits = 0
        self.inserts = 0
        self.remap_inserts = 0

    # ------------------------------------------------------------------ operations

    def lookup(self, page: int) -> Optional[TagBufferEntry]:
        """Return the entry for ``page`` if present (updates LRU state)."""
        self.lookups += 1
        entry = self._sets[page & self._set_mask].get(page)
        if entry is not None:
            self.hits += 1
            self._clock += 1
            entry.last_use = self._clock
        return entry

    def insert(self, page: int, cached: bool, way: int, remap: bool) -> None:
        """Insert or update the mapping for ``page``.

        Raises:
            TagBufferFullError: a remap entry must be inserted but every way
                of the target set already holds a remap entry.  The caller
                must flush (batched PTE update) and retry.
        """
        bucket = self._sets[page & self._set_mask]
        existing = bucket.get(page)
        if existing is not None:
            existing.cached = cached
            existing.way = way
            self._clock += 1
            existing.last_use = self._clock
            if remap:
                if not existing.remap:
                    existing.remap = True
                    self._remap_count += 1
                self.remap_inserts += 1
            return

        if len(bucket) >= self.num_ways:
            victim = self._pick_victim(bucket)
            if victim is None:
                if not remap:
                    # A clean entry is merely an optimisation; drop it.
                    return
                raise TagBufferFullError(f"set {page & self._set_mask} has only remap entries")
            del bucket[victim.page]

        self._clock += 1
        # The entry is retained in the buffer until evicted or flushed, so it
        # cannot come from a reuse pool.  # repro: allow[hotpath-alloc]
        bucket[page] = TagBufferEntry(page=page, cached=cached, way=way, remap=remap, last_use=self._clock)
        self.inserts += 1
        if remap:
            self._remap_count += 1
            self.remap_inserts += 1

    def _pick_victim(self, bucket: Dict[int, TagBufferEntry]) -> Optional[TagBufferEntry]:
        """LRU among non-remap entries (remap entries are not evictable).

        A plain scan (no candidate list, no key lambda): this runs on the
        demand hot path whenever a set is full.  Ties keep the first-seen
        entry, matching ``min`` over the same iteration order.
        """
        victim: Optional[TagBufferEntry] = None
        for entry in bucket.values():
            if entry.remap:
                continue
            if victim is None or entry.last_use < victim.last_use:
                victim = entry
        return victim

    # ------------------------------------------------------------------ flush support

    def remap_entries(self) -> List[Tuple[int, bool, int]]:
        """All (page, cached, way) mappings not yet reflected in the PTEs."""
        updates = []
        for bucket in self._sets:
            for entry in bucket.values():
                if entry.remap:
                    updates.append((entry.page, entry.cached, entry.way))
        return updates

    def clear_remap_bits(self) -> int:
        """Mark every entry as consistent with the PTEs (after a flush).

        The mappings stay resident to keep serving dirty-eviction lookups
        (Section 3.4); only the remap bits are cleared.  Returns the number
        of entries affected.
        """
        cleared = 0
        for bucket in self._sets:
            for entry in bucket.values():
                if entry.remap:
                    entry.remap = False
                    cleared += 1
        self._remap_count = 0
        return cleared

    # ------------------------------------------------------------------ introspection

    @property
    def occupancy(self) -> int:
        """Number of valid entries."""
        return sum(len(bucket) for bucket in self._sets)

    @property
    def remap_count(self) -> int:
        """Number of entries whose mapping is newer than the PTEs."""
        return self._remap_count

    @property
    def remap_fraction(self) -> float:
        """Fraction of total capacity occupied by remap entries."""
        return self.remap_count / self.num_entries

    def __contains__(self, page: int) -> bool:
        return page in self._sets[page & self._set_mask]
