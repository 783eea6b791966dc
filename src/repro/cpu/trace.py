"""Memory trace representation.

A workload is a set of per-core record streams.  Each record represents a
short run of ``gap`` instructions whose last instruction is a memory access
to ``addr`` (read or write).  The gap distribution is how workload
generators control memory intensity (bytes per instruction), and the
address sequence is how they control spatial and temporal locality.

Streams move as :data:`TraceBatch` column batches — parallel
``(gaps, addrs, writes)`` lists — which is the one form every workload
produces and both engine modes read.  :class:`TraceRecord` (a NamedTuple,
so plain tuples under the hood) is the per-record view of the same stream:
:func:`flatten` turns batches into records for tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, NamedTuple, Tuple

#: One column batch: parallel ``(gaps, addrs, writes)`` lists of equal length.
TraceBatch = Tuple[List[int], List[int], List[bool]]


class TraceRecord(NamedTuple):
    """``gap`` instructions ending in one memory access."""

    gap: int
    addr: int
    is_write: bool


def flatten(batches: Iterable[TraceBatch]) -> Iterator[TraceRecord]:
    """Yield the records of ``batches`` one :class:`TraceRecord` at a time."""
    for gaps, addrs, writes in batches:
        yield from map(TraceRecord, gaps, addrs, writes)


@dataclass
class TraceStats:
    """Summary statistics of a trace (used by tests and workload validation)."""

    records: int = 0
    instructions: int = 0
    reads: int = 0
    writes: int = 0
    unique_pages: int = 0
    footprint_bytes: int = 0
    #: Highest address touched (0 for an empty trace) — the address *reach*,
    #: which bounds placement decisions the way a sparse footprint cannot.
    max_addr: int = 0

    @property
    def write_fraction(self) -> float:
        """Fraction of memory accesses that are writes."""
        total = self.reads + self.writes
        return self.writes / total if total else 0.0

    @property
    def accesses_per_kilo_instruction(self) -> float:
        """Memory accesses per 1000 instructions (memory intensity)."""
        if self.instructions == 0:
            return 0.0
        return 1000.0 * self.records / self.instructions


class TraceStream:
    """An iterator over trace records that tracks summary statistics."""

    def __init__(self, records: Iterable[TraceRecord], page_size: int = 4096) -> None:
        self._records = iter(records)
        self.page_size = page_size
        self.stats = TraceStats()
        self._pages: set = set()

    def __iter__(self) -> Iterator[TraceRecord]:
        return self

    def __next__(self) -> TraceRecord:
        record = next(self._records)
        self.stats.records += 1
        self.stats.instructions += record.gap
        if record.is_write:
            self.stats.writes += 1
        else:
            self.stats.reads += 1
        self._pages.add(record.addr // self.page_size)
        self.stats.unique_pages = len(self._pages)
        self.stats.footprint_bytes = self.stats.unique_pages * self.page_size
        if record.addr > self.stats.max_addr:
            self.stats.max_addr = record.addr
        return record


def summarize(records: Iterable[TraceRecord], page_size: int = 4096) -> TraceStats:
    """Consume a record iterable and return its summary statistics."""
    stream = TraceStream(records, page_size=page_size)
    for _record in stream:
        pass
    return stream.stats
