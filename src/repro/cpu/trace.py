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
