"""Workload interface.

A workload describes, for each simulated core, a stream of short
instruction runs ending in one memory access, produced as column batches
(:data:`repro.cpu.trace.TraceBatch`) by :meth:`Workload.trace_batches` —
the one stream method every workload implements and both engine modes
read.  :meth:`Workload.trace` flattens it into
:class:`repro.cpu.trace.TraceRecord` objects for
tests.  The same workload object always produces the same streams (seeded
generation), so different DRAM-cache schemes are compared on identical
instruction and access streams, which is what makes the speedup
comparisons of Figure 4 meaningful.

Workloads carry two pieces of timing advice for the core model:

* ``mlp`` — how many outstanding LLC misses the workload typically sustains
  (streaming codes overlap many; pointer chasing overlaps few);
* ``page_size`` — 4 KB normally, 2 MB for the large-page experiments.
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod
from typing import Dict, Iterator

from repro.cpu.trace import TraceBatch, TraceRecord, flatten
from repro.util.rng import DeterministicRng

#: Records per column batch produced by :meth:`Workload.trace_batches`.
#: Large enough to amortise per-batch overhead, small enough that a batch
#: of three Python lists stays cache- and memory-friendly.
BATCH_RECORDS = 4096


class Workload(ABC):
    """Base class for all workload generators."""

    def __init__(
        self,
        name: str,
        num_cores: int,
        footprint_bytes: int,
        mlp: float = 6.0,
        page_size: int = 4096,
        seed: int = 1,
    ) -> None:
        if num_cores <= 0:
            raise ValueError("num_cores must be positive")
        if footprint_bytes <= 0:
            raise ValueError("footprint_bytes must be positive")
        if mlp < 1.0:
            raise ValueError("mlp must be >= 1")
        self.name = name
        self.num_cores = num_cores
        self.footprint_bytes = footprint_bytes
        self.mlp = mlp
        self.page_size = page_size
        self.seed = seed

    @abstractmethod
    def trace_batches(self, core_id: int) -> Iterator[TraceBatch]:
        """Yield ``core_id``'s records as flat ``(gaps, addrs, writes)`` columns.

        Batches may be any positive length.  This is the workload's one
        stream: both engine modes read it, and :meth:`trace` flattens it.
        """

    def trace(self, core_id: int) -> Iterator[TraceRecord]:
        """Yield ``core_id``'s records one :class:`TraceRecord` at a time.

        A flatten of :meth:`trace_batches`, for consumers that want records
        (tests); the engines read the batches.
        """
        return flatten(self.trace_batches(core_id))

    def rng_for_core(self, core_id: int) -> DeterministicRng:
        """Deterministic RNG stream for one core of this workload.

        Seeded with a CRC32 of (name, seed, core_id) rather than ``hash()``:
        Python's string hash is randomised per interpreter (PYTHONHASHSEED),
        which would make traces differ between processes and break both the
        campaign store's resumability contract and spawn-based parallel
        execution matching the serial path.
        """
        token = f"{self.name}|{self.seed}|{core_id}".encode("utf-8")
        return DeterministicRng(zlib.crc32(token) & 0x7FFFFFFF)

    def describe(self) -> Dict[str, object]:
        """Human-readable summary used by examples and reports."""
        return {
            "name": self.name,
            "cores": self.num_cores,
            "footprint_mb": round(self.footprint_bytes / (1 << 20), 1),
            "page_size": self.page_size,
            "mlp": self.mlp,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.name!r}, cores={self.num_cores})"
