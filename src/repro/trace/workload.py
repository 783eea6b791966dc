"""Replay a captured trace as a first-class :class:`Workload`.

A :class:`TraceWorkload` is resolvable everywhere a workload name is
accepted via the ``trace:<path>`` form (see
:func:`repro.workloads.registry.get_workload`), so captured traces flow
unchanged through ``SystemConfig`` presets, ``repro.campaign`` cells and
the figure functions.  Replay is bit-identical: the stored records and
workload attributes (name, mlp, page size) are exactly what the originating
generator produced, so the simulated results match the generator run field
for field.
"""

from __future__ import annotations

import os
from typing import Dict, Iterator, Optional

from repro.trace.format import TraceReader
from repro.workloads.base import TraceBatch, Workload


class TraceWorkload(Workload):
    """A workload whose per-core streams come from an ``.rtrace`` file.

    The path is resolved to an absolute path at construction and the object
    pickles down to that path plus nothing else — spawn-based campaign
    workers (whose working directory and module state are fresh) reopen the
    file themselves.  ``scale``/``seed`` knobs of generator workloads do not
    apply: a trace replays literally (``seed`` is reported from the capture
    metadata for provenance only).
    """

    def __init__(self, path: str, num_cores: Optional[int] = None,
                 page_size: Optional[int] = None) -> None:
        self.trace_path = os.path.abspath(path)
        if not os.path.exists(self.trace_path):
            raise ValueError(f"trace file not found: {path}")
        reader = TraceReader(self.trace_path)
        meta = reader.meta
        if num_cores is not None and num_cores != meta.num_cores:
            raise ValueError(
                f"trace {path} holds {meta.num_cores} core stream(s) but {num_cores} "
                f"cores were requested; run the simulation with num_cores="
                f"{meta.num_cores}, or build a matching trace with "
                f"'python -m repro.trace transform remap'"
            )
        if page_size is not None and page_size != meta.page_size:
            # A mismatch would split the simulated system: the page table,
            # TLBs and DRAM devices follow the workload's page size while the
            # DRAM-cache scheme follows the configured one.  Refuse rather
            # than mislabel a page-size study.
            raise ValueError(
                f"trace {path} was captured at page_size={meta.page_size} but "
                f"page_size={page_size} was requested; re-capture the workload "
                f"at that page size (python -m repro.trace record --page-size "
                f"{page_size} ...)"
            )
        super().__init__(
            name=meta.name,
            num_cores=meta.num_cores,
            footprint_bytes=max(meta.footprint_bytes, meta.page_size),
            mlp=meta.mlp,
            page_size=meta.page_size,
            seed=meta.seed,
        )
        self._reader: Optional[TraceReader] = reader

    # ------------------------------------------------------------------ replay

    @property
    def reader(self) -> TraceReader:
        if self._reader is None:  # re-opened lazily after unpickling
            self._reader = TraceReader(self.trace_path)
        return self._reader

    @property
    def meta(self):
        return self.reader.meta

    @property
    def records_per_core(self) -> int:
        """Records available on every core (the safe replay budget)."""
        return min(self.reader.record_counts)

    @property
    def max_records_per_core(self) -> int:
        """Finite bound the engine enforces (see :class:`Workload`)."""
        return self.records_per_core

    def trace_batches(self, core_id: int) -> Iterator[TraceBatch]:
        """Chunked column replay: one bulk decode per stored chunk."""
        return self.reader.stream_batches(core_id)

    def describe(self) -> Dict[str, object]:
        info = super().describe()
        info["trace_path"] = self.trace_path
        info["records_per_core"] = list(self.reader.record_counts)
        info["digest"] = self.reader.digest[:16]
        return info

    # ------------------------------------------------------------------ pickling

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state["_reader"] = None  # holds parsed footer state; workers reopen the file
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
