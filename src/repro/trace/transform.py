"""Trace-to-trace transforms.

Every transform streams records from a source ``.rtrace`` through a pure
per-record (or per-stream) function into a new file, so arbitrarily long
traces transform in constant memory.  Each output records its lineage in
``meta.source`` (operation, parameters, the source's provenance), which
``python -m repro.trace info`` prints — a transformed trace is always
auditable back to the capture that produced it.

The transforms compose the scenario space the generators cannot reach
directly: slice a long capture into a short one, interleave single-program
captures into new multi-programmed mixes (each slot rebased into its own
address slice, mirroring :class:`~repro.workloads.mixes.MixWorkload`),
fold a footprint down to stress a smaller cache, or isolate the read or
write stream of a workload.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from repro.cpu.trace import TraceRecord
from repro.trace.format import _GAP_MASK, TraceFormatError, TraceMeta, TraceReader, TraceWriter
from repro.util.units import GB

#: Default address-slice stride for interleaved mixes (the 1 GB slots of
#: :class:`~repro.workloads.mixes.MixWorkload`).
DEFAULT_SLICE_BYTES = GB


def _derived_meta(src: TraceMeta, name: Optional[str], operation: str, **params) -> TraceMeta:
    """Fresh metadata for a transform output (stats refill during writing)."""
    return TraceMeta(
        name=name if name is not None else src.name,
        num_cores=src.num_cores,
        page_size=src.page_size,
        mlp=src.mlp,
        footprint_bytes=src.footprint_bytes,
        seed=src.seed,
        source={"transform": operation, **params, "source": src.source},
    )


def slice_trace(
    src_path: str,
    dst_path: str,
    records: Optional[int] = None,
    instructions: Optional[int] = None,
    compress: bool = False,
    name: Optional[str] = None,
) -> TraceMeta:
    """Truncate every core's stream by record count and/or instruction budget."""
    if records is None and instructions is None:
        raise ValueError("provide records and/or instructions to slice by")
    if records is not None and records <= 0:
        raise ValueError("records must be positive")
    if instructions is not None and instructions <= 0:
        raise ValueError("instructions must be positive")
    reader = TraceReader(src_path)
    meta = _derived_meta(reader.meta, name, "slice", records=records, instructions=instructions)

    def limited(stream: Iterable[TraceRecord]) -> Iterator[TraceRecord]:
        executed = 0
        for record in stream:
            if instructions is not None and executed + record.gap > instructions:
                return
            executed += record.gap
            yield record

    with TraceWriter(dst_path, meta, compress=compress) as writer:
        for core_id in range(reader.num_cores):
            writer.write_stream(limited(reader.stream(core_id)), limit=records)
    return writer.meta


def remap_cores(
    src_path: str,
    dst_path: str,
    mapping: Sequence[int],
    compress: bool = False,
    name: Optional[str] = None,
) -> TraceMeta:
    """Build a trace whose core ``i`` replays source stream ``mapping[i]``.

    Duplicating a stream is allowed (two cores replaying identical accesses
    is a legitimate — and stressful — coherence scenario), as is dropping
    streams to carve a narrower machine out of a wide capture.
    """
    reader = TraceReader(src_path)
    if not mapping:
        raise ValueError("mapping must name at least one source stream")
    for stream_id in mapping:
        if not 0 <= stream_id < reader.num_cores:
            raise ValueError(
                f"mapping entry {stream_id} out of range for {reader.num_cores}-core trace"
            )
    meta = _derived_meta(reader.meta, name, "remap", mapping=list(mapping))
    meta.num_cores = len(mapping)
    with TraceWriter(dst_path, meta, compress=compress) as writer:
        for stream_id in mapping:
            writer.write_stream(reader.stream(stream_id))
    return writer.meta


def interleave_traces(
    src_paths: Sequence[str],
    dst_path: str,
    name: Optional[str] = None,
    slice_bytes: Optional[int] = DEFAULT_SLICE_BYTES,
    compress: bool = False,
) -> TraceMeta:
    """Concatenate the core streams of several traces into one multi-core mix.

    Output core slots follow the input order (all of trace 0's cores, then
    trace 1's, ...).  With ``slice_bytes`` set (the default: the same 1 GB
    slots :class:`~repro.workloads.mixes.MixWorkload` uses), every slot's
    addresses are rebased into a private slice so single-program captures
    combine into a multi-programmed mix without address collisions; pass
    ``None`` to keep original addresses (e.g. interleaving shared-memory
    captures of the same program).
    """
    if not src_paths:
        raise ValueError("at least one source trace is required")
    readers = [TraceReader(path) for path in src_paths]
    page_sizes = {reader.meta.page_size for reader in readers}
    if len(page_sizes) > 1:
        raise TraceFormatError(
            f"cannot interleave traces with different page sizes: {sorted(page_sizes)}"
        )
    if slice_bytes is not None:
        # Validate the address *reach* of every stream, not the (possibly
        # sparse) footprint: a capture whose addresses already sit above the
        # slice stride — any multi-core mix capture, for instance — would
        # otherwise land its rebased records inside a neighbouring slot.
        for reader in readers:
            for core_id in range(reader.num_cores):
                max_addr = reader.meta.core_stats[core_id].get("max_addr", 0)
                if max_addr >= slice_bytes:
                    raise TraceFormatError(
                        f"{reader.path}: core {core_id} addresses reach {max_addr}, "
                        f"past the {slice_bytes}-byte slot; raise slice_bytes, scale "
                        "the trace down, or pass slice_bytes=None to keep addresses"
                    )
    first = readers[0].meta
    slots = [(reader, core_id) for reader in readers for core_id in range(reader.num_cores)]
    meta = TraceMeta(
        name=name if name is not None else "+".join(reader.meta.name for reader in readers),
        num_cores=len(slots),
        page_size=first.page_size,
        mlp=sum(r.meta.mlp * r.num_cores for r in readers) / len(slots),
        footprint_bytes=sum(reader.meta.footprint_bytes for reader in readers),
        seed=first.seed,
        source={
            "transform": "interleave",
            "slice_bytes": slice_bytes,
            "sources": [
                {"path": reader.path, "digest": reader.digest, "source": reader.meta.source}
                for reader in readers
            ],
        },
    )
    with TraceWriter(dst_path, meta, compress=compress) as writer:
        for slot, (reader, core_id) in enumerate(slots):
            if slice_bytes is None:
                writer.write_stream(reader.stream(core_id))
            else:
                base = slot * slice_bytes
                writer.write_stream(
                    TraceRecord(record.gap, record.addr + base, record.is_write)
                    for record in reader.stream(core_id)
                )
    return writer.meta


def scale_footprint(
    src_path: str,
    dst_path: str,
    factor: float,
    compress: bool = False,
    name: Optional[str] = None,
) -> TraceMeta:
    """Scale the page-level footprint by ``factor``, preserving in-page offsets.

    Page numbers are multiplied by ``factor`` and truncated: a factor below
    one folds distinct pages together (shrinking the footprint and raising
    reuse — the cheap way to fit a captured workload into a smaller cache
    study), a factor above one spreads pages apart (shrinking reuse).
    Line-level locality inside each page is untouched.
    """
    if factor <= 0:
        raise ValueError("factor must be positive")
    reader = TraceReader(src_path)
    page_size = reader.meta.page_size
    meta = _derived_meta(reader.meta, name, "scale_footprint", factor=factor)
    meta.footprint_bytes = max(int(reader.meta.footprint_bytes * factor), page_size)
    with TraceWriter(dst_path, meta, compress=compress) as writer:
        for core_id in range(reader.num_cores):
            writer.write_stream(
                TraceRecord(
                    record.gap,
                    int(record.addr // page_size * factor) * page_size + record.addr % page_size,
                    record.is_write,
                )
                for record in reader.stream(core_id)
            )
    return writer.meta


def filter_accesses(
    src_path: str,
    dst_path: str,
    keep: str,
    compress: bool = False,
    name: Optional[str] = None,
) -> TraceMeta:
    """Keep only reads or only writes, preserving instruction counts.

    A dropped record's instruction gap is folded into the next kept record,
    so the filtered trace executes the same instructions with a thinner
    access stream (trailing dropped gaps at end-of-stream are lost).
    """
    if keep not in ("reads", "writes"):
        raise ValueError(f"keep must be 'reads' or 'writes', got {keep!r}")
    keep_writes = keep == "writes"
    reader = TraceReader(src_path)
    meta = _derived_meta(reader.meta, name, "filter", keep=keep)

    def filtered(stream: Iterable[TraceRecord]) -> Iterator[TraceRecord]:
        carried = 0
        for record in stream:
            if record.is_write != keep_writes:
                carried += record.gap
                continue
            yield TraceRecord(min(record.gap + carried, _GAP_MASK), record.addr, record.is_write)
            carried = 0

    with TraceWriter(dst_path, meta, compress=compress) as writer:
        for core_id in range(reader.num_cores):
            writer.write_stream(filtered(reader.stream(core_id)))
    return writer.meta
