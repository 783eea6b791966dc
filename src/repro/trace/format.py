"""The ``.rtrace`` packed binary trace format.

Layout (all integers little-endian)::

    +-----------------------------------------------------------------+
    | magic "RTRC" (4) | version u16 | flags u16 | footer_offset u64  |
    +-----------------------------------------------------------------+
    | core 0 stream: chunk, chunk, ...                                |
    | core 1 stream: chunk, chunk, ...                                |
    | ...                                                             |
    +-----------------------------------------------------------------+
    | footer: length u32 | JSON {meta, index, digest}                 |
    +-----------------------------------------------------------------+

Each *chunk* is ``n_records u32 | payload_bytes u32 | payload``, where the
payload packs ``n_records`` records of 12 bytes each: a u32 word holding the
instruction gap (bit 31 = is_write) followed by the u64 address.  With the
compression flag set the payload is zlib-compressed; chunks stay
independently decodable either way, which is what makes both capture and
replay streamable — a million-record trace is never fully materialised.

The footer's ``index`` maps each core to ``(offset, nbytes, nrecords)`` so
per-core streams can be opened independently (the simulation engine
interleaves cores, so every stream gets its own file handle).  ``digest``
is a SHA-256 over the *uncompressed* packed records in core order plus the
replay-relevant metadata (name, core count, page size, mlp, per-core
record counts): two traces that replay identically share a digest
regardless of compression, while any difference a simulation could observe
changes it.  The campaign result store uses the digest as the workload
identity of a ``trace:`` cell (see
:func:`repro.experiments.runner.simulation_cell_key`).

The header keeps a fixed-offset ``footer_offset`` slot (patched on close)
rather than trailing magic so a truncated capture is detected loudly: an
unpatched offset of zero means the writer never completed.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import zlib
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.cpu.trace import TraceBatch, TraceRecord, TraceStats, TraceStream, combine_stats, flatten

MAGIC = b"RTRC"
FORMAT_VERSION = 1
FLAG_COMPRESSED = 1

_HEADER = struct.Struct("<4sHHQ")
_CHUNK_HEADER = struct.Struct("<II")
_RECORD = struct.Struct("<IQ")
_WRITE_BIT = 1 << 31
_GAP_MASK = _WRITE_BIT - 1

#: Records packed per chunk (96 KB raw) — small enough to stream, large
#: enough that the per-chunk Python overhead is negligible.
CHUNK_RECORDS = 8192


class TraceFormatError(ValueError):
    """Raised when a file is not a valid (or complete) ``.rtrace``."""


@dataclass
class TraceMeta:
    """Everything a replay needs to stand in for the original workload.

    ``name``/``mlp``/``page_size``/``footprint_bytes``/``seed`` mirror the
    originating :class:`~repro.workloads.base.Workload` so a replayed
    simulation is indistinguishable from a generated one (including the
    ``workload`` field of its results).  ``source`` records provenance —
    generator build parameters for a capture, the operation lineage for a
    transform — purely for humans (``python -m repro.trace info``).
    """

    name: str
    num_cores: int
    page_size: int = 4096
    mlp: float = 6.0
    footprint_bytes: int = 0
    seed: int = 1
    source: Dict[str, object] = field(default_factory=dict)
    compressed: bool = False
    records_per_core: List[int] = field(default_factory=list)
    #: Combined multi-core summary (unique pages counted across cores).
    stats: Dict[str, object] = field(default_factory=dict)
    core_stats: List[Dict[str, object]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "TraceMeta":
        from repro.util.serde import dataclass_from_dict

        return dataclass_from_dict(cls, payload)


def pack_records(records: List[TraceRecord]) -> bytes:
    """Pack records into the 12-byte wire form (write bit folded into gap)."""
    flat: List[int] = []
    for gap, addr, is_write in records:
        if not 0 <= gap <= _GAP_MASK:
            raise TraceFormatError(f"gap {gap} does not fit the 31-bit wire field")
        if addr < 0:
            raise TraceFormatError(f"negative address {addr}")
        flat.append(gap | _WRITE_BIT if is_write else gap)
        flat.append(addr)
    return struct.pack("<" + "IQ" * len(records), *flat)


# Chunk-sized Struct objects, keyed by record count.  Nearly every chunk
# holds exactly CHUNK_RECORDS records, so this dict stays tiny (the final
# short chunk of each core stream adds at most one entry per length).
_COLUMN_STRUCTS: Dict[int, struct.Struct] = {}


def unpack_columns(payload: bytes) -> TraceBatch:
    """Inverse of :func:`pack_records`: decode a chunk into one column batch.

    One ``struct.unpack`` call decodes the whole chunk, which is what makes
    ``.rtrace`` replay cheap enough to feed the engines at full speed.
    """
    count = len(payload) // _RECORD.size
    decoder = _COLUMN_STRUCTS.get(count)
    if decoder is None:
        decoder = _COLUMN_STRUCTS[count] = struct.Struct("<" + "IQ" * count)
    flat = decoder.unpack(payload)
    words = flat[0::2]
    gaps = [word & _GAP_MASK for word in words]
    addrs = list(flat[1::2])
    writes = [word >= _WRITE_BIT for word in words]
    return gaps, addrs, writes


class TraceWriter:
    """Stream a trace to disk, one core at a time, in core order.

    Usage::

        writer = TraceWriter(path, meta)
        for core_id in range(meta.num_cores):
            writer.write_stream(workload.trace(core_id), limit=records)
        meta = writer.close()

    ``write_stream`` consumes lazily in :data:`CHUNK_RECORDS` batches and
    gathers per-core :class:`~repro.cpu.trace.TraceStats` (plus the
    cross-core page union) as a side effect, so the finished file is
    self-describing without a second pass.

    Usable as a context manager: leaving the block normally calls
    :meth:`close`; leaving it on an exception closes the handle and removes
    the partial file instead.
    """

    def __init__(self, path: str, meta: TraceMeta, compress: bool = False) -> None:
        self.path = path
        self.meta = meta
        self.compress = compress
        self._fh = open(path, "wb")
        self._fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, FLAG_COMPRESSED if compress else 0, 0))
        self._index: List[Tuple[int, int, int]] = []
        self._digest = hashlib.sha256()
        self._all_pages: set = set()
        self._per_core_stats: List[TraceStats] = []
        self._closed = False

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            # Abort: never leave an open handle or a half-written file behind
            # (the unpatched footer offset would mark it truncated anyway).
            self._fh.close()
            self._closed = True
            try:
                os.unlink(self.path)
            except OSError:
                pass
            return
        self.close()

    def write_stream(self, records: Iterable[TraceRecord], limit: Optional[int] = None) -> TraceStats:
        """Write the next core's stream (cores must be written in order)."""
        if self._closed:
            raise TraceFormatError("writer already closed")
        if len(self._index) >= self.meta.num_cores:
            raise TraceFormatError(f"trace already holds {self.meta.num_cores} core streams")
        offset = self._fh.tell()
        stream = TraceStream(records, page_size=self.meta.page_size)
        written = 0
        chunk: List[TraceRecord] = []
        for record in stream:
            chunk.append(record)
            written += 1
            if len(chunk) >= CHUNK_RECORDS:
                self._write_chunk(chunk)
                chunk = []
            if limit is not None and written >= limit:
                break
        if chunk:
            self._write_chunk(chunk)
        self._index.append((offset, self._fh.tell() - offset, written))
        self._all_pages |= stream.pages
        self._per_core_stats.append(stream.stats)
        self.meta.records_per_core.append(written)
        self.meta.core_stats.append(asdict(stream.stats))
        return stream.stats

    def _write_chunk(self, chunk: List[TraceRecord]) -> None:
        raw = pack_records(chunk)
        self._digest.update(raw)
        payload = zlib.compress(raw) if self.compress else raw
        self._fh.write(_CHUNK_HEADER.pack(len(chunk), len(payload)))
        self._fh.write(payload)

    def close(self) -> TraceMeta:
        """Finish the file: write the footer and patch the header offset."""
        if self._closed:
            return self.meta
        if len(self._index) != self.meta.num_cores:
            self._fh.close()
            raise TraceFormatError(
                f"expected {self.meta.num_cores} core streams, got {len(self._index)}"
            )
        meta = self.meta
        meta.compressed = self.compress
        meta.stats = asdict(combine_stats(self._per_core_stats, self._all_pages, meta.page_size))
        # Fold everything replay-relevant beyond the raw records into the
        # digest: the per-core record counts (the same flat record sequence
        # split differently across cores interleaves differently), and the
        # workload attributes that shape the simulated timing (mlp) or the
        # simulated system (page_size, num_cores) or the reported results
        # (name).  Provenance fields (seed, source) stay out — they do not
        # change what a replay computes.
        identity = (
            f"|{meta.name}|{meta.num_cores}|{meta.page_size}|{meta.mlp!r}"
            f"|{','.join(str(count) for count in meta.records_per_core)}"
        )
        self._digest.update(identity.encode("utf-8"))
        footer_offset = self._fh.tell()
        footer = json.dumps(
            {"meta": meta.to_dict(), "index": self._index, "digest": self._digest.hexdigest()},
            sort_keys=True,
        ).encode("utf-8")
        self._fh.write(struct.pack("<I", len(footer)))
        self._fh.write(footer)
        self._fh.seek(_HEADER.size - 8)
        self._fh.write(struct.pack("<Q", footer_offset))
        self._fh.close()
        self._closed = True
        return meta


class TraceReader:
    """Random access to an ``.rtrace`` file's metadata and per-core streams."""

    def __init__(self, path: str) -> None:
        self.path = path
        with open(path, "rb") as fh:
            header = fh.read(_HEADER.size)
            if len(header) < _HEADER.size:
                raise TraceFormatError(f"{path}: too short to be a trace file")
            magic, version, flags, footer_offset = _HEADER.unpack(header)
            if magic != MAGIC:
                raise TraceFormatError(f"{path}: bad magic {magic!r} (not an .rtrace file)")
            if version != FORMAT_VERSION:
                raise TraceFormatError(
                    f"{path}: format version {version} unsupported (reader supports {FORMAT_VERSION})"
                )
            if footer_offset == 0:
                raise TraceFormatError(f"{path}: truncated trace (capture never completed)")
            fh.seek(footer_offset)
            (footer_len,) = struct.unpack("<I", fh.read(4))
            footer = json.loads(fh.read(footer_len).decode("utf-8"))
        self.compressed = bool(flags & FLAG_COMPRESSED)
        self.meta = TraceMeta.from_dict(footer["meta"])
        self.index: List[Tuple[int, int, int]] = [tuple(entry) for entry in footer["index"]]
        self.digest: str = footer["digest"]

    @property
    def num_cores(self) -> int:
        return self.meta.num_cores

    @property
    def record_counts(self) -> List[int]:
        return [entry[2] for entry in self.index]

    def stream_batches(self, core_id: int) -> Iterator[TraceBatch]:
        """Lazily yield ``core_id``'s records as per-chunk column batches.

        Each stored chunk becomes one batch via a single bulk decode.  Each
        call opens its own file handle, so all cores' streams can be
        consumed concurrently (the engine interleaves cores by local clock).
        """
        if not 0 <= core_id < self.num_cores:
            raise ValueError(f"core_id {core_id} out of range for {self.num_cores}-core trace")
        offset, _nbytes, nrecords = self.index[core_id]
        compressed = self.compressed
        with open(self.path, "rb") as fh:
            fh.seek(offset)
            remaining = nrecords
            while remaining > 0:
                nrec, payload_len = _CHUNK_HEADER.unpack(fh.read(_CHUNK_HEADER.size))
                payload = fh.read(payload_len)
                if compressed:
                    payload = zlib.decompress(payload)
                yield unpack_columns(payload)
                remaining -= nrec

    def stream(self, core_id: int) -> Iterator[TraceRecord]:
        """Lazily yield ``core_id``'s records (a flatten of :meth:`stream_batches`)."""
        return flatten(self.stream_batches(core_id))


def read_meta(path: str) -> TraceMeta:
    """Parse just the metadata of a trace file (cheap: header + footer)."""
    return TraceReader(path).meta


def trace_digest(path: str) -> str:
    """Content digest of a trace file (identical records => identical digest)."""
    return TraceReader(path).digest
