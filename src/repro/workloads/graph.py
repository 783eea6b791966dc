"""Graph-analytics workloads.

The paper's throughput-computing workloads are the graph benchmarks of the
IMP paper (pagerank, triangle counting, graph500 BFS, SGD, LSH).  They are
reproduced here as *algorithm-driven* trace generators: each workload builds
a synthetic graph (or rating matrix / dataset) in CSR-like numpy arrays and
then emits the memory accesses a straightforward implementation would issue —
sequential reads of the index and edge arrays, data-dependent reads (and
writes) of per-vertex state.  The result has the paper's qualitative
signature for these codes: very high memory intensity, a streaming component
with good spatial locality and an irregular component with poor locality,
shared data across all cores.

Memory layout per workload instance (all cores share it):

* ``offsets``  — 8 B per vertex (CSR row pointers),
* ``edges``    — 8 B per edge (CSR column indices),
* ``vertex A`` — 8 B per vertex (e.g. current PageRank value),
* ``vertex B`` — 8 B per vertex (e.g. next PageRank value / visited flags).

Degree sequences are built once per process: :func:`_degree_sequence`
keeps the last :data:`_DEGREE_SEQUENCES` of them, keyed by
``(seed, num_vertices, avg_degree)``, as read-only arrays that every
workload instance with that key shares (so pagerank and graph500, both
``(2**18, 4)``, share one).  A sequence pins 16 B per vertex, so the cache
holds at most 16 MB at scale 1.0 and 10 MB for one seed's Figure-4 graph
set.  The sweep's prefix sums are computed per block of vertices
(:meth:`GraphWorkload.trace_batches`), so a core pays for the part of its
sweep it reads.
"""

from __future__ import annotations

import functools
from typing import Iterator, Tuple

import numpy as np

from repro.cpu.trace import TraceRecord
from repro.workloads.base import BATCH_RECORDS, TraceBatch, Workload

_WORD = 8

#: Degree sequences the process keeps: one seed's Figure-4 graph set
#: (pagerank/graph500, tri_count, sgd, lsh) is four.
_DEGREE_SEQUENCES = 4


@functools.lru_cache(maxsize=_DEGREE_SEQUENCES)
def _degree_sequence(seed: int, num_vertices: int,
                     avg_degree: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(degrees, offsets)`` of the synthetic graph, read-only and shared.

    A pure function of its arguments whose arrays no caller can write, so
    sharing one result between workload instances cannot change any
    instance's records.
    """
    rng = np.random.default_rng(seed)
    raw = rng.pareto(2.0, size=num_vertices) + 1.0
    degrees = np.maximum(1, (raw / raw.mean() * avg_degree)).astype(np.int64)
    offsets = np.concatenate(([0], np.cumsum(degrees)))
    degrees.flags.writeable = False
    offsets.flags.writeable = False
    return degrees, offsets


class GraphWorkload(Workload):
    """Base class for CSR-graph-driven workloads."""

    #: Per-workload knobs overridden by subclasses.
    mean_gap = 12.0
    write_fraction_hint = 0.1
    default_mlp = 7.0
    vertex_order = "sequential"  # or "random"
    neighbor_reads_per_edge = 1
    writes_per_vertex = 1
    #: Skew of neighbour popularity at page granularity (hot-vertex locality).
    target_page_alpha = 0.8

    def __init__(
        self,
        name: str,
        num_cores: int,
        num_vertices: int = 1 << 18,
        avg_degree: int = 4,
        scale: float = 1.0,
        seed: int = 1,
        page_size: int = 4096,
    ) -> None:
        if num_vertices <= 0 or avg_degree <= 0:
            raise ValueError("num_vertices and avg_degree must be positive")
        self.num_vertices = max(1024, int(num_vertices * scale))
        self.avg_degree = avg_degree
        num_edges = self.num_vertices * avg_degree
        footprint = (2 * self.num_vertices + num_edges + self.num_vertices) * _WORD
        super().__init__(
            name,
            num_cores,
            footprint_bytes=footprint,
            mlp=self.default_mlp,
            page_size=page_size,
            seed=seed,
        )
        self._graph_built = False
        self._offsets: np.ndarray = None
        self._degrees: np.ndarray = None
        self._target_cdf: np.ndarray = None

        # Region bases (byte addresses), page aligned.
        self.offsets_base = 0
        self.edges_base = self._align(self.offsets_base + self.num_vertices * _WORD)
        self.vertex_a_base = self._align(self.edges_base + num_edges * _WORD)
        self.vertex_b_base = self._align(self.vertex_a_base + self.num_vertices * _WORD)
        self.vertices_per_page = max(1, self.page_size // _WORD)
        self.num_vertex_pages = (self.num_vertices + self.vertices_per_page - 1) // self.vertices_per_page

    def _align(self, addr: int) -> int:
        return (addr + self.page_size - 1) // self.page_size * self.page_size

    # ------------------------------------------------------------------ graph construction

    def _build_graph(self) -> None:
        """Fetch the degree sequence; edge targets are drawn on the fly.

        A power-law-ish degree distribution concentrates edge-list traffic on
        a few hot vertices, giving the temporal locality structure real graph
        workloads show.  ``_degrees`` and ``_offsets`` come read-only from
        the process-wide :func:`_degree_sequence` cache (at most
        :data:`_DEGREE_SEQUENCES` sequences of 16 B per vertex); the
        neighbour CDF (at most 512 pages at scale 1.0) is this instance's.
        """
        if self._graph_built:
            return
        self._degrees, self._offsets = _degree_sequence(
            self.seed, self.num_vertices, self.avg_degree)
        # Neighbour popularity is skewed at page granularity: real graphs have
        # hub vertices, and vertex state arrays are laid out so that hot
        # vertices cluster on hot pages.  A Zipf distribution over vertex
        # pages captures exactly the page-level temporal locality the DRAM
        # cache replacement policies compete on.
        ranks = np.arange(1, self.num_vertex_pages + 1, dtype=np.float64)
        weights = ranks ** (-self.target_page_alpha)
        self._target_cdf = np.cumsum(weights / weights.sum())
        self._graph_built = True

    def _vertex_targets(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Data-dependent neighbour ids, skewed towards hot vertex pages."""
        pages = np.searchsorted(self._target_cdf, rng.random(count))
        within = rng.integers(0, self.vertices_per_page, size=count)
        return np.minimum(pages * self.vertices_per_page + within, self.num_vertices - 1)

    # ------------------------------------------------------------------ per-core trace

    def _vertex_range(self, core_id: int) -> range:
        chunk = self.num_vertices // self.num_cores
        start = core_id * chunk
        end = self.num_vertices if core_id == self.num_cores - 1 else start + chunk
        return range(start, end)

    def _vertex_iter(self, core_id: int, rng: np.random.Generator) -> Iterator[int]:
        vertices = self._vertex_range(core_id)
        while True:
            if self.vertex_order == "sequential":
                for vertex in vertices:
                    yield vertex
            else:
                order = rng.permutation(len(vertices))
                for index in order:
                    yield vertices[0] + int(index)

    def trace(self, core_id: int) -> Iterator[TraceRecord]:
        """The readable per-record reference for :meth:`trace_batches`.

        One straightforward loop over the vertex sweep, kept so the
        vectorized column builder has an oracle to match record for record
        (``tests/test_workloads.py`` checks it across sweep ends).  The
        engines never call it; they read :meth:`trace_batches`.
        """
        self._build_graph()
        rng = self.rng_for_core(core_id).generator
        gap = max(1, int(self.mean_gap))
        target_pool: np.ndarray = self._vertex_targets(rng, 4096)
        pool_index = 0
        for vertex in self._vertex_iter(core_id, rng):
            degree = int(self._degrees[vertex])
            # Read the CSR row pointer (sequential over the offsets array).
            yield TraceRecord(gap, self.offsets_base + vertex * _WORD, False)
            edge_start = int(self._offsets[vertex])
            needed = degree * self.neighbor_reads_per_edge
            if pool_index + needed > len(target_pool):
                target_pool = self._vertex_targets(rng, max(4096, needed))
                pool_index = 0
            for edge in range(degree):
                # Read the edge list entry (sequential within the row).
                yield TraceRecord(gap, self.edges_base + (edge_start + edge) * _WORD, False)
                for _ in range(self.neighbor_reads_per_edge):
                    neighbor = int(target_pool[pool_index])
                    pool_index += 1
                    # Data-dependent read of the neighbour's state.
                    yield TraceRecord(gap, self.vertex_a_base + neighbor * _WORD, False)
            for _ in range(self.writes_per_vertex):
                # Update this vertex's state.
                yield TraceRecord(gap, self.vertex_b_base + vertex * _WORD, True)

    def trace_batches(self, core_id: int) -> Iterator[TraceBatch]:
        """The workload's stream: the exact record sequence of :meth:`trace`.

        Builds whole chunks of the per-vertex record pattern
        ``[row-pointer read][edge read, neighbour read(s)]*degree[write]*W``
        with vectorized numpy scatter-assignments instead of constructing one
        :class:`TraceRecord` per access.  The RNG draw schedule is replicated
        exactly (the same pool draws at the same vertices, the same
        permutation per random-order sweep), so the stream is
        record-for-record identical to :meth:`trace`; the workload tests pin
        this.

        Chunks are cut at vertex boundaries (so they can run slightly past
        ``BATCH_RECORDS``), at pool-refill points and at sweep ends;
        consumers accept any chunk sizes.

        Prefix sums cover a block of ``4 * BATCH_RECORDS`` vertices of the
        sweep, not the whole sweep, and each block serves chunk after
        chunk.  Searches run relative to the block's start.  A chunk holds
        at most ``BATCH_RECORDS`` records plus the vertex that crosses that
        mark, and every vertex emits at least two records, so a chunk spans
        at most ``BATCH_RECORDS // 2 + 1`` vertices: while that many remain
        in the block (or the block ends the sweep), the crossing vertex and
        every pool fit the chunk can use lie inside it, and the searches
        give the whole-sweep answer.  With fewer left, the block is rebuilt
        from the current vertex.
        """
        self._build_graph()
        rng = self.rng_for_core(core_id).generator
        gap = max(1, int(self.mean_gap))
        reads = self.neighbor_reads_per_edge
        writes_per_vertex = self.writes_per_vertex
        rec_per_edge = 1 + reads
        degrees = self._degrees
        offsets = self._offsets
        vertex_range = self._vertex_range(core_id)
        sweep_base = vertex_range[0]
        sweep_len = len(vertex_range)
        sequential = self.vertex_order == "sequential"
        block_len = 4 * BATCH_RECORDS
        reach = BATCH_RECORDS // 2 + 1
        # trace() draws the initial pool before the first vertex.
        pool = self._vertex_targets(rng, 4096)
        pool_index = 0
        while True:
            # One sweep over this core's vertex slice, mirroring _vertex_iter
            # (the permutation draw happens at the same point in the RNG
            # stream as the generator's).
            order = None if sequential else rng.permutation(sweep_len)
            position = block_start = block_end = 0
            while position < sweep_len:
                if block_end < sweep_len and block_end - position < reach:
                    block_start = position
                    block_end = min(sweep_len, position + block_len)
                    if order is None:
                        verts_block = np.arange(sweep_base + block_start, sweep_base + block_end,
                                                dtype=np.int64)
                    else:
                        verts_block = sweep_base + order[block_start:block_end].astype(np.int64)
                    d_block = degrees[verts_block]
                    cum_needed = np.concatenate(([0], np.cumsum(d_block * reads)))
                    cum_records = np.concatenate(
                        ([0], np.cumsum(1 + d_block * rec_per_edge + writes_per_vertex))
                    )
                at = position - block_start
                # Vertices that fit the remaining pool (trace() refills when
                # a vertex's draws would run past the pool end).
                fit = int(np.searchsorted(
                    cum_needed, cum_needed[at] + (len(pool) - pool_index), side="right"
                )) - 1 - at
                if fit <= 0:
                    pool = self._vertex_targets(rng, max(4096, int(d_block[at]) * reads))
                    pool_index = 0
                    continue
                # Cap the chunk at the vertex that crosses BATCH_RECORDS.
                count = int(np.searchsorted(
                    cum_records, cum_records[at] + BATCH_RECORDS, side="left"
                )) - at
                if count < 1:
                    count = 1
                if count > fit:
                    count = fit
                verts = verts_block[at:at + count]
                d = d_block[at:at + count]
                total = int(cum_records[at + count] - cum_records[at])
                starts = cum_records[at:at + count] - cum_records[at]
                edge_cum = np.concatenate(([0], np.cumsum(d)))
                num_edges = int(edge_cum[-1])
                addr = np.empty(total, dtype=np.int64)
                flag = np.zeros(total, dtype=bool)
                # Row-pointer reads, one per vertex.
                addr[starts] = self.offsets_base + verts * _WORD
                if num_edges:
                    vertex_of_edge = np.repeat(np.arange(count), d)
                    edge_rank = np.arange(num_edges) - edge_cum[vertex_of_edge]
                    pos_edge = starts[vertex_of_edge] + 1 + edge_rank * rec_per_edge
                    edge_index = offsets[verts][vertex_of_edge] + edge_rank
                    addr[pos_edge] = self.edges_base + edge_index * _WORD
                    if reads:
                        draws = pool[pool_index:pool_index + num_edges * reads]
                        neighbors = draws.reshape(num_edges, reads)
                        for read in range(reads):
                            addr[pos_edge + 1 + read] = (
                                self.vertex_a_base + neighbors[:, read] * _WORD
                            )
                        pool_index += num_edges * reads
                if writes_per_vertex:
                    write_starts = starts + 1 + d * rec_per_edge
                    write_addr = self.vertex_b_base + verts * _WORD
                    for write in range(writes_per_vertex):
                        addr[write_starts + write] = write_addr
                        flag[write_starts + write] = True
                position += count
                yield [gap] * total, addr.tolist(), flag.tolist()


class PageRankWorkload(GraphWorkload):
    """PageRank: sequential sweeps with random neighbour-value reads."""

    mean_gap = 8.0
    default_mlp = 8.0
    vertex_order = "sequential"
    neighbor_reads_per_edge = 1
    writes_per_vertex = 1
    target_page_alpha = 1.0

    def __init__(self, num_cores: int, scale: float = 1.0, seed: int = 1, page_size: int = 4096) -> None:
        super().__init__("pagerank", num_cores, num_vertices=1 << 18, avg_degree=4,
                         scale=scale, seed=seed, page_size=page_size)


class TriangleCountWorkload(GraphWorkload):
    """Triangle counting: many irregular adjacency intersections per vertex."""

    mean_gap = 8.0
    default_mlp = 7.0
    vertex_order = "sequential"
    neighbor_reads_per_edge = 2
    writes_per_vertex = 0
    target_page_alpha = 1.0

    def __init__(self, num_cores: int, scale: float = 1.0, seed: int = 1, page_size: int = 4096) -> None:
        super().__init__("tri_count", num_cores, num_vertices=1 << 17, avg_degree=6,
                         scale=scale, seed=seed, page_size=page_size)


class Graph500Bfs(GraphWorkload):
    """Graph500 BFS: random frontier order, visited-flag updates."""

    mean_gap = 9.0
    default_mlp = 6.0
    vertex_order = "random"
    neighbor_reads_per_edge = 1
    writes_per_vertex = 1
    target_page_alpha = 0.9

    def __init__(self, num_cores: int, scale: float = 1.0, seed: int = 1, page_size: int = 4096) -> None:
        super().__init__("graph500", num_cores, num_vertices=1 << 18, avg_degree=4,
                         scale=scale, seed=seed, page_size=page_size)


class SgdWorkload(GraphWorkload):
    """Matrix-factorisation SGD: streaming ratings, random factor rows, writes."""

    mean_gap = 14.0
    default_mlp = 6.0
    vertex_order = "random"
    neighbor_reads_per_edge = 1
    writes_per_vertex = 2
    target_page_alpha = 1.0

    def __init__(self, num_cores: int, scale: float = 1.0, seed: int = 1, page_size: int = 4096) -> None:
        super().__init__("sgd", num_cores, num_vertices=1 << 17, avg_degree=8,
                         scale=scale, seed=seed, page_size=page_size)


class LshWorkload(GraphWorkload):
    """Locality-sensitive hashing: streaming points, random hash-bucket probes."""

    mean_gap = 16.0
    default_mlp = 6.0
    vertex_order = "sequential"
    neighbor_reads_per_edge = 1
    writes_per_vertex = 0
    target_page_alpha = 0.9

    def __init__(self, num_cores: int, scale: float = 1.0, seed: int = 1, page_size: int = 4096) -> None:
        super().__init__("lsh", num_cores, num_vertices=1 << 17, avg_degree=5,
                         scale=scale, seed=seed, page_size=page_size)
