"""Unit tests for the workload generators."""

import itertools

import pytest

from repro.workloads import graph
from repro.workloads.graph import Graph500Bfs, PageRankWorkload
from repro.workloads.mixes import MIX_DEFINITIONS, MixWorkload
from repro.workloads.registry import EVALUATION_WORKLOADS, available_workloads, get_workload
from repro.workloads.spec import SPEC_PARAMS, SpecWorkload
from repro.workloads.synthetic import (
    PointerChasePattern,
    StreamPattern,
    ZipfPagePattern,
)
from repro.util.rng import DeterministicRng


def take(workload, core_id, count):
    return list(itertools.islice(workload.trace(core_id), count))


def test_registry_covers_evaluation_workloads():
    names = available_workloads()
    for workload in EVALUATION_WORKLOADS:
        assert workload in names


def test_registry_builds_each_kind():
    for name in ("pagerank", "mcf", "mix1"):
        workload = get_workload(name, num_cores=2, scale=0.1)
        records = take(workload, 0, 50)
        assert len(records) == 50


def test_registry_rejects_unknown():
    with pytest.raises(ValueError):
        get_workload("nonsense", num_cores=2)


def test_registry_error_lists_names():
    with pytest.raises(ValueError) as excinfo:
        get_workload("nonsense", num_cores=2)
    message = str(excinfo.value)
    for name in ("pagerank", "mcf", "mix1"):
        assert name in message


def test_validate_workload_name():
    from repro.workloads.registry import validate_workload_name

    validate_workload_name("pagerank")
    with pytest.raises(ValueError, match="unknown workload"):
        validate_workload_name("nonsense")
    with pytest.raises(ValueError, match="unknown workload"):
        validate_workload_name("trace:/nonexistent/x.rtrace")


def test_traces_are_deterministic_per_seed():
    a = get_workload("mcf", num_cores=2, scale=0.1, seed=3)
    b = get_workload("mcf", num_cores=2, scale=0.1, seed=3)
    assert take(a, 1, 200) == take(b, 1, 200)
    c = get_workload("mcf", num_cores=2, scale=0.1, seed=4)
    assert take(a, 1, 200) != take(c, 1, 200)


def test_cores_have_distinct_streams():
    workload = get_workload("omnetpp", num_cores=2, scale=0.1)
    assert take(workload, 0, 100) != take(workload, 1, 100)


def test_spec_cores_use_disjoint_regions():
    workload = SpecWorkload("mcf", num_cores=2, scale=0.2)
    records0 = take(workload, 0, 500)
    records1 = take(workload, 1, 500)
    max0 = max(record.addr for record in records0)
    min1 = min(record.addr for record in records1)
    assert max0 < workload.per_core_footprint
    assert min1 >= workload.per_core_footprint


def test_spec_write_fraction_approximates_parameter():
    records = take(SpecWorkload("lbm", num_cores=1, scale=0.2), 0, 4000)
    write_fraction = sum(record.is_write for record in records) / len(records)
    assert write_fraction == pytest.approx(SPEC_PARAMS["lbm"]["write_fraction"], abs=0.08)


def test_spec_streaming_benchmark_has_more_spatial_locality_than_pointer_chasing():
    def unique_page_ratio(name):
        records = take(SpecWorkload(name, num_cores=1, scale=0.2), 0, 4000)
        return len({record.addr // 4096 for record in records}) / len(records)

    assert unique_page_ratio("lbm") < unique_page_ratio("omnetpp")


def test_graph_workload_addresses_stay_in_footprint():
    workload = PageRankWorkload(num_cores=2, scale=0.1)
    records = take(workload, 0, 2000)
    limit = workload.vertex_b_base + workload.num_vertices * 8 + 4096
    assert all(0 <= record.addr < limit for record in records)
    assert any(record.is_write for record in records)
    assert any(not record.is_write for record in records)


def test_graph_workload_shared_across_cores():
    workload = PageRankWorkload(num_cores=2, scale=0.1)
    pages0 = {record.addr // 4096 for record in take(workload, 0, 2000)}
    pages1 = {record.addr // 4096 for record in take(workload, 1, 2000)}
    assert pages0 & pages1, "graph data (vertex state) must be shared between cores"


def test_mix_assignment_matches_table4():
    workload = MixWorkload("mix1", num_cores=4)
    assert workload.assignment == MIX_DEFINITIONS["mix1"][:4]
    info = workload.describe()
    assert info["assignment"] == workload.assignment


def test_mix_cores_live_in_disjoint_gigabyte_slices():
    workload = MixWorkload("mix2", num_cores=2, scale=0.1)
    records0 = take(workload, 0, 300)
    records1 = take(workload, 1, 300)
    assert max(r.addr for r in records0) < 1 << 30
    assert min(r.addr for r in records1) >= 1 << 30


def test_mix_assignment_wraps_when_cores_exceed_definition():
    """More cores than Table 4 entries: the benchmark list wraps around."""
    benchmarks = MIX_DEFINITIONS["mix1"]
    num_cores = len(benchmarks) + 2
    workload = MixWorkload("mix1", num_cores=num_cores, scale=0.05)
    assert workload.assignment == [benchmarks[core % len(benchmarks)] for core in range(num_cores)]
    assert workload.assignment[len(benchmarks)] == benchmarks[0]
    # The wrapped instance re-runs the same benchmark with a distinct seed,
    # so its trace differs from core 0's even before rebasing...
    first = take(workload, 0, 100)
    wrapped = take(workload, len(benchmarks), 100)
    assert [r.addr % (1 << 30) for r in first] != [r.addr % (1 << 30) for r in wrapped]
    # ...and every core still lives in its own 1 GB slice.
    assert all(r.addr >= len(benchmarks) * (1 << 30) for r in wrapped)
    assert all(r.addr < (1 << 30) for r in first)


def test_mix_rejects_unknown_name():
    with pytest.raises(ValueError):
        MixWorkload("mix99", num_cores=2)


def test_spec_rejects_unknown_benchmark():
    with pytest.raises(ValueError):
        SpecWorkload("doom", num_cores=2)


# --------------------------------------------------------------------------- synthetic patterns


def test_stream_pattern_is_sequential():
    pattern = StreamPattern(0, 1 << 20)
    rng = DeterministicRng(1).generator
    addrs = pattern.addresses(rng, 100)
    deltas = addrs[1:] - addrs[:-1]
    assert (deltas >= 0).all() or (deltas <= 0).sum() <= 1


def test_stream_pattern_wraps_around():
    pattern = StreamPattern(0, 4096)
    rng = DeterministicRng(1).generator
    addrs = pattern.addresses(rng, 200)
    assert addrs.max() < 4096


def test_zipf_pattern_is_skewed():
    pattern = ZipfPagePattern(0, 1 << 22, zipf_alpha=1.0, burst_lines=1)
    rng = DeterministicRng(1).generator
    addrs = pattern.addresses(rng, 5000)
    pages = [addr // 4096 for addr in addrs]
    counts = sorted((pages.count(page) for page in set(pages)), reverse=True)
    top_share = sum(counts[:10]) / len(pages)
    assert top_share > 0.15, "a zipf pattern must concentrate accesses on few pages"


def test_zipf_pattern_respects_region():
    pattern = ZipfPagePattern(1 << 30, 1 << 20, burst_lines=4)
    rng = DeterministicRng(1).generator
    addrs = pattern.addresses(rng, 1000)
    assert addrs.min() >= 1 << 30
    assert addrs.max() < (1 << 30) + (1 << 20)


def test_pointer_chase_covers_region():
    pattern = PointerChasePattern(0, 1 << 20)
    rng = DeterministicRng(1).generator
    addrs = pattern.addresses(rng, 2000)
    assert len(set(addr // 4096 for addr in addrs)) > 100


# ------------------------------------------------------------- column batches


def batch_records(workload, core_id, count):
    """First ``count`` records of the column-batch stream, as tuples."""
    records = []
    for gaps, addrs, writes in workload.trace_batches(core_id):
        records.extend(zip(gaps, addrs, writes))
        if len(records) >= count:
            break
    return records[:count]


@pytest.mark.parametrize("name", [
    "gcc",        # SPEC generator (trace() flattens its batches)
    "mcf",
    "pagerank",   # graph generators (vectorized batches vs per-record reference)
    "tri_count",
    "graph500",   # random vertex order: permutation draws must line up
    "sgd",
    "lsh",
    "mix1",       # mix: per-member page-size plumbing
])
def test_trace_batches_replays_trace_exactly(name):
    """trace_batches must yield exactly the records trace() yields, in order.

    For the graph workloads trace() is the readable per-record reference
    the vectorized column builder must match; for the others it is the
    base-class flatten of trace_batches, so those cases pin the flatten.
    """
    count = 6000
    for cores in (1, 2):
        source = get_workload(name, cores, scale=0.02, seed=5)
        batched = get_workload(name, cores, scale=0.02, seed=5)
        for core_id in range(cores):
            expected = [(r.gap, r.addr, r.is_write) for r in take(source, core_id, count)]
            got = [(g, a, bool(w)) for g, a, w in batch_records(batched, core_id, count)]
            assert got == expected, f"{name} core {core_id} diverged"


def test_trace_batches_chunks_are_column_aligned():
    """Each chunk's three columns must agree in length and be non-empty."""
    workload = get_workload("pagerank", 1, scale=0.01, seed=2)
    seen = 0
    for gaps, addrs, writes in workload.trace_batches(0):
        assert len(gaps) == len(addrs) == len(writes) > 0
        seen += len(gaps)
        if seen > 20000:
            break
    assert seen > 20000


@pytest.mark.parametrize("name", ["pagerank", "tri_count", "graph500", "sgd", "lsh"])
def test_graph_batches_match_reference_across_sweeps(name):
    """The vectorized graph builder matches trace() across sweep ends.

    At scale 0.001 (1,024 vertices) two full sweeps of every core's vertex
    slice plus 100 records reach a sweep end, a fresh random-order
    permutation (graph500, sgd) and, with three cores, the last core's
    extra vertex.
    """
    for cores in (1, 3):
        workload = get_workload(name, cores, scale=0.001, seed=5)
        assert workload.num_vertices == 1024
        workload._build_graph()
        records_per_vertex = (
            1
            + workload._degrees * (1 + workload.neighbor_reads_per_edge)
            + workload.writes_per_vertex
        )
        for core_id in range(cores):
            vertices = workload._vertex_range(core_id)
            sweep = int(records_per_vertex[vertices.start:vertices.stop].sum())
            count = 2 * sweep + 100
            expected = [(r.gap, r.addr, r.is_write) for r in take(workload, core_id, count)]
            got = [(g, a, bool(w)) for g, a, w in batch_records(workload, core_id, count)]
            assert len(got) == count
            assert got == expected, f"{name} core {core_id} of {cores} diverged"


def reference_chunk_lengths(workload, records, sweep_len, batch):
    """Chunk lengths of the whole-sweep rule, replayed over ``records``.

    A chunk ends at the vertex that takes it to ``batch`` records, before
    a vertex whose neighbour draws overrun the pool (the refill), and at a
    sweep end.  Vertices are read off the records: each starts with its
    row-pointer read, and its edge reads give its degree.
    """
    lengths, chunk, pool = [], 0, 4096
    starts = [i for i, (_, addr, _) in enumerate(records) if addr < workload.edges_base]
    for vertex, (start, end) in enumerate(zip(starts, starts[1:])):
        degree = sum(1 for _, addr, _ in records[start:end]
                     if workload.edges_base <= addr < workload.vertex_a_base)
        needed = degree * workload.neighbor_reads_per_edge
        if chunk and (vertex % sweep_len == 0 or needed > pool):
            lengths.append(chunk)
            chunk = 0
        if needed > pool:
            pool = max(4096, needed)
        pool -= needed
        chunk += end - start
        if chunk >= batch:
            lengths.append(chunk)
            chunk = 0
    return lengths


@pytest.mark.parametrize("name", ["pagerank", "tri_count", "graph500", "sgd", "lsh"])
def test_graph_batches_match_reference_across_block_edges(name, monkeypatch):
    """The per-block prefix sums give the whole-sweep stream and chunks.

    At 64 records per chunk a block is 256 vertices and is rebuilt once
    fewer than 33 remain, so every sweep of every core's slice (873 to
    5,242 vertices at scale 0.02) crosses at least three block edges; pool
    refills (every 4,096 neighbour draws) land inside blocks and sweeps.
    Two sweeps plus 100 records also reach a sweep end inside a block.
    Chunk boundaries must be the whole-sweep rule's too, which a block
    rebuilt too late (a chunk search cut short at the block's end) breaks.
    """
    monkeypatch.setattr(graph, "BATCH_RECORDS", 64)
    for cores in (1, 3):
        workload = get_workload(name, cores, scale=0.02, seed=5)
        workload._build_graph()
        records_per_vertex = (
            1
            + workload._degrees * (1 + workload.neighbor_reads_per_edge)
            + workload.writes_per_vertex
        )
        for core_id in range(cores):
            vertices = workload._vertex_range(core_id)
            assert len(vertices) > 3 * 256
            sweep = int(records_per_vertex[vertices.start:vertices.stop].sum())
            count = 2 * sweep + 100
            expected = [(r.gap, r.addr, r.is_write) for r in take(workload, core_id, count)]
            got = [(g, a, bool(w)) for g, a, w in batch_records(workload, core_id, count)]
            assert len(got) == count
            assert got == expected, f"{name} core {core_id} of {cores} diverged"
            reference = reference_chunk_lengths(workload, expected, len(vertices), 64)
            chunks = [len(gaps) for gaps, _, _ in
                      itertools.islice(workload.trace_batches(core_id), len(reference))]
            assert chunks == reference, f"{name} core {core_id} of {cores} chunked differently"


def test_graph_degree_sequences_are_shared_and_read_only():
    """pagerank and graph500 share one cached ``(2**18, 4)`` degree sequence,
    and no instance can write to it."""
    pagerank = PageRankWorkload(num_cores=2, scale=0.1, seed=3)
    bfs = Graph500Bfs(num_cores=4, scale=0.1, seed=3)
    pagerank._build_graph()
    bfs._build_graph()
    assert pagerank._degrees is bfs._degrees
    assert pagerank._offsets is bfs._offsets
    with pytest.raises(ValueError):
        pagerank._degrees[0] = 1
    with pytest.raises(ValueError):
        bfs._offsets[0] = 1
    other_seed = PageRankWorkload(num_cores=2, scale=0.1, seed=4)
    other_seed._build_graph()
    assert other_seed._degrees is not pagerank._degrees
