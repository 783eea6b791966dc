"""Tests for the trace capture / transform / replay subsystem."""

import itertools
import json
import os
import pickle

import pytest

from repro.cpu.trace import TraceRecord, summarize_streams
from repro.sim.config import SystemConfig
from repro.sim.engine import SimulationEngine
from repro.sim.system import System
from repro.trace import (
    TraceFormatError,
    TraceMeta,
    TraceReader,
    TraceWorkload,
    TraceWriter,
    filter_accesses,
    interleave_traces,
    read_meta,
    record_named,
    record_workload,
    remap_cores,
    scale_footprint,
    slice_trace,
    trace_digest,
)
from repro.trace.cli import main as trace_main
from repro.workloads.registry import get_workload

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_hotpath.json")


def capture(tmp_path, name="gcc", records=300, cores=2, scale=0.05, seed=1, compress=False,
            filename=None):
    path = str(tmp_path / (filename or f"{name}.rtrace"))
    meta = record_named(name, path, records_per_core=records, num_cores=cores,
                        scale=scale, seed=seed, compress=compress)
    return path, meta


def generator_records(name, core_id, count, cores=2, scale=0.05, seed=1):
    workload = get_workload(name, cores, scale=scale, seed=seed)
    return list(itertools.islice(workload.trace(core_id), count))


# --------------------------------------------------------------------- format


def test_round_trip_preserves_records_exactly(tmp_path):
    path, meta = capture(tmp_path, records=300)
    reader = TraceReader(path)
    assert reader.record_counts == [300, 300]
    for core_id in range(2):
        assert list(reader.stream(core_id)) == generator_records("gcc", core_id, 300)
    assert meta.records_per_core == [300, 300]
    assert meta.stats["records"] == 600


def test_compressed_round_trip_and_digest_invariance(tmp_path):
    raw_path, _ = capture(tmp_path, records=200, filename="raw.rtrace")
    zip_path, zip_meta = capture(tmp_path, records=200, compress=True, filename="zip.rtrace")
    assert zip_meta.compressed
    assert list(TraceReader(zip_path).stream(0)) == list(TraceReader(raw_path).stream(0))
    # The digest covers the uncompressed records, so compression is invisible.
    assert trace_digest(zip_path) == trace_digest(raw_path)
    assert os.path.getsize(zip_path) < os.path.getsize(raw_path)


def test_meta_round_trips_through_footer(tmp_path):
    path, meta = capture(tmp_path, name="mcf", records=150, cores=1)
    loaded = read_meta(path)
    assert loaded == meta
    assert loaded.name == "mcf"
    assert loaded.source["workload"] == "mcf"
    assert loaded.core_stats[0]["records"] == 150


def test_streams_can_be_consumed_interleaved(tmp_path):
    """The engine interleaves cores, so streams must not share file state."""
    path, _ = capture(tmp_path, records=100)
    reader = TraceReader(path)
    a, b = reader.stream(0), reader.stream(1)
    woven = [next(a), next(b), next(a), next(b)]
    assert woven[0::2] == generator_records("gcc", 0, 2)
    assert woven[1::2] == generator_records("gcc", 1, 2)


def test_reader_rejects_non_trace_files(tmp_path):
    bogus = tmp_path / "not_a_trace.rtrace"
    bogus.write_bytes(b"definitely not a trace" * 10)
    with pytest.raises(TraceFormatError, match="bad magic"):
        TraceReader(str(bogus))


def test_reader_rejects_truncated_capture(tmp_path):
    path = str(tmp_path / "trunc.rtrace")
    writer = TraceWriter(path, TraceMeta(name="x", num_cores=1))
    writer.write_stream([TraceRecord(1, 64, False)])
    # Never closed: the header's footer offset stays zero.
    writer._fh.flush()
    with pytest.raises(TraceFormatError, match="truncated"):
        TraceReader(path)


def test_writer_enforces_stream_count(tmp_path):
    path = str(tmp_path / "short.rtrace")
    writer = TraceWriter(path, TraceMeta(name="x", num_cores=2))
    writer.write_stream([TraceRecord(1, 64, False)])
    with pytest.raises(TraceFormatError, match="expected 2"):
        writer.close()


def test_writer_rejects_oversized_gap(tmp_path):
    path = str(tmp_path / "gap.rtrace")
    writer = TraceWriter(path, TraceMeta(name="x", num_cores=1))
    with pytest.raises(TraceFormatError, match="31-bit"):
        writer.write_stream([TraceRecord(1 << 31, 64, False)])


# --------------------------------------------------------------------- replay


def test_replay_is_bit_identical_to_generator(tmp_path):
    path, _ = capture(tmp_path, records=300)
    config = SystemConfig.tiny(scheme="banshee", num_cores=2, seed=1)
    generated = SimulationEngine(
        System(config, get_workload("gcc", 2, scale=0.05, seed=1))
    ).run(300)
    replayed = SimulationEngine(
        System(SystemConfig.tiny(scheme="banshee", num_cores=2, seed=1),
               get_workload(f"trace:{path}", 2))
    ).run(300)
    assert replayed.identity_dict() == generated.identity_dict()
    assert replayed.workload == "gcc"  # the capture's name, not the file's


def test_replay_matches_pinned_goldens(tmp_path):
    """Replaying a capture reproduces the golden results of the generator.

    The goldens pin the exact pre-refactor results (scaled preset), so this
    also pins that capture->replay introduces no drift anywhere in the
    record path.
    """
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        cells = json.load(fh)["cells"]
    for cell in cells:
        if cell["scheme"] not in ("banshee", "nocache"):
            continue
        path = str(tmp_path / f"{cell['workload']}.rtrace")
        record_named(cell["workload"], path, records_per_core=cell["records_per_core"],
                     num_cores=cell["num_cores"], scale=cell["scale"], seed=cell["seed"])
        config = SystemConfig.scaled_default(
            scheme=cell["scheme"], num_cores=cell["num_cores"], seed=cell["seed"]
        )
        workload = get_workload(f"trace:{path}", cell["num_cores"])
        result = SimulationEngine(System(config, workload)).run(cell["records_per_core"])
        assert json.loads(json.dumps(result.identity_dict())) == cell["result"]


def test_engine_rejects_budget_beyond_trace_length(tmp_path):
    """A trace that runs dry mid-simulation would silently skew warmup
    accounting and record counts; the engine refuses the budget up front."""
    path, _ = capture(tmp_path, records=100)
    workload = TraceWorkload(path)
    assert workload.max_records_per_core == 100
    assert get_workload("gcc", 2, scale=0.05).max_records_per_core is None
    engine = SimulationEngine(System(SystemConfig.tiny(num_cores=2), workload))
    with pytest.raises(ValueError, match="holds only 100 records"):
        engine.run(101)
    assert engine.run(100).memory_accesses == 200


def test_digest_covers_stream_boundaries_and_replay_meta(tmp_path):
    """Same flat records split differently across cores (or relabelled with
    a different mlp/page size) must not collide in the result store."""
    r1, r2, r3 = (TraceRecord(1, 64 * i, False) for i in (1, 2, 3))

    def write(filename, streams, **meta_fields):
        path = str(tmp_path / filename)
        fields = dict(name="x", num_cores=len(streams), page_size=4096, mlp=4.0)
        fields.update(meta_fields)
        writer = TraceWriter(path, TraceMeta(**fields))
        for stream in streams:
            writer.write_stream(stream)
        writer.close()
        return path

    split_a = write("a.rtrace", [[r1, r2], [r3]])
    split_b = write("b.rtrace", [[r1], [r2, r3]])
    assert trace_digest(split_a) != trace_digest(split_b)
    same_as_a = write("a2.rtrace", [[r1, r2], [r3]])
    assert trace_digest(same_as_a) == trace_digest(split_a)
    other_mlp = write("c.rtrace", [[r1, r2], [r3]], mlp=8.0)
    assert trace_digest(other_mlp) != trace_digest(split_a)


def test_trace_workload_pickles_and_replays(tmp_path):
    path, _ = capture(tmp_path, records=120)
    workload = TraceWorkload(path)
    clone = pickle.loads(pickle.dumps(workload))
    assert clone.name == workload.name
    assert list(clone.trace(1)) == list(workload.trace(1))


def test_trace_workload_rejects_core_mismatch(tmp_path):
    path, _ = capture(tmp_path, records=50, cores=2)
    with pytest.raises(ValueError, match="2 core stream"):
        TraceWorkload(path, num_cores=4)
    with pytest.raises(ValueError, match="not found"):
        TraceWorkload(str(tmp_path / "missing.rtrace"))


def test_trace_workload_rejects_page_size_mismatch(tmp_path):
    """A 4 KB capture must not masquerade as a 2 MB page-size study: the
    page table/TLBs would follow the trace while the cache followed the
    config."""
    path, _ = capture(tmp_path, records=50, cores=2)
    with pytest.raises(ValueError, match="captured at page_size=4096"):
        TraceWorkload(path, page_size=2 * 1024 * 1024)
    with pytest.raises(ValueError, match="captured at page_size=4096"):
        get_workload(f"trace:{path}", 2, page_size=8192)
    assert get_workload(f"trace:{path}", 2, page_size=4096).page_size == 4096


def test_writer_context_manager_removes_partial_file_on_error(tmp_path):
    path = str(tmp_path / "partial.rtrace")

    def failing_stream():
        yield TraceRecord(1, 64, False)
        raise RuntimeError("generator blew up")

    with pytest.raises(RuntimeError, match="blew up"):
        with TraceWriter(path, TraceMeta(name="x", num_cores=1)) as writer:
            writer.write_stream(failing_stream())
    assert not os.path.exists(path)


def test_registry_resolves_trace_names(tmp_path):
    path, _ = capture(tmp_path, records=50)
    workload = get_workload(f"trace:{path}", 2)
    assert isinstance(workload, TraceWorkload)
    assert workload.records_per_core == 50
    info = workload.describe()
    assert info["trace_path"] == os.path.abspath(path)


# ----------------------------------------------------------------- transforms


def test_slice_by_records(tmp_path):
    path, _ = capture(tmp_path, records=300)
    out = str(tmp_path / "sliced.rtrace")
    meta = slice_trace(path, out, records=75)
    assert meta.records_per_core == [75, 75]
    assert list(TraceReader(out).stream(0)) == generator_records("gcc", 0, 75)
    assert meta.source["transform"] == "slice"


def test_slice_by_instructions(tmp_path):
    path, _ = capture(tmp_path, records=300)
    out = str(tmp_path / "sliced.rtrace")
    budget = 500
    meta = slice_trace(path, out, instructions=budget)
    for stats in meta.core_stats:
        assert 0 < stats["instructions"] <= budget


def test_slice_requires_a_bound(tmp_path):
    path, _ = capture(tmp_path, records=50)
    with pytest.raises(ValueError, match="records and/or instructions"):
        slice_trace(path, str(tmp_path / "x.rtrace"))


def test_remap_duplicates_and_reorders_streams(tmp_path):
    path, _ = capture(tmp_path, records=60)
    out = str(tmp_path / "remap.rtrace")
    meta = remap_cores(path, out, [1, 1, 0])
    assert meta.num_cores == 3
    reader = TraceReader(out)
    core1 = generator_records("gcc", 1, 60)
    assert list(reader.stream(0)) == core1
    assert list(reader.stream(1)) == core1
    assert list(reader.stream(2)) == generator_records("gcc", 0, 60)
    with pytest.raises(ValueError, match="out of range"):
        remap_cores(path, out, [0, 5])


def test_interleave_builds_multiprogrammed_mix(tmp_path):
    a, _ = capture(tmp_path, name="gcc", records=80, cores=1, filename="a.rtrace")
    b, _ = capture(tmp_path, name="mcf", records=80, cores=1, filename="b.rtrace")
    out = str(tmp_path / "mix.rtrace")
    meta = interleave_traces([a, b], out, name="custom-mix")
    assert meta.name == "custom-mix"
    assert meta.num_cores == 2
    reader = TraceReader(out)
    slot0 = list(reader.stream(0))
    slot1 = list(reader.stream(1))
    # Slot 0 keeps its addresses, slot 1 is rebased into the next 1 GB slice
    # (the same disjoint-slice layout MixWorkload uses).
    assert slot0 == generator_records("gcc", 0, 80, cores=1)
    assert max(r.addr for r in slot0) < 1 << 30
    assert min(r.addr for r in slot1) >= 1 << 30
    originals = generator_records("mcf", 0, 80, cores=1)
    assert [r.addr - (1 << 30) for r in slot1] == [r.addr for r in originals]
    # The mix replays end to end as a first-class workload.
    config = SystemConfig.tiny(num_cores=2)
    result = SimulationEngine(System(config, TraceWorkload(out))).run(80)
    assert result.workload == "custom-mix"
    assert result.memory_accesses == 160


def test_interleave_rejects_streams_reaching_past_their_slot(tmp_path):
    """Address reach, not footprint, gates rebasing: a mix capture's core 1
    already lives at >= 1 GB, so rebasing it would collide with slot 2."""
    mix, _ = capture(tmp_path, name="mix1", records=40, cores=2, filename="mix.rtrace")
    other, _ = capture(tmp_path, name="gcc", records=40, cores=1, filename="g.rtrace")
    with pytest.raises(TraceFormatError, match="core 1 addresses reach"):
        interleave_traces([mix, other], str(tmp_path / "out.rtrace"))
    # Without rebasing the same inputs are fine.
    meta = interleave_traces([mix, other], str(tmp_path / "out.rtrace"), slice_bytes=None)
    assert meta.num_cores == 3


def test_interleave_rejects_mixed_page_sizes(tmp_path):
    a, _ = capture(tmp_path, records=20, cores=1, filename="a.rtrace")
    b = str(tmp_path / "b.rtrace")
    workload = get_workload("gcc", 1, scale=0.05, page_size=8192)
    record_workload(workload, b, records_per_core=20)
    with pytest.raises(TraceFormatError, match="page sizes"):
        interleave_traces([a, b], str(tmp_path / "mix.rtrace"))


def test_scale_footprint_folds_pages(tmp_path):
    path, meta = capture(tmp_path, records=300)
    out = str(tmp_path / "scaled.rtrace")
    scaled = scale_footprint(path, out, 0.25)
    assert scaled.stats["unique_pages"] < meta.stats["unique_pages"]
    # In-page offsets are preserved; record order and kinds are untouched.
    before = list(TraceReader(path).stream(0))
    after = list(TraceReader(out).stream(0))
    assert [(r.gap, r.is_write, r.addr % 4096) for r in before] == [
        (r.gap, r.is_write, r.addr % 4096) for r in after
    ]
    with pytest.raises(ValueError, match="factor"):
        scale_footprint(path, out, 0.0)


def test_filter_keeps_kind_and_instruction_counts(tmp_path):
    path, meta = capture(tmp_path, name="lbm", records=400, cores=1)
    reads = str(tmp_path / "reads.rtrace")
    writes = str(tmp_path / "writes.rtrace")
    reads_meta = filter_accesses(path, reads, "reads")
    writes_meta = filter_accesses(path, writes, "writes")
    assert reads_meta.stats["writes"] == 0
    assert writes_meta.stats["reads"] == 0
    assert reads_meta.stats["reads"] == meta.stats["reads"]
    assert writes_meta.stats["writes"] == meta.stats["writes"]
    # Dropped gaps fold into the next kept record: instruction totals match
    # up to the trailing run of dropped records.
    source = list(TraceReader(path).stream(0))
    kept_instructions = reads_meta.stats["instructions"]
    trailing = 0
    for record in reversed(source):
        if not record.is_write:
            break
        trailing += record.gap
    assert kept_instructions == meta.stats["instructions"] - trailing
    with pytest.raises(ValueError, match="keep"):
        filter_accesses(path, reads, "everything")


# ------------------------------------------------------------------ harnesses


def test_trace_workload_runs_through_campaign_by_name(tmp_path):
    from repro.campaign.driver import run_campaign
    from repro.campaign.spec import CampaignSpec, SweepGrid
    from repro.campaign.store import ResultStore

    path, _ = capture(tmp_path, records=200)
    spec = CampaignSpec(
        name="trace-campaign",
        grids=[SweepGrid(schemes=("banshee",), workloads=(f"trace:{path}",))],
        records_per_core=200,
        num_cores=2,
        preset="tiny",
        warmup_fraction=0.0,
    )
    store = ResultStore(str(tmp_path / "store"))
    report = run_campaign(spec, store=store)
    assert report.counts() == {"total": 1, "simulated": 1, "from_store": 0, "errors": 0}
    # Resumable: the second run serves the cell from the store.
    rerun = run_campaign(spec, store=store)
    assert rerun.counts()["from_store"] == 1
    # And matches the generator-built equivalent bit for bit.
    config = SystemConfig.tiny(scheme="banshee", num_cores=2, seed=1)
    generated = SimulationEngine(
        System(config, get_workload("gcc", 2, scale=0.05, seed=1))
    ).run(200)
    assert report.outcomes[0].result.identity_dict() == generated.identity_dict()


def test_trace_cells_survive_spawn_workers(tmp_path):
    """Spawn workers re-resolve trace cells from scratch (fresh cwd, fresh
    module state), so the cell must carry everything needed to reopen the
    file — the absolute path the spec normalisation bakes in."""
    from repro.campaign.executor import SerialExecutor
    from repro.campaign.spec import CampaignSpec, SweepGrid
    from repro.campaign.supervisor import SupervisedExecutor, SupervisorConfig

    path, _ = capture(tmp_path, records=120)
    spec = CampaignSpec(
        name="spawn-trace",
        grids=[SweepGrid(schemes=("nocache",), workloads=(f"trace:{os.path.relpath(path)}",))],
        records_per_core=120,
        num_cores=2,
        preset="tiny",
        warmup_fraction=0.0,
    )
    cells = spec.cells()
    assert cells[0].workload == f"trace:{path}"  # relative path absolutized
    serial = SerialExecutor().run(cells)
    spawned = SupervisedExecutor(
        workers=1, config=SupervisorConfig(mp_start_method="spawn")
    ).run(cells)
    assert spawned[0].ok, spawned[0].error
    assert serial[0].result.identity_dict() == spawned[0].result.identity_dict()


def test_campaign_spec_rejects_missing_trace_up_front(tmp_path):
    from repro.campaign.spec import CampaignSpec, SweepGrid

    with pytest.raises(ValueError, match="trace file not found"):
        SweepGrid(workloads=("trace:/nonexistent/x.rtrace",))
    with pytest.raises(ValueError, match="unknown workload"):
        SweepGrid(workloads=("not-a-workload",))
    # A trace too short for the budget, or captured at another core count or
    # page size, fails the spec before any cell runs instead of every cell.
    path, _ = capture(tmp_path, records=300, cores=2)
    grid = SweepGrid(workloads=(f"trace:{path}",))
    assert len(CampaignSpec(name="fits", grids=[grid], records_per_core=300).cells()) == 1
    with pytest.raises(ValueError, match="holds only 300 records per core"):
        CampaignSpec(name="short", grids=[grid], records_per_core=301).cells()
    with pytest.raises(ValueError, match="holds 2 core stream"):
        CampaignSpec(name="cores", grids=[grid], records_per_core=300, num_cores=4).cells()
    with pytest.raises(ValueError, match="holds 2 core stream"):
        CampaignSpec(name="preset", grids=[grid], records_per_core=300, preset="scaled").cells()
    paged = SweepGrid(workloads=(f"trace:{path}",), page_sizes=(8192,))
    with pytest.raises(ValueError, match="captured at page_size=4096"):
        CampaignSpec(name="paged", grids=[paged], records_per_core=300).cells()


def test_trace_cell_key_tracks_content_not_path(tmp_path):
    from repro.experiments.runner import simulation_cell_key

    path_a, _ = capture(tmp_path, records=50, filename="a.rtrace")
    path_b, _ = capture(tmp_path, records=50, filename="b.rtrace")
    path_c, _ = capture(tmp_path, records=60, filename="c.rtrace")
    config = SystemConfig.tiny()

    def key(path):
        return simulation_cell_key(config, f"trace:{path}", 50, 1.0, 1, 0.0)

    assert key(path_a) == key(path_b)  # same records, different path
    assert key(path_a) != key(path_c)  # different records


# ------------------------------------------------------------------------ CLI


def test_cli_record_info_transform_replay(tmp_path, capsys):
    path = str(tmp_path / "cli.rtrace")
    assert trace_main(["record", "--workload", "gcc", "--output", path,
                       "--records", "120", "--cores", "2", "--scale", "0.05"]) == 0
    assert trace_main(["info", path]) == 0
    out = capsys.readouterr().out
    assert "workload:     gcc" in out
    assert "240" in out

    assert trace_main(["info", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["meta"]["num_cores"] == 2

    sliced = str(tmp_path / "sliced.rtrace")
    assert trace_main(["transform", "slice", "--input", path, "--output", sliced,
                       "--records", "40"]) == 0
    assert TraceReader(sliced).record_counts == [40, 40]

    mix = str(tmp_path / "mix.rtrace")
    assert trace_main(["transform", "interleave", "--inputs", path, sliced,
                       "--output", mix, "--name", "climix"]) == 0
    assert read_meta(mix).num_cores == 4

    assert trace_main(["replay", sliced, "--scheme", "banshee", "--preset", "tiny"]) == 0
    assert "ipc" in capsys.readouterr().out


def test_cli_reports_errors_as_exit_code_2(tmp_path, capsys):
    assert trace_main(["record", "--workload", "nope", "--output",
                       str(tmp_path / "x.rtrace")]) == 2
    assert "unknown workload" in capsys.readouterr().err
    assert trace_main(["info", str(tmp_path / "missing.rtrace")]) == 2
    path = str(tmp_path / "ok.rtrace")
    trace_main(["record", "--workload", "gcc", "--output", path,
                "--records", "30", "--cores", "1", "--scale", "0.05"])
    capsys.readouterr()
    assert trace_main(["replay", path, "--scheme", "bogus"]) == 2
    assert "unknown scheme" in capsys.readouterr().err
    assert trace_main(["replay", path, "--records", "500"]) == 2
    assert "30 records" in capsys.readouterr().err


# -------------------------------------------------------- multi-core stats


def test_summarize_streams_counts_shared_pages_once():
    streams = [
        [TraceRecord(10, 0, False), TraceRecord(5, 4096, True)],
        [TraceRecord(2, 0, False), TraceRecord(3, 8192, False)],
    ]
    combined, per_core = summarize_streams(streams, page_size=4096)
    assert [stats.records for stats in per_core] == [2, 2]
    assert [stats.unique_pages for stats in per_core] == [2, 2]
    assert combined.records == 4
    assert combined.instructions == 20
    assert combined.reads == 3
    assert combined.writes == 1
    assert combined.unique_pages == 3  # page 0 is shared between the cores
    assert combined.footprint_bytes == 3 * 4096


def test_capture_stats_match_summarize_streams(tmp_path):
    path, meta = capture(tmp_path, name="pagerank", records=200)
    workload = get_workload("pagerank", 2, scale=0.05, seed=1)
    combined, per_core = summarize_streams(
        [itertools.islice(workload.trace(core_id), 200) for core_id in range(2)]
    )
    assert meta.stats["records"] == combined.records
    assert meta.stats["unique_pages"] == combined.unique_pages
    # Graph state is shared: the union footprint is smaller than the sum.
    assert combined.unique_pages < sum(stats.unique_pages for stats in per_core)
    assert [stats["records"] for stats in meta.core_stats] == [200, 200]


def test_stream_batches_round_trips_capture(tmp_path):
    """Column batches must replay the stored streams exactly, per chunk.

    Both the raw and the compressed layout go through the same one-shot
    struct decode; concatenated columns must equal the generator's stream.
    """
    for compress in (False, True):
        path, _ = capture(tmp_path, records=300, compress=compress,
                          filename=f"cols-{compress}.rtrace")
        reader = TraceReader(path)
        for core_id in range(reader.num_cores):
            expected = [tuple(r) for r in generator_records("gcc", core_id, 300)]
            got = []
            for gaps, addrs, writes in reader.stream_batches(core_id):
                assert len(gaps) == len(addrs) == len(writes) > 0
                got.extend(zip(gaps, addrs, writes))
            assert got == expected


def test_trace_workload_batches_match_trace(tmp_path):
    """TraceWorkload.trace_batches replays exactly the captured generator stream."""
    path, _ = capture(tmp_path, records=250)
    workload = TraceWorkload(path)
    for core_id in range(workload.num_cores):
        expected = [tuple(r) for r in generator_records("gcc", core_id, 250)]
        got = []
        for gaps, addrs, writes in workload.trace_batches(core_id):
            got.extend(zip(gaps, addrs, writes))
        assert got == expected


def test_batch_engine_replays_trace_workload(tmp_path):
    """A captured trace replayed through the batch engine matches scalar."""
    path, _ = capture(tmp_path, records=400)
    results = {}
    for mode in ("scalar", "batch"):
        config = SystemConfig.scaled_default(scheme="banshee", num_cores=2)
        engine = SimulationEngine(System(config, TraceWorkload(path)), mode=mode)
        results[mode] = engine.run(400, warmup_records_per_core=100).identity_dict()
    assert results["batch"] == results["scalar"]
