"""Hot-path regression tests.

Covers the three guarantees of the allocation-free record pipeline:

* engine reuse is safe (per-run counter reset — the warmup/budget bug),
* warmup is excluded from *every* reported statistic (the
  ``begin_measurement`` snapshot bug for scheme/hierarchy stats),
* the fast path is bit-identical to the pre-refactor implementation
  (golden results captured from the original composed-API pipeline).
"""

import json
import os

import pytest

from repro.cache.hierarchy import CacheHierarchy
from repro.sim.config import SCHEMES, CacheLevelConfig, SystemConfig
from repro.sim.engine import ENGINE_MODES, SimulationEngine
from repro.sim.system import System
from repro.util.rng import DeterministicRng
from repro.workloads.registry import get_workload

from conftest import CONFIGURATIONS, build_config

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_hotpath.json")
WRITE_PATHS_GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_write_paths.json")


def make_engine(scheme="banshee", workload="gcc", num_cores=2, scale=0.05, seed=1):
    config = SystemConfig.tiny(scheme=scheme, num_cores=num_cores, seed=seed)
    return SimulationEngine(System(config, get_workload(workload, num_cores, scale=scale, seed=seed)))


# ---------------------------------------------------------------- engine reuse


def test_engine_reuse_resets_per_run_counter():
    engine = make_engine()
    engine.run(100)
    assert engine.records_processed == 200  # 2 cores x 100 records
    assert engine.total_records_processed == 200
    engine.run(150)
    assert engine.records_processed == 300  # per-run, not cumulative
    assert engine.total_records_processed == 500


def test_engine_reuse_does_not_exhaust_total_budget():
    """A reused engine used to hit ``max_total_records`` before record one."""
    engine = make_engine()
    engine.run(100)
    second = engine.run(100, max_total_records=150)
    assert engine.records_processed == 150
    # The shared System keeps simulating across runs (no snapshot between
    # runs without warmup), so the result covers both runs' records.
    assert second.memory_accesses == 200 + 150


def test_engine_reuse_does_not_mistime_warmup():
    """A reused engine used to trip the warmup threshold immediately.

    With the bug, ``records_processed`` carried over from the first run, so
    ``begin_measurement`` fired on the second run's first record and the
    "measured" window silently included the warmup records.
    """
    engine = make_engine()
    engine.run(100)
    result = engine.run(100, warmup_records_per_core=60)
    # 2 cores x (100 - 60) post-warmup records, one memory access each.
    assert result.memory_accesses == 80


# ----------------------------------------------------- warmup stat consistency


def test_warmup_excludes_hierarchy_and_scheme_stats():
    """hierarchy_stats/scheme_stats must be post-warmup deltas like the rest."""
    engine = make_engine(workload="mcf", scale=0.05)
    result = engine.run(400, warmup_records_per_core=200)
    hier = result.hierarchy_stats
    # Every post-warmup record makes exactly one L1 access, so the L1
    # hit+miss total must equal the post-warmup access count.  Before the
    # fix these counters covered the whole run (warmup included).
    assert hier["l1_hits"] + hier["l1_misses"] == result.memory_accesses
    assert hier["l1_misses"] == hier["l2_hits"] + hier["l2_misses"]
    # Scheme counters must agree with the (already deltaed) top-level ones.
    assert result.scheme_stats.get("dram_cache_hits", 0) == result.dram_cache_hits
    assert result.scheme_stats.get("dram_cache_misses", 0) == result.dram_cache_misses


def test_no_warmup_stats_unchanged():
    """Without warmup the deltas equal the whole-run totals."""
    engine = make_engine(workload="mcf", scale=0.05)
    result = engine.run(400)
    hier = result.hierarchy_stats
    assert hier["l1_hits"] + hier["l1_misses"] == result.memory_accesses
    assert result.scheme_stats.get("dram_cache_hits", 0) == result.dram_cache_hits


# ------------------------------------------------------- fast-path equivalence


def _reference_walk(hierarchy, core_id, addr, is_write):
    """The walk rebuilt from per-level ``SramCache.access``/``fill`` calls.

    L1 access; a dirty L1 victim fills L2; a dirty L2 victim fills L3; a
    dirty L3 victim becomes a writeback; then the L2 access and the L3
    access, whose dirty victims go down the same way.
    """
    l1, l2, l3 = hierarchy.l1[core_id], hierarchy.l2[core_id], hierarchy.l3
    writebacks = []

    def into_l3(victim):
        if victim is not None and victim.dirty:
            evicted = l3.fill(victim.addr, dirty=True)
            if evicted is not None and evicted.dirty:
                writebacks.append((evicted.addr, evicted.dirty))

    result = l1.access(addr, is_write)
    if result.hit:
        return "l1", False, writebacks
    if result.eviction is not None and result.eviction.dirty:
        into_l3(l2.fill(result.eviction.addr, dirty=True))
    result = l2.access(addr, is_write)
    if result.hit:
        return "l2", False, writebacks
    into_l3(result.eviction)
    result = l3.access(addr, is_write)
    if result.hit:
        return "l3", False, writebacks
    if result.eviction is not None and result.eviction.dirty:
        writebacks.append((result.eviction.addr, result.eviction.dirty))
    return "memory", True, writebacks


def _levels(hierarchy):
    return hierarchy.l1 + hierarchy.l2 + [hierarchy.l3]


def _level_state(cache):
    """Everything the walk writes on one level: counters and ordered set contents."""
    return (
        cache.name,
        cache.hits,
        cache.misses,
        cache.dirty_evictions,
        [list(bucket.items()) for bucket in cache._sets],
    )


def _replay(config, stream):
    """Run ``stream`` through the walk and the per-level reference side by side.

    Asserts equal outcomes per access and equal state on every level (each
    core's L1 and L2, and the L3) at the end; returns how many accesses
    produced 0, 1, 2 and 3 writebacks.
    """
    reference = CacheHierarchy(config)
    walk = CacheHierarchy(config)
    writeback_counts = [0, 0, 0, 0]
    for core_id, addr, is_write in stream:
        expected = _reference_walk(reference, core_id, addr, is_write)
        outcome = walk.access_reused(core_id, addr, is_write)
        got = (outcome.level, outcome.llc_miss, [(wb.addr, wb.dirty) for wb in outcome.writebacks])
        assert got == expected
        writeback_counts[len(got[2])] += 1
    assert [_level_state(cache) for cache in _levels(walk)] == [
        _level_state(cache) for cache in _levels(reference)
    ]
    assert walk.stats() == reference.stats()
    return writeback_counts


def _stream(count, span, write_chance, seed):
    rng = DeterministicRng(seed)
    return [(i % 2, rng.randint(0, span) * 16, rng.chance(write_chance)) for i in range(count)]


def test_hierarchy_fast_path_matches_public_api():
    """The one-frame walk equals the per-level ``access``/``fill`` reference.

    Two streams: a mixed one on the tiny geometry, and a write-heavy one on
    a cramped geometry (L1 with more ways than L2 and L3, and a coarser L3
    line), where dirty victims keep missing the levels below them, so
    single, double and triple writebacks all occur.
    """
    cramped = {
        "l1": CacheLevelConfig(size_bytes=1024, ways=4),
        "l2": CacheLevelConfig(size_bytes=512, ways=2),
        "l3": CacheLevelConfig(size_bytes=2048, ways=2, line_size=128),
    }
    _replay(SystemConfig.tiny(num_cores=2), _stream(4000, 1 << 18, 0.3, seed=11))
    small = SystemConfig.tiny(num_cores=2).with_overrides(**cramped)
    writeback_counts = _replay(small, _stream(4000, 1 << 10, 0.9, seed=13))
    assert all(count > 0 for count in writeback_counts), writeback_counts


# ------------------------------------------------------------ golden determinism


def load_goldens(path=GOLDEN_PATH):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["cells"]


@pytest.mark.parametrize("mode", ENGINE_MODES)
@pytest.mark.parametrize(
    "cell", load_goldens(), ids=lambda cell: f"{cell['scheme']}-{cell['workload']}"
)
def test_fast_path_matches_pre_refactor_goldens(cell, mode):
    """Every engine mode must stay bit-identical to the original pipeline.

    The goldens were captured from the original allocating pipeline (before
    the allocation-free fast path landed); JSON round-trip on both sides
    makes float comparison exact (shortest-round-trip formatting).  The
    scalar and batch engines both replay the same golden cells.
    """
    config = SystemConfig.scaled_default(
        scheme=cell["scheme"], num_cores=cell["num_cores"], seed=cell["seed"]
    )
    workload = get_workload(
        cell["workload"], cell["num_cores"], scale=cell["scale"], seed=cell["seed"]
    )
    result = SimulationEngine(System(config, workload), mode=mode).run(cell["records_per_core"])
    assert json.loads(json.dumps(result.identity_dict())) == cell["result"]


#: Scheme counters each write-path golden cell must keep non-zero, on top of
#: ``llc_writebacks`` in every cell: the paths those cells exist to pin.
WRITE_PATH_COUNTERS = {
    "alloy": ("dirty_victim_writebacks", "writeback_hits", "writeback_misses"),
    "unison": ("page_evictions", "dirty_page_evictions"),
    "tdc": ("page_evictions", "dirty_page_evictions"),
    "banshee": ("writeback_tagbuffer_hits", "writeback_tag_probes"),
    "banshee-lru": ("tag_buffer_flushes", "pte_updates", "dirty_page_evictions"),
}


@pytest.mark.parametrize("mode", ENGINE_MODES)
@pytest.mark.parametrize(
    "cell", load_goldens(WRITE_PATHS_GOLDEN_PATH), ids=lambda cell: cell["scheme"]
)
def test_write_and_eviction_paths_match_goldens(cell, mode):
    """Every scheme and sensitivity point on a write-heavy tiny cell stays
    bit-identical.

    The scaled goldens above never reach an LLC writeback, a page eviction,
    a dirty victim or a tag-buffer writeback lookup.  These cells (tiny
    preset, ``mcf``, half the records as warmup) reach all of them, and the
    counters that prove it must stay non-zero.  A sensitivity point's golden
    was recorded under its name; the run reports its scheme.
    """
    config = build_config(cell["scheme"], num_cores=cell["num_cores"], seed=cell["seed"])
    workload = get_workload(
        cell["workload"], cell["num_cores"], scale=cell["scale"], seed=cell["seed"]
    )
    result = SimulationEngine(System(config, workload), mode=mode).run(
        cell["records_per_core"], warmup_records_per_core=cell["warmup_records_per_core"]
    )
    got = json.loads(json.dumps(result.identity_dict()))
    assert got == {**cell["result"], "scheme": CONFIGURATIONS[cell["scheme"]][0]}
    assert got["llc_writebacks"] > 0
    for counter in WRITE_PATH_COUNTERS.get(cell["scheme"], ()):
        assert got["scheme_stats"].get(counter, 0) > 0, counter


# ------------------------------------------------------ cross-mode bit-identity


def _identity(name, mode, workload="gcc", num_cores=2, records=600, warmup=150, budget=None):
    config = build_config(name, SystemConfig.scaled_default, num_cores=num_cores, seed=4)
    engine = SimulationEngine(
        System(config, get_workload(workload, num_cores, scale=0.02, seed=4)), mode=mode
    )
    return engine.run(
        records, warmup_records_per_core=warmup, max_total_records=budget
    ).identity_dict()


#: (workload, num_cores, budget, configuration): every scheme and
#: sensitivity point on 2-core gcc, and the schemes alone on 4-core mcf —
#: where three or more cores compete for the next run — cut by a
#: ``max_total_records`` budget that lands mid-run.
CROSS_MODE_CELLS = [
    pytest.param("gcc", 2, None, name, id=name) for name in CONFIGURATIONS
] + [
    pytest.param("mcf", 4, 1999, scheme, id=f"mcf-4core-{scheme}") for scheme in SCHEMES
]


@pytest.mark.parametrize("workload, num_cores, budget, name", CROSS_MODE_CELLS)
def test_batch_engine_matches_scalar_for_every_variant(workload, num_cores, budget, name):
    """Batch and scalar must agree exactly for every scheme and sensitivity point.

    The points flip replacement policies, page sizes, sampling rates and OS
    hooks — the machinery most likely to disagree with the batch engine's
    inlined hit path and run-length scheduling.  Warmup is included so run
    cuts at the warmup edge are exercised too.
    """
    def identity(mode):
        return _identity(name, mode, workload=workload, num_cores=num_cores, budget=budget)

    assert identity("batch") == identity("scalar")


def test_single_core_scalar_fast_path_matches_multicore_semantics():
    """One core alone gives the same results in the scalar and batch loops.

    The scalar loop pops and pushes its one core's heap entry per record;
    the batch engine runs a lone core as one unbounded run.  Both must
    produce the same identity results.
    """
    assert _identity("banshee", "scalar", workload="pagerank", num_cores=1) == \
        _identity("banshee", "batch", workload="pagerank", num_cores=1)
