"""Hot-path regression tests.

Covers the three guarantees of the allocation-free record pipeline:

* engine reuse is safe (per-run counter reset — the warmup/budget bug),
* warmup is excluded from *every* reported statistic (the
  ``begin_measurement`` snapshot bug for scheme/hierarchy stats),
* the fast path is bit-identical to the pre-refactor implementation
  (golden results captured from the original composed-API pipeline).
"""

import dataclasses
import json
import os

import pytest

from repro.cache.hierarchy import CacheHierarchy
from repro.cache.sram_cache import SramCache
from repro.dramcache.variants import available_scheme_names
from repro.sim.config import SystemConfig
from repro.sim.engine import ENGINE_MODES, SimulationEngine
from repro.sim.system import System
from repro.util.rng import DeterministicRng
from repro.workloads.registry import get_workload

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_hotpath.json")


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


def test_hierarchy_fast_path_matches_public_api():
    for policy in ("lru", "fifo", "random"):
        config = SystemConfig.tiny(num_cores=2)
        config = config.with_overrides(
            **{level: dataclasses.replace(getattr(config, level), replacement=policy) for level in ("l1", "l2", "l3")}
        )
        slow = CacheHierarchy(config, rng=DeterministicRng(3))
        fast = CacheHierarchy(config, rng=DeterministicRng(3))
        rng = DeterministicRng(11)
        for i in range(4000):
            core_id = i % 2
            addr = (rng.randint(0, 1 << 18)) * 16
            is_write = rng.chance(0.3)
            expected = _reference_walk(slow, core_id, addr, is_write)
            outcome = fast.access_reused(core_id, addr, is_write)
            got = (outcome.level, outcome.llc_miss, [(wb.addr, wb.dirty) for wb in outcome.writebacks])
            assert got == expected
        assert fast.stats() == slow.stats()


def test_sram_fast_path_matches_public_api():
    from repro.sim.config import CacheLevelConfig

    for policy in ("lru", "fifo", "random"):
        config = CacheLevelConfig(size_bytes=4096, ways=4, replacement=policy)
        slow = SramCache("slow", config, rng=DeterministicRng(5))
        fast = SramCache("fast", config, rng=DeterministicRng(5))
        rng = DeterministicRng(9)
        for _ in range(3000):
            addr = rng.randint(0, 1 << 16)
            is_write = rng.chance(0.5)
            result = slow.access(addr, is_write)
            hit = fast.access_fast(addr, is_write)
            assert hit == result.hit
            if not hit:
                if result.eviction is None:
                    assert fast.victim_addr is None
                else:
                    assert fast.victim_addr == result.eviction.addr
                    assert fast.victim_dirty == result.eviction.dirty
        assert (fast.hits, fast.misses, fast.evictions, fast.dirty_evictions) == (
            slow.hits, slow.misses, slow.evictions, slow.dirty_evictions
        )


# ------------------------------------------------------------ golden determinism


def load_goldens():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
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


# ------------------------------------------------------ cross-mode bit-identity


def _identity(scheme, mode, workload="gcc", num_cores=2, records=600, warmup=150):
    config = SystemConfig.scaled_default(scheme=scheme, num_cores=num_cores, seed=4)
    engine = SimulationEngine(
        System(config, get_workload(workload, num_cores, scale=0.02, seed=4)), mode=mode
    )
    return engine.run(records, warmup_records_per_core=warmup).identity_dict()


@pytest.mark.parametrize("scheme", available_scheme_names())
def test_batch_engine_matches_scalar_for_every_variant(scheme):
    """Batch and scalar must agree exactly for every registered variant.

    Variants flip replacement policies, page sizes, sampling rates and OS
    hooks — the machinery most likely to disagree with the batch engine's
    inlined hit path and run-length scheduling.  Warmup is included so run
    cuts at the warmup edge are exercised too.
    """
    assert _identity(scheme, "batch") == _identity(scheme, "scalar")


def test_single_core_scalar_fast_path_matches_multicore_semantics():
    """The heap-free single-core scalar loop is bit-identical per core.

    One core simulated alone must produce the same identity results whether
    the scheduler uses the heap or the dedicated single-core loop; compare
    against the batch engine, which schedules without a heap by design.
    """
    assert _identity("banshee", "scalar", workload="pagerank", num_cores=1) == \
        _identity("banshee", "batch", workload="pagerank", num_cores=1)
