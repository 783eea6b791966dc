"""Integration tests: full system simulations on tiny configurations."""

import pytest

from repro.memctrl.controller import MemoryControllerSet
from repro.memctrl.request import MappingInfo, MemRequest
from repro.sim.config import SystemConfig
from repro.sim.engine import SimulationEngine
from repro.sim.system import System
from repro.workloads.registry import get_workload


def run(scheme, workload="pagerank", records=1500, warmup=0, cores=2, seed=1, **overrides):
    config = SystemConfig.tiny(scheme=scheme, num_cores=cores, seed=seed)
    if overrides:
        config = config.with_scheme(scheme, **overrides)
    workload_obj = get_workload(workload, cores, scale=0.05, seed=seed)
    system = System(config, workload_obj)
    engine = SimulationEngine(system)
    return engine.run(records, warmup_records_per_core=warmup), system


@pytest.mark.parametrize("scheme", ["nocache", "cacheonly", "alloy", "unison", "tdc", "hma", "banshee"])
def test_every_scheme_runs_end_to_end(scheme):
    results, _system = run(scheme)
    assert results.instructions > 0
    assert results.cycles > 0
    assert results.memory_accesses == 2 * 1500
    if scheme == "nocache":
        assert results.total_in_bytes_per_instruction == 0.0
    if scheme == "cacheonly":
        assert results.total_off_bytes_per_instruction == 0.0
        assert results.dram_cache_miss_rate == 0.0


def test_identical_instruction_counts_across_schemes():
    counts = set()
    for scheme in ("nocache", "banshee", "alloy"):
        results, _system = run(scheme, records=1000)
        counts.add(results.instructions)
    assert len(counts) == 1, "all schemes must execute identical traces"


def test_simulation_is_deterministic():
    a, _ = run("banshee", records=1000)
    b, _ = run("banshee", records=1000)
    assert a.cycles == b.cycles
    assert a.in_traffic_bytes == b.in_traffic_bytes
    assert a.off_traffic_bytes == b.off_traffic_bytes


def test_warmup_reduces_measured_instructions():
    full, _ = run("banshee", records=1500, warmup=0)
    measured, _ = run("banshee", records=1500, warmup=750)
    assert measured.instructions < full.instructions
    assert measured.cycles < full.cycles


def test_banshee_tag_buffer_consistency_invariant():
    _results, system = run("banshee", records=2500, workload="mcf")
    # Every demand access must have seen a consistent mapping (stale mappings
    # would mean the lazy-coherence invariant was violated).
    assert system.scheme.stats.get("mapping_stale") == 0
    # After finalize, no un-flushed remaps may remain.
    assert all(buffer.remap_count == 0 for buffer in system.scheme.tag_buffers)


def _banshee_mid_run_flushes(mode):
    """A Banshee cell whose tag buffers flush mid-run; counts TLB-carried hits.

    Every sampled miss is a replacement candidate and a buffer flushes at a
    tenth of its capacity, so PTE-update batches land while records are
    still being processed.  Returns the results, the system and how many
    demand requests reached the controllers carrying ``cached=True``, which
    only a TLB filled after a PTE update can supply.
    """
    config = SystemConfig.tiny(scheme="banshee", num_cores=2, seed=1).with_scheme(
        "banshee", sampling_coefficient=1.0, tag_buffer_flush_threshold=0.1
    )
    system = System(config, get_workload("mcf", 2, scale=0.05, seed=1))
    controllers_access = system._controllers_access
    carried = [0]

    def counting_access(now, request):
        if not request.is_writeback and request.mapping.cached:
            carried[0] += 1
        return controllers_access(now, request)

    system._controllers_access = counting_access
    results = SimulationEngine(system, mode=mode).run(2500)
    return results, system, carried[0]


def test_banshee_pte_updates_reach_page_table():
    """PTE updates land mid-run, and TLBs carry the new mapping bits.

    This is Banshee's central mechanism: after a batched PTE update and its
    shootdown, the next page walk fills the TLB with the updated (cached,
    way) bits, and demand requests carry them to the memory controllers.
    """
    results, system, carried = _banshee_mid_run_flushes("batch")
    # The end-of-run finalize flush accounts for at most one batch.
    assert system.os_services.pte_update_batches >= 2
    assert all(tlb.invalidations >= 2 for tlb in system.tlbs)
    assert carried > 0
    assert system.scheme.stats.get("mapping_stale") == 0
    scalar, _system, scalar_carried = _banshee_mid_run_flushes("scalar")
    assert scalar.identity_dict() == results.identity_dict()
    assert scalar_carried == carried


def test_banshee_residency_never_exceeds_capacity():
    _results, system = run("banshee", records=2500, workload="mcf", sampling_coefficient=1.0)
    partition = system.scheme.partition_for(4096)
    assert partition.occupancy() <= partition.capacity_pages


def test_dram_cache_schemes_reduce_off_package_traffic_vs_nocache():
    baseline, _ = run("nocache", records=2500, workload="gcc")
    cached, _ = run("cacheonly", records=2500, workload="gcc")
    assert cached.total_off_bytes_per_instruction < baseline.total_off_bytes_per_instruction


def test_memory_controller_routing_is_page_granular():
    """A request reaches the tag buffer of the controller owning its page."""
    config = SystemConfig.tiny(scheme="banshee")
    system = System(config, get_workload("gcc", config.num_cores, scale=0.05))
    controllers = system.controllers
    assert isinstance(controllers, MemoryControllerSet)
    buffers = system.scheme.tag_buffers
    assert len(buffers) == config.num_mem_controllers > 1

    def probed(addr):
        before = [buffer.lookups for buffer in buffers]
        controllers.access(0, MemRequest(addr=addr, is_write=False, core_id=0, mapping=MappingInfo()))
        return [index for index, buffer in enumerate(buffers) if buffer.lookups != before[index]]

    assert probed(0) == probed(4095) == [0]
    assert probed(4096) == [1]


def test_engine_validates_arguments():
    config = SystemConfig.tiny()
    system = System(config, get_workload("gcc", config.num_cores, scale=0.05))
    engine = SimulationEngine(system)
    with pytest.raises(ValueError):
        engine.run(0)
    with pytest.raises(ValueError):
        engine.run(10, warmup_records_per_core=20)


def test_hma_periodic_remap_stalls_cores():
    results, system = run("hma", records=3000, workload="gcc", hma_interval_ms=0.005)
    if results.scheme_stats.get("remap_intervals", 0) > 0 and results.scheme_stats.get("pages_migrated", 0) > 0:
        assert results.os_stall_cycles > 0
