"""The core timing rules, driven through ``System.process_record_cols``.

``process_record_cols`` is the one copy of the rules (the batch engine's
inline TLB+L1 hit repeats its hit case, and the goldens pin both engine
modes to each other).  Each test here steps one record on the tiny preset
and checks the clock change it causes, computed in the order the code adds
it, so every comparison is exact.
"""

from repro.cpu.core import CoreModel
from repro.sim.config import CoreConfig, SystemConfig
from repro.sim.system import System
from repro.workloads.registry import get_workload
from repro.workloads.spec import SPEC_PARAMS

ADDR = 0x12340
GAP = 7


def make_system(workload="mcf"):
    config = SystemConfig.tiny(scheme="nocache")
    return System(config, get_workload(workload, config.num_cores, scale=0.05))


def evict(system, addr, levels):
    """Drop ``addr``'s line from the named SRAM levels of core 0."""
    caches = {"l1": system.hierarchy.l1[0], "l2": system.hierarchy.l2[0], "l3": system.hierarchy.l3}
    for level in levels:
        caches[level].invalidate(addr)


def test_compute_advances_by_issue_width():
    """A TLB+L1 hit adds ``gap / issue_width`` of compute, then the L1 hit."""
    system = make_system()
    core, timing = system.cores[0], system.config.core
    system.process_record_cols(0, 0, ADDR, False)  # the TLB and L1 now hold ADDR
    before, compute = core.clock, core.stats.compute_cycles
    instructions = core.stats.instructions
    assert system.process_record_cols(0, GAP, ADDR, False) == core.clock
    assert core.clock == before + GAP / timing.issue_width + timing.l1_hit_latency
    assert core.stats.compute_cycles == compute + GAP / timing.issue_width
    assert core.stats.instructions == instructions + GAP


def test_tlb_miss_adds_page_walk_cycles():
    system = make_system()
    core, timing = system.cores[0], system.config.core
    system.process_record_cols(0, 0, ADDR, False)
    system.tlbs[0].invalidate_all()
    misses, l1_hits = system.tlbs[0].misses, system.hierarchy.l1[0].hits
    before = core.clock
    system.process_record_cols(0, GAP, ADDR, False)
    assert system.tlbs[0].misses == misses + 1
    assert system.hierarchy.l1[0].hits == l1_hits + 1
    assert core.clock == (before + GAP / timing.issue_width
                          + system.config.tlb.page_walk_cycles + timing.l1_hit_latency)


def test_memory_levels_have_increasing_cost():
    """An L1, L2 or L3 hit adds that level's ``CoreConfig`` hit latency."""
    timing = SystemConfig.tiny().core
    assert timing.l1_hit_latency < timing.l2_hit_latency < timing.l3_hit_latency
    for level, evicted in (("l1", ()), ("l2", ("l1",)), ("l3", ("l1", "l2"))):
        system = make_system()
        core = system.cores[0]
        system.process_record_cols(0, 0, ADDR, False)
        evict(system, ADDR, evicted)
        hits = system.hierarchy.stats()[f"{level}_hits"]
        before, stall = core.clock, core.stats.memory_stall_cycles
        system.process_record_cols(0, GAP, ADDR, False)
        latency = getattr(timing, f"{level}_hit_latency")
        assert system.hierarchy.stats()[f"{level}_hits"] == hits + 1, level
        assert core.clock == before + GAP / timing.issue_width + latency, level
        assert core.stats.memory_stall_cycles == stall + latency, level


def test_llc_miss_latency_divided_by_mlp():
    """An LLC miss adds the L3 hit latency plus the memory latency divided by
    the running workload's MLP (mcf 3.0, lbm 8.0): the core has no MLP of its
    own."""
    for workload in ("mcf", "lbm"):
        system = make_system(workload)
        core, timing = system.cores[0], system.config.core
        assert core.mlp == SPEC_PARAMS[workload]["mlp"] == system.workload.mlp
        latencies = []
        controllers_access = system._controllers_access

        def recording_access(now, request, controllers_access=controllers_access):
            result = controllers_access(now, request)
            latencies.append(result.latency)
            return result

        system._controllers_access = recording_access
        system.process_record_cols(0, 0, ADDR, False)
        evict(system, ADDR, ("l1", "l2", "l3"))
        before, misses = core.clock, system.llc_misses
        system.process_record_cols(0, GAP, ADDR, False)
        assert system.llc_misses == misses + 1
        assert len(latencies) == 2 and latencies[-1] > 0
        assert core.clock == (before + GAP / timing.issue_width
                              + (timing.l3_hit_latency + latencies[-1] / core.mlp)), workload
    assert SPEC_PARAMS["mcf"]["mlp"] == 3.0


def test_pending_stalls_applied_once():
    core = CoreModel(0, CoreConfig(), mlp=3.0)
    core.add_stall(500)
    assert core.clock == 0
    core.apply_pending_stalls()
    assert core.clock == 500
    core.apply_pending_stalls()
    assert core.clock == 500
    assert core.stats.os_stall_cycles == 500
