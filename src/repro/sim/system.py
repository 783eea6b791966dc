"""System assembly: cores, TLBs, caches, memory controllers, DRAM devices.

:class:`System` wires together every substrate around the configured
DRAM-cache scheme and exposes a single entry point,
:meth:`System.process_record_cols`, that the simulation engine drives with
the columns of each trace record.  It also implements the
:class:`repro.dramcache.base.OsServices` callbacks — the software half of
Banshee's software/hardware co-design — on top of the page table, TLBs and
core models.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.cache.hierarchy import CacheHierarchy
from repro.cpu.core import CoreModel
from repro.dram.device import DramDevice
from repro.dramcache.base import DramCacheScheme, OsServices
from repro.dramcache.factory import create_scheme
from repro.memctrl.controller import MemoryControllerSet
from repro.memctrl.request import MappingInfo, MemRequest
from repro.sim.config import SystemConfig
from repro.sim.results import SimulationResults
from repro.util.rng import DeterministicRng
from repro.util.units import cycles_from_us
from repro.vm.page_table import PageTable
from repro.vm.shootdown import ShootdownCostModel
from repro.vm.tlb import Tlb
from repro.workloads.base import Workload


class _SystemOsServices(OsServices):
    """The OS-side callbacks used by the DRAM-cache schemes."""

    def __init__(self, system: "System") -> None:
        self.system = system
        self.pte_update_batches = 0
        self.pte_updates = 0
        self.core_stall_events = 0

    def pte_update_batch(self, initiator_core: int, updates: List[Tuple[int, bool, int]]) -> None:
        system = self.system
        for page, cached, way in updates:
            system.page_table.apply_mapping(page, cached, way)
        self.pte_update_batches += 1
        self.pte_updates += len(updates)

        # Software routine cost on the initiating core, then a system-wide
        # TLB shootdown (Section 3.4 / Table 3).
        initiator = initiator_core % system.config.num_cores
        system.cores[initiator].add_stall(system.pte_update_cost_cycles)
        shootdown = system.shootdown_model.shootdown(initiator)
        for core_id, cycles in enumerate(shootdown.per_core_cycles):
            system.cores[core_id].add_stall(cycles)
        for tlb in system.tlbs:
            tlb.invalidate_all()

    def stall_all_cores(self, cycles: int) -> None:
        self.core_stall_events += 1
        for core in self.system.cores:
            core.add_stall(cycles)

    def flush_page_from_caches(self, page_addr: int, page_size: int) -> int:
        dirty = self.system.hierarchy.flush_page(page_addr, page_size)
        return len(dirty)


class System:
    """A fully assembled simulated system for one workload and one scheme."""

    def __init__(self, config: SystemConfig, workload: Workload) -> None:
        self.config = config
        self.workload = workload
        self.rng = DeterministicRng(config.seed)
        self.page_size = workload.page_size

        self.hierarchy = CacheHierarchy(config)
        self.page_table = PageTable(page_size=self.page_size)
        self.tlbs = [Tlb(core_id, config.tlb) for core_id in range(config.num_cores)]
        self.cores = [CoreModel(core_id, config.core, mlp=workload.mlp) for core_id in range(config.num_cores)]
        self.shootdown_model = ShootdownCostModel(
            num_cores=config.num_cores,
            freq_ghz=config.core.freq_ghz,
            initiator_us=config.dram_cache.tlb_shootdown_initiator_us,
            slave_us=config.dram_cache.tlb_shootdown_slave_us,
        )
        self.pte_update_cost_cycles = cycles_from_us(
            config.dram_cache.tag_buffer_flush_cost_us, config.core.freq_ghz
        )

        self.in_dram = DramDevice(config.in_package_dram, config.core.freq_ghz, page_size=self.page_size)
        self.off_dram = DramDevice(config.off_package_dram, config.core.freq_ghz, page_size=self.page_size)
        self.os_services = _SystemOsServices(self)
        self.scheme = create_scheme(config, self.in_dram, self.off_dram, rng=self.rng.fork(2))
        self.scheme.set_os_services(self.os_services)
        self.controllers = MemoryControllerSet(config, self.scheme)

        self.llc_misses = 0
        self.llc_writebacks = 0

        # ---- hot-path state, hoisted out of the per-record loop ----------
        # Preallocated request/mapping objects, mutated in place per record:
        # schemes consume requests synchronously inside ``access`` and never
        # retain them, so reuse is safe and saves two allocations per LLC
        # miss plus one per writeback.
        self._mapping = MappingInfo()
        self._demand_request = MemRequest(
            addr=0, is_write=False, core_id=0, mapping=self._mapping, page_size=self.page_size
        )
        self._wb_request = MemRequest(
            addr=0, is_write=True, core_id=0, is_writeback=True, page_size=self.page_size
        )
        # Invariant lookups: bound methods and config scalars resolved once.
        self._hierarchy_access = self.hierarchy.access_reused
        self._controllers_access = self.controllers.access
        self._page_table_translate = self.page_table.translate
        self._page_walk_cycles = config.tlb.page_walk_cycles
        # ``notify_cycle`` is a no-op for every scheme except HMA; skip the
        # per-record dynamic dispatch entirely when it is not overridden.
        self._notify_cycle = (
            self.scheme.notify_cycle
            if type(self.scheme).notify_cycle is not DramCacheScheme.notify_cycle
            else None
        )
        # A run without warmup measures from its first record.
        self.begin_measurement()

    def __getstate__(self) -> Dict[str, Any]:
        """Pickled state (engine snapshots): everything but the workload.

        Workload generators hold lambdas, and the restoring engine
        re-attaches its own live workload.
        """
        state = dict(self.__dict__)
        state["workload"] = None
        return state

    # ------------------------------------------------------------------ per-record processing

    def process_record_cols(self, core_id: int, gap: int, addr: int, is_write: bool) -> float:
        """Process one record given as its three columns; returns the new core clock.

        This is the simulator's innermost loop — one call per trace record
        (per record in the scalar engine, for every record off the inline
        TLB+L1-hit path in the batch engine) — so the translate and
        hierarchy-walk steps are inlined against preallocated objects rather
        than composed from the public per-call APIs (which remain for tests
        and non-hot callers), with identical results.  Above the memory
        controllers, a TLB hit calls only the hierarchy walk; a TLB miss
        adds :meth:`Tlb.fill` and :meth:`PageTable.translate`.

        This is the one copy of the core timing rules (the batch engine's
        inline TLB+L1 hit repeats its hit case, with the same float
        operations in the same order): the compute phase adds
        ``gap / issue_width``; a TLB miss adds ``page_walk_cycles``; an L1,
        L2 or L3 hit adds that level's ``CoreConfig`` hit latency; an LLC
        miss adds the L3 hit latency plus the memory latency divided by the
        workload's MLP.
        """
        core = self.cores[core_id]
        if core._pending_stall > 0.0:
            core.apply_pending_stalls()

        # Compute phase.
        stats = core.stats
        cycles = gap / core._issue_width
        core.clock += cycles
        stats.instructions += gap
        stats.compute_cycles += cycles

        # Address translation (Tlb.lookup, inlined).  The TLB caches the
        # PTE objects themselves (see repro.vm.tlb for why that is exact).
        tlb = self.tlbs[core_id]
        tlb_entries = tlb._entries
        vpn = addr // self.page_size
        entry = tlb_entries.get(vpn)
        if entry is None:
            tlb.misses += 1
            entry = tlb.fill(self._page_table_translate(addr))
            core.clock += self._page_walk_cycles
        else:
            tlb_entries.move_to_end(vpn)
            tlb.hits += 1

        # Hierarchy walk + memory stall.
        outcome = self._hierarchy_access(core_id, addr, is_write)
        stats.memory_accesses += 1
        if outcome.llc_miss:
            self.llc_misses += 1
            mapping = self._mapping
            mapping.cached = entry.cached
            mapping.way = entry.way
            request = self._demand_request
            request.addr = addr
            request.is_write = is_write
            request.core_id = core_id
            result = self._controllers_access(int(core.clock), request)
            stall = core._l3_stall + result.latency / core.mlp
        else:
            level = outcome.level
            if level == "l1":
                stall = core._l1_stall
            elif level == "l2":
                stall = core._l2_stall
            else:
                stall = core._l3_stall
        core.clock += stall
        stats.memory_stall_cycles += stall

        if outcome.writebacks:
            wb_request = self._wb_request
            wb_request.core_id = core_id
            now = int(core.clock)
            for writeback in outcome.writebacks:
                self.llc_writebacks += 1
                wb_request.addr = writeback.addr
                self._controllers_access(now, wb_request)
        if self._notify_cycle is not None:
            self._notify_cycle(int(core.clock))
        return core.clock

    # ------------------------------------------------------------------ results

    def finalize(self) -> None:
        """End-of-run hook (flush outstanding Banshee remaps, etc.)."""
        now = int(max(core.clock for core in self.cores))
        self.scheme.finalize(now)

    def begin_measurement(self) -> None:
        """Snapshot all counters so results cover only the post-warmup phase.

        Warmup lets the DRAM-cache contents reach (an approximation of) steady
        state before measurement, which matters most for Banshee: its
        frequency-based policy intentionally caches pages slowly, so a cold
        start under-reports its hit rate relative to the paper's 100-billion-
        instruction runs.

        Every counter that :meth:`collect_results` reports is snapshotted
        here — including ``scheme_stats`` and ``hierarchy_stats`` — so all
        reported statistics are consistently post-warmup deltas.
        """
        self._baseline = {
            "instructions": sum(core.stats.instructions for core in self.cores),
            "accesses": sum(core.stats.memory_accesses for core in self.cores),
            "cycles": max((core.clock for core in self.cores), default=0.0),
            "per_core_cycles": [core.clock for core in self.cores],
            "hits": self.scheme.stats.get("dram_cache_hits"),
            "misses": self.scheme.stats.get("dram_cache_misses"),
            "llc_misses": self.llc_misses,
            "llc_writebacks": self.llc_writebacks,
            "tlb_misses": sum(tlb.misses for tlb in self.tlbs),
            "in_traffic": dict(self.in_dram.traffic.breakdown()),
            "off_traffic": dict(self.off_dram.traffic.breakdown()),
            "os_stall": sum(core.stats.os_stall_cycles for core in self.cores),
            "scheme_stats": self.scheme.stats.as_dict(),
            "hierarchy_stats": self.hierarchy.stats(),
        }

    def collect_results(self, wall_time_seconds: float = 0.0) -> SimulationResults:
        """Assemble a :class:`SimulationResults` snapshot (post-warmup deltas)."""
        base = self._baseline
        instructions = sum(core.stats.instructions for core in self.cores) - base["instructions"]
        accesses = sum(core.stats.memory_accesses for core in self.cores) - base["accesses"]
        cycles = max((core.clock for core in self.cores), default=0.0) - base["cycles"]
        in_traffic = {
            key: value - base["in_traffic"].get(key, 0)
            for key, value in self.in_dram.traffic.breakdown().items()
        }
        off_traffic = {
            key: value - base["off_traffic"].get(key, 0)
            for key, value in self.off_dram.traffic.breakdown().items()
        }
        return SimulationResults(
            workload=self.workload.name,
            scheme=self.scheme.name,
            num_cores=self.config.num_cores,
            instructions=instructions,
            memory_accesses=accesses,
            cycles=cycles,
            per_core_cycles=[
                core.clock - prev for core, prev in zip(self.cores, base["per_core_cycles"])
            ],
            dram_cache_hits=int(self.scheme.stats.get("dram_cache_hits") - base["hits"]),
            dram_cache_misses=int(self.scheme.stats.get("dram_cache_misses") - base["misses"]),
            llc_misses=self.llc_misses - base["llc_misses"],
            llc_writebacks=self.llc_writebacks - base["llc_writebacks"],
            tlb_misses=sum(tlb.misses for tlb in self.tlbs) - base["tlb_misses"],
            in_traffic_bytes=in_traffic,
            off_traffic_bytes=off_traffic,
            scheme_stats={
                key: value - base["scheme_stats"].get(key, 0)
                for key, value in self.scheme.stats.as_dict().items()
            },
            hierarchy_stats={
                key: value - base["hierarchy_stats"].get(key, 0)
                for key, value in self.hierarchy.stats().items()
            },
            os_stall_cycles=sum(core.stats.os_stall_cycles for core in self.cores) - base["os_stall"],
            wall_time_seconds=wall_time_seconds,
        )
