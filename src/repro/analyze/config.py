"""Analyzer configuration: hot-path roots, package scopes, class lists.

The defaults encode this repository's invariants; tests construct custom
configurations pointing at fixture trees.  Everything is data — the rules in
:mod:`repro.analyze.rules` read these fields rather than hard-coding names —
so a layer refactor updates this file, not the rule logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class AnalyzerConfig:
    """Knobs for every rule; the committed invariants live in DEFAULT_CONFIG."""

    #: Fully-hot functions, in addition to any ``# repro: hotpath`` markers in
    #: source (a marker on a ``def`` makes that function a root; a marker on a
    #: loop statement roots just the loop body).  Matching is by dotted
    #: qualname suffix, so entries survive a src-layout move.
    hotpath_roots: Tuple[str, ...] = ("repro.sim.system.System.process_record_cols",)

    #: Callees never followed from hot code: work that call sites guard to run
    #: only at run cuts or amortised epochs, not per record.  ``Class.method``,
    #: ``Class.*`` or a bare method name.
    hotpath_cold_calls: Tuple[str, ...] = (
        # Banshee's batched software PTE-update routine (Section 3.4): remaps
        # accumulate in the tag buffers precisely so this work is amortised
        # over thousands of records, not paid per record.
        "TagBufferCoherence.flush",
        # HMA's epoch remap: runs once per hma_interval_ms of simulated time.
        "HmaCache._remap",
        # The engine's one edge entry point: every loop guards it behind
        # ``processed >= next_stop`` (the edge chain's next requested cut),
        # so the warmup edge, observer windows and snapshot capture run at
        # run cuts, never per record.
        "RunEdges.edge",
    )

    #: Classes that must declare ``__slots__``: the per-access objects the
    #: record pipeline mutates in place.  Guarded statically so a refactor
    #: cannot silently reintroduce dict-backed instances on the hot path.
    hotpath_slots_classes: Tuple[str, ...] = (
        "repro.memctrl.request.MappingInfo",
        "repro.memctrl.request.MemRequest",
        "repro.memctrl.request.AccessResult",
        "repro.cache.hierarchy.HierarchyAccess",
        "repro.cache.sram_cache.Eviction",
        "repro.cache.sram_cache.CacheAccessResult",
        "repro.dram.device.DramAccessResult",
    )

    #: Packages that must be deterministic: no wall clocks, no unseeded RNG,
    #: no unordered set iteration, no unsorted directory listings.  ``obs`` is
    #: deliberately absent — wall-clock timestamps are its whole point.
    determinism_packages: Tuple[str, ...] = (
        "repro.sim",
        "repro.dramcache",
        "repro.cache",
        "repro.vm",
        "repro.cpu",
        "repro.workloads",
    )

    #: Name of the event-schema constant cross-checked against emit sites.
    event_types_constant: str = "EVENT_TYPES"

    #: Method-name pairs treated as a serde couple on one class.
    serde_pairs: Tuple[Tuple[str, str], ...] = (("to_dict", "from_dict"),)

    #: Extra dotted call names treated as wall-clock reads (beyond time.*).
    wall_clock_calls: Tuple[str, ...] = (
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    )

    #: Unsorted-listing calls (dotted names and bare method names for
    #: ``Path``-style objects); fine when directly wrapped in ``sorted()``.
    listing_calls: Tuple[str, ...] = ("glob.glob", "glob.iglob", "os.listdir", "os.scandir")
    listing_methods: Tuple[str, ...] = ("glob", "rglob", "iterdir")


DEFAULT_CONFIG = AnalyzerConfig()
