"""Full engine-state snapshots: capture, serialize, restore, resume.

A snapshot records everything a :class:`~repro.sim.system.System` mutates
while simulating — core clocks and stats, TLBs, the page table, the SRAM
hierarchy, both DRAM devices, the memory controllers, the OS-service
counters, and the full DRAM-cache scheme state (stores, metadata, tag
buffers, policies, every RNG stream) — plus the engine-level progress
needed to resume: records processed, per-core consumed counts, and whether
measurement has begun.

Restoring a snapshot into a freshly built system (same ``SystemConfig``,
same workload) and calling :meth:`SimulationEngine.run` again produces
results **bit-identical** to the uninterrupted run, in every engine mode.
That works because workload streams are stateless deterministic generators:
the engine fast-forwards each core's fresh iterator by its consumed count,
and every other piece of dynamic state is restored here.

Encoding is plain JSON: integer-keyed dicts and ``OrderedDict``\\ s become
``[[key, value], ...]`` item lists (order is semantic — it carries LRU/FIFO
recency and random-victim iteration order), ``__slots__`` entry classes
become flat field rows, RNG streams serialize their generator state, and
sets whose iteration order is provably irrelevant (dirty sets, reverse
mappings, footprint line sets) are stored sorted.

Snapshots double as **warm-state checkpoints**: ``campaign run
--checkpoint-warmup`` captures one at the warmup edge and later cells that
share the same (config, workload, warmup) prefix restore it instead of
re-simulating the warmup records.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.sim.config import config_hash

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.batch import EngineCursor
    from repro.sim.system import System

#: Bumped whenever the snapshot payload layout changes incompatibly.
SNAPSHOT_VERSION = 1

#: Marker distinguishing snapshot files from other JSON artifacts.
SNAPSHOT_KIND = "repro-engine-snapshot"


# ---------------------------------------------------------------------------
# leaf encoders/decoders
#
# Every encoder returns plain JSON-safe data; every decoder mutates the live
# object *in place* (clear + refill) so that shared references — Banshee's
# ``partition.resident`` view of ``directory.pages``, bound methods hoisted
# by the hot path — keep pointing at the restored state.
# ---------------------------------------------------------------------------


def _rng_to_dict(rng: Any) -> Dict[str, Any]:
    return {"seed": rng.seed, "state": rng.generator.bit_generator.state}


def _rng_restore(rng: Any, payload: Dict[str, Any]) -> None:
    rng.generator.bit_generator.state = payload["state"]


def _core_to_dict(core: Any) -> Dict[str, Any]:
    stats = core.stats
    return {
        "clock": core.clock,
        "pending_stall": core._pending_stall,
        "stats": {
            "instructions": stats.instructions,
            "memory_accesses": stats.memory_accesses,
            "compute_cycles": stats.compute_cycles,
            "memory_stall_cycles": stats.memory_stall_cycles,
            "os_stall_cycles": stats.os_stall_cycles,
        },
    }


def _core_restore(core: Any, payload: Dict[str, Any]) -> None:
    core.clock = payload["clock"]
    core._pending_stall = payload["pending_stall"]
    stats = core.stats
    fields = payload["stats"]
    stats.instructions = fields["instructions"]
    stats.memory_accesses = fields["memory_accesses"]
    stats.compute_cycles = fields["compute_cycles"]
    stats.memory_stall_cycles = fields["memory_stall_cycles"]
    stats.os_stall_cycles = fields["os_stall_cycles"]


def _tlb_to_dict(tlb: Any) -> Dict[str, Any]:
    return {
        # OrderedDict order is LRU recency — preserved by the item list.
        "entries": [
            [e.vpn, e.ppn, e.cached, e.way, e.large, e.generation]
            for e in tlb._entries.values()
        ],
        "hits": tlb.hits,
        "misses": tlb.misses,
        "invalidations": tlb.invalidations,
    }


def _tlb_restore(tlb: Any, payload: Dict[str, Any]) -> None:
    from repro.vm.tlb import TlbEntry

    tlb._entries.clear()
    for vpn, ppn, cached, way, large, generation in payload["entries"]:
        tlb._entries[vpn] = TlbEntry(
            vpn=vpn, ppn=ppn, cached=cached, way=way, large=large, generation=generation
        )
    tlb.hits = payload["hits"]
    tlb.misses = payload["misses"]
    tlb.invalidations = payload["invalidations"]


def _page_table_to_dict(table: Any) -> Dict[str, Any]:
    allocator = table.allocator
    return {
        "entries": [
            [e.vpn, e.ppn, e.cached, e.way, e.large, e.generation]
            for e in table._entries.values()
        ],
        "walks": table.walks,
        "update_batches": table.update_batches,
        "updated_ptes": table.updated_ptes,
        "allocator": {
            "next": allocator._next,
            "free": list(allocator._free),
            "allocated": allocator.allocated,
        },
        # Reverse-mapping vpn sets are only consumed via commutative
        # per-element updates, so sorted order is safe to canonicalize.
        "reverse": sorted(
            [ppn, sorted(vpns)] for ppn, vpns in table.reverse_mapping._map.items()
        ),
    }


def _page_table_restore(table: Any, payload: Dict[str, Any]) -> None:
    from repro.vm.page_table import PageTableEntry

    table._entries.clear()
    for vpn, ppn, cached, way, large, generation in payload["entries"]:
        table._entries[vpn] = PageTableEntry(
            vpn=vpn, ppn=ppn, cached=cached, way=way, large=large, generation=generation
        )
    table.walks = payload["walks"]
    table.update_batches = payload["update_batches"]
    table.updated_ptes = payload["updated_ptes"]
    allocator = table.allocator
    allocator._next = payload["allocator"]["next"]
    allocator._free = list(payload["allocator"]["free"])
    allocator.allocated = payload["allocator"]["allocated"]
    table.reverse_mapping._map.clear()
    for ppn, vpns in payload["reverse"]:
        table.reverse_mapping._map[ppn] = set(vpns)


def _sram_to_dict(cache: Any) -> Dict[str, Any]:
    return {
        # Per-set item order is recency (LRU) / insertion (FIFO) order and
        # the index space of random-victim draws — it must be preserved.
        "sets": [[[line, dirty] for line, dirty in bucket.items()] for bucket in cache._sets],
        "rng": _rng_to_dict(cache._rng),
        "hits": cache.hits,
        "misses": cache.misses,
        "evictions": cache.evictions,
        "dirty_evictions": cache.dirty_evictions,
    }


def _sram_restore(cache: Any, payload: Dict[str, Any]) -> None:
    for bucket, rows in zip(cache._sets, payload["sets"]):
        bucket.clear()
        for line, dirty in rows:
            bucket[line] = dirty
    _rng_restore(cache._rng, payload["rng"])
    cache.hits = payload["hits"]
    cache.misses = payload["misses"]
    cache.evictions = payload["evictions"]
    cache.dirty_evictions = payload["dirty_evictions"]
    cache.victim_addr = None
    cache.victim_dirty = False


def _hierarchy_to_dict(hierarchy: Any) -> Dict[str, Any]:
    return {
        "l1": [_sram_to_dict(c) for c in hierarchy.l1],
        "l2": [_sram_to_dict(c) for c in hierarchy.l2],
        "l3": _sram_to_dict(hierarchy.l3),
    }


def _hierarchy_restore(hierarchy: Any, payload: Dict[str, Any]) -> None:
    for cache, state in zip(hierarchy.l1, payload["l1"]):
        _sram_restore(cache, state)
    for cache, state in zip(hierarchy.l2, payload["l2"]):
        _sram_restore(cache, state)
    _sram_restore(hierarchy.l3, payload["l3"])


def _channel_to_dict(channel: Any) -> Dict[str, Any]:
    return {
        "busy_until": channel.busy_until,
        "total_busy_cycles": channel.total_busy_cycles,
        "total_requests": channel.total_requests,
        "background_backlog": channel._background_backlog,
        "last_row": channel._last_row,
    }


def _channel_restore(channel: Any, payload: Dict[str, Any]) -> None:
    channel.busy_until = payload["busy_until"]
    channel.total_busy_cycles = payload["total_busy_cycles"]
    channel.total_requests = payload["total_requests"]
    channel._background_backlog = payload["background_backlog"]
    channel._last_row = payload["last_row"]


def _traffic_to_dict(traffic: Any) -> Dict[str, Any]:
    return {"bytes": traffic.breakdown(), "accesses": traffic.total_accesses}


def _traffic_restore(traffic: Any, payload: Dict[str, Any]) -> None:
    from repro.sim.stats import TrafficCategory

    for category in TrafficCategory:
        traffic._bytes[category] = payload["bytes"].get(category.value, 0)
    traffic._accesses = payload["accesses"]


def _device_to_dict(device: Any) -> Dict[str, Any]:
    return {
        "channels": [_channel_to_dict(c) for c in device.channels],
        "traffic": _traffic_to_dict(device.traffic),
    }


def _device_restore(device: Any, payload: Dict[str, Any]) -> None:
    for channel, state in zip(device.channels, payload["channels"]):
        _channel_restore(channel, state)
    _traffic_restore(device.traffic, payload["traffic"])


def _stats_set_to_dict(stats: Any) -> List[List[Any]]:
    return [[key, value] for key, value in stats._counters.items()]


def _stats_set_restore(stats: Any, payload: List[List[Any]]) -> None:
    stats._counters.clear()
    for key, value in payload:
        stats._counters[key] = value


def _miss_window_to_dict(window: Any) -> Dict[str, Any]:
    return {"hits": window._hits, "misses": window._misses, "rate": window._rate}


def _miss_window_restore(window: Any, payload: Dict[str, Any]) -> None:
    window._hits = payload["hits"]
    window._misses = payload["misses"]
    window._rate = payload["rate"]


def _footprint_to_dict(footprint: Any) -> Dict[str, Any]:
    return {
        # Touched-line sets are only measured (len/membership), never
        # iterated order-sensitively, so sorted canonical form is safe.
        "touched": sorted(
            [page, sorted(lines)] for page, lines in footprint._touched.items()
        ),
        "observed_fills": footprint._observed_fills,
        "observed_lines": footprint._observed_lines,
    }


def _footprint_restore(footprint: Any, payload: Dict[str, Any]) -> None:
    footprint._touched.clear()
    for page, lines in payload["touched"]:
        footprint._touched[page] = set(lines)
    footprint._observed_fills = payload["observed_fills"]
    footprint._observed_lines = payload["observed_lines"]


def _balancer_to_dict(balancer: Any) -> Optional[Dict[str, Any]]:
    if balancer is None:
        return None
    return {
        "last_in": balancer._last_in,
        "last_off": balancer._last_off,
        "redirect_probability": balancer._redirect_probability,
        "redirected": balancer.redirected,
        "evaluations": balancer.evaluations,
    }


def _balancer_restore(balancer: Any, payload: Optional[Dict[str, Any]]) -> None:
    if balancer is None or payload is None:
        return
    balancer._last_in = payload["last_in"]
    balancer._last_off = payload["last_off"]
    balancer._redirect_probability = payload["redirect_probability"]
    balancer.redirected = payload["redirected"]
    balancer.evaluations = payload["evaluations"]


# ------------------------------------------------------------------ stores


def _policy_to_dict(policy: Any) -> Dict[str, Any]:
    from repro.cache.replacement import FifoPolicy, LruPolicy, RandomPolicy

    if isinstance(policy, LruPolicy):
        return {"kind": "lru", "recency": [list(order) for order in policy._recency]}
    if isinstance(policy, FifoPolicy):
        return {"kind": "fifo", "order": [list(order) for order in policy._insert_order]}
    if isinstance(policy, RandomPolicy):
        return {"kind": "random", "rng": _rng_to_dict(policy._rng)}
    raise ValueError(f"cannot snapshot replacement policy {type(policy).__name__}")


def _policy_restore(policy: Any, payload: Dict[str, Any]) -> None:
    kind = payload["kind"]
    if kind == "lru":
        for order, saved in zip(policy._recency, payload["recency"]):
            order[:] = saved
    elif kind == "fifo":
        for order, saved in zip(policy._insert_order, payload["order"]):
            order[:] = saved
    elif kind == "random":
        _rng_restore(policy._rng, payload["rng"])
    else:  # pragma: no cover - schema guard
        raise ValueError(f"unknown replacement policy kind {kind!r}")


def _page_directory_to_dict(directory: Any) -> Dict[str, Any]:
    return {
        "pages": [[page, way] for page, way in directory.pages.items()],
        "dirty": sorted(directory.dirty),
    }


def _page_directory_restore(directory: Any, payload: Dict[str, Any]) -> None:
    directory.pages.clear()
    for page, way in payload["pages"]:
        directory.pages[page] = way
    directory.dirty.clear()
    directory.dirty.update(payload["dirty"])


# ------------------------------------------------------------------ schemes


def _scheme_base_to_dict(scheme: Any) -> Dict[str, Any]:
    return {
        "class": type(scheme).__name__,
        "stats": _stats_set_to_dict(scheme.stats),
        "rng": _rng_to_dict(scheme.rng),
    }


def _scheme_base_restore(scheme: Any, payload: Dict[str, Any]) -> None:
    found = payload["class"]
    if found != type(scheme).__name__:
        raise ValueError(
            f"snapshot holds scheme state for {found}, live scheme is {type(scheme).__name__}"
        )
    _stats_set_restore(scheme.stats, payload["stats"])
    _rng_restore(scheme.rng, payload["rng"])


def _encode_nostate(scheme: Any) -> Dict[str, Any]:
    return {}


def _restore_nostate(scheme: Any, payload: Dict[str, Any]) -> None:
    return None


def _encode_alloy(scheme: Any) -> Dict[str, Any]:
    store = scheme.store
    return {
        "tags": [[frame, line] for frame, line in store.tags.items()],
        "dirty_frames": sorted(store.dirty_frames),
        "balancer": _balancer_to_dict(scheme.balancer),
    }


def _restore_alloy(scheme: Any, payload: Dict[str, Any]) -> None:
    store = scheme.store
    store.tags.clear()
    for frame, line in payload["tags"]:
        store.tags[frame] = line
    store.dirty_frames.clear()
    store.dirty_frames.update(payload["dirty_frames"])
    _balancer_restore(scheme.balancer, payload["balancer"])


def _encode_unison(scheme: Any) -> Dict[str, Any]:
    store = scheme.store
    return {
        "sets": [
            [None if slot is None else [slot.page, slot.dirty] for slot in row]
            for row in store._sets
        ],
        "policy": _policy_to_dict(store.policy),
        "footprint": _footprint_to_dict(scheme.footprint),
    }


def _restore_unison(scheme: Any, payload: Dict[str, Any]) -> None:
    from repro.dramcache.components.stores import _StoredPage

    store = scheme.store
    store._where.clear()
    for set_index, row_state in enumerate(payload["sets"]):
        row = store._sets[set_index]
        for way, slot_state in enumerate(row_state):
            if slot_state is None:
                row[way] = None
            else:
                page, dirty = slot_state
                entry = _StoredPage(page)
                entry.dirty = dirty
                row[way] = entry
                store._where[page] = (set_index, way)
    _policy_restore(store.policy, payload["policy"])
    _footprint_restore(scheme.footprint, payload["footprint"])


def _encode_tdc(scheme: Any) -> Dict[str, Any]:
    return {
        "entries": [[page, dirty] for page, dirty in scheme.store.entries.items()],
        "footprint": _footprint_to_dict(scheme.footprint),
    }


def _restore_tdc(scheme: Any, payload: Dict[str, Any]) -> None:
    scheme.store.entries.clear()
    for page, dirty in payload["entries"]:
        scheme.store.entries[page] = dirty
    _footprint_restore(scheme.footprint, payload["footprint"])


def _encode_hma(scheme: Any) -> Dict[str, Any]:
    return {
        "pages": sorted(scheme.store.pages),
        "dirty": sorted(scheme.store.dirty),
        # Item order breaks ties in the remap ranking's stable sort, so the
        # insertion order of the epoch counters is semantic.
        "epoch_counts": [[page, count] for page, count in scheme._epoch_counts.items()],
        "next_remap": scheme._next_remap,
    }


def _restore_hma(scheme: Any, payload: Dict[str, Any]) -> None:
    scheme.store.pages.clear()
    scheme.store.pages.update(payload["pages"])
    scheme.store.dirty.clear()
    scheme.store.dirty.update(payload["dirty"])
    scheme._epoch_counts.clear()
    for page, count in payload["epoch_counts"]:
        scheme._epoch_counts[page] = count
    scheme._next_remap = payload["next_remap"]


def _slot_row(slot: Any) -> List[Any]:
    return [slot.page, slot.count, slot.valid, slot.dirty]


def _slot_restore(slot: Any, row: List[Any]) -> None:
    slot.page, slot.count, slot.valid, slot.dirty = row


def _tag_buffer_to_dict(buffer: Any) -> Dict[str, Any]:
    return {
        # Dict order is the victim scan's tie-break order — preserved.
        "sets": [
            [[e.page, e.cached, e.way, e.remap, e.last_use] for e in bucket.values()]
            for bucket in buffer._sets
        ],
        "clock": buffer._clock,
        "lookups": buffer.lookups,
        "hits": buffer.hits,
        "inserts": buffer.inserts,
        "remap_inserts": buffer.remap_inserts,
    }


def _tag_buffer_restore(buffer: Any, payload: Dict[str, Any]) -> None:
    from repro.core.tag_buffer import TagBufferEntry

    for bucket, rows in zip(buffer._sets, payload["sets"]):
        bucket.clear()
        for page, cached, way, remap, last_use in rows:
            bucket[page] = TagBufferEntry(
                page=page, cached=cached, way=way, remap=remap, last_use=last_use
            )
    buffer._clock = payload["clock"]
    buffer.lookups = payload["lookups"]
    buffer.hits = payload["hits"]
    buffer.inserts = payload["inserts"]
    buffer.remap_inserts = payload["remap_inserts"]


def _encode_banshee(scheme: Any) -> Dict[str, Any]:
    partitions = []
    for page_size, partition in scheme._partitions.items():
        partitions.append({
            "page_size": page_size,
            "metadata": [
                {
                    "cached": [_slot_row(slot) for slot in meta.cached],
                    "candidates": [_slot_row(slot) for slot in meta.candidates],
                }
                for meta in partition.metadata
            ],
            "directory": _page_directory_to_dict(partition.directory),
            "lru": None if partition.lru is None else _policy_to_dict(partition.lru),
        })
    return {
        "miss_window": _miss_window_to_dict(scheme.miss_window),
        "partitions": partitions,
        "tag_buffers": [_tag_buffer_to_dict(b) for b in scheme.tag_buffers],
        "pte_updater": {
            "flushes": scheme.pte_updater.flushes,
            "updates_applied": scheme.pte_updater.updates_applied,
        },
        "balancer": _balancer_to_dict(scheme.balancer),
    }


def _restore_banshee(scheme: Any, payload: Dict[str, Any]) -> None:
    _miss_window_restore(scheme.miss_window, payload["miss_window"])
    for state in payload["partitions"]:
        partition = scheme._partitions.get(state["page_size"])
        if partition is None:
            raise ValueError(
                f"snapshot holds a partition for page size {state['page_size']} "
                "that the live scheme does not plan"
            )
        for meta, meta_state in zip(partition.metadata, state["metadata"]):
            for slot, row in zip(meta.cached, meta_state["cached"]):
                _slot_restore(slot, row)
            for slot, row in zip(meta.candidates, meta_state["candidates"]):
                _slot_restore(slot, row)
        # ``partition.resident``/``partition.dirty`` are shared views of the
        # directory's containers; in-place restore keeps them coherent.
        _page_directory_restore(partition.directory, state["directory"])
        if partition.lru is not None and state["lru"] is not None:
            _policy_restore(partition.lru, state["lru"])
    for buffer, state in zip(scheme.tag_buffers, payload["tag_buffers"]):
        _tag_buffer_restore(buffer, state)
    scheme.pte_updater.flushes = payload["pte_updater"]["flushes"]
    scheme.pte_updater.updates_applied = payload["pte_updater"]["updates_applied"]
    _balancer_restore(scheme.balancer, payload["balancer"])


#: Scheme-state codecs keyed by scheme *class* name (variants share the base
#: class, so every registered variant is covered).  Out-of-tree schemes can
#: extend this via :func:`register_scheme_codec`.
_SCHEME_CODECS: Dict[str, Any] = {
    "NoCache": (_encode_nostate, _restore_nostate),
    "CacheOnly": (_encode_nostate, _restore_nostate),
    "AlloyCache": (_encode_alloy, _restore_alloy),
    "UnisonCache": (_encode_unison, _restore_unison),
    "TaglessDramCache": (_encode_tdc, _restore_tdc),
    "HmaCache": (_encode_hma, _restore_hma),
    "BansheeCache": (_encode_banshee, _restore_banshee),
}


def register_scheme_codec(
    class_name: str,
    encode: Callable[[Any], Dict[str, Any]],
    restore: Callable[[Any, Dict[str, Any]], None],
) -> None:
    """Register snapshot encode/restore functions for a custom scheme class."""
    _SCHEME_CODECS[class_name] = (encode, restore)


def _scheme_to_dict(scheme: Any) -> Dict[str, Any]:
    codec = _SCHEME_CODECS.get(type(scheme).__name__)
    if codec is None:
        raise ValueError(
            f"no snapshot codec for scheme class {type(scheme).__name__}; "
            "register one with repro.obs.snapshot.register_scheme_codec"
        )
    payload = _scheme_base_to_dict(scheme)
    payload["state"] = codec[0](scheme)
    return payload


def _scheme_restore(scheme: Any, payload: Dict[str, Any]) -> None:
    codec = _SCHEME_CODECS.get(type(scheme).__name__)
    if codec is None:
        raise ValueError(
            f"no snapshot codec for scheme class {type(scheme).__name__}; "
            "register one with repro.obs.snapshot.register_scheme_codec"
        )
    _scheme_base_restore(scheme, payload)
    codec[1](scheme, payload["state"])


# ---------------------------------------------------------------------------
# system-level capture/restore
# ---------------------------------------------------------------------------


def system_state_to_dict(system: "System") -> Dict[str, Any]:
    """Serialize every piece of mutable simulation state of ``system``."""
    os_services = system.os_services
    return {
        "rng": _rng_to_dict(system.rng),
        "cores": [_core_to_dict(core) for core in system.cores],
        "tlbs": [_tlb_to_dict(tlb) for tlb in system.tlbs],
        "page_table": _page_table_to_dict(system.page_table),
        "hierarchy": _hierarchy_to_dict(system.hierarchy),
        "in_dram": _device_to_dict(system.in_dram),
        "off_dram": _device_to_dict(system.off_dram),
        "controllers": {
            "requests": system.controllers.requests,
            "writebacks": system.controllers.writebacks,
        },
        "shootdowns": system.shootdown_model.shootdowns,
        "os_services": {
            "pte_update_batches": os_services.pte_update_batches,
            "pte_updates": os_services.pte_updates,
            "core_stall_events": os_services.core_stall_events,
        },
        "llc_misses": system.llc_misses,
        "llc_writebacks": system.llc_writebacks,
        "baseline": system._baseline,
        "scheme": _scheme_to_dict(system.scheme),
    }


def restore_system_state(system: "System", payload: Dict[str, Any]) -> None:
    """Restore ``payload`` (from :func:`system_state_to_dict`) in place."""
    _rng_restore(system.rng, payload["rng"])
    for core, state in zip(system.cores, payload["cores"]):
        _core_restore(core, state)
    for tlb, state in zip(system.tlbs, payload["tlbs"]):
        _tlb_restore(tlb, state)
    _page_table_restore(system.page_table, payload["page_table"])
    _hierarchy_restore(system.hierarchy, payload["hierarchy"])
    _device_restore(system.in_dram, payload["in_dram"])
    _device_restore(system.off_dram, payload["off_dram"])
    system.controllers.requests = payload["controllers"]["requests"]
    system.controllers.writebacks = payload["controllers"]["writebacks"]
    system.shootdown_model.shootdowns = payload["shootdowns"]
    os_services = system.os_services
    os_services.pte_update_batches = payload["os_services"]["pte_update_batches"]
    os_services.pte_updates = payload["os_services"]["pte_updates"]
    os_services.core_stall_events = payload["os_services"]["core_stall_events"]
    system.llc_misses = payload["llc_misses"]
    system.llc_writebacks = payload["llc_writebacks"]
    system._baseline = payload["baseline"]
    _scheme_restore(system.scheme, payload["scheme"])


class EngineSnapshot:
    """One captured engine state: config identity + progress + system state.

    ``to_dict``/``from_dict`` are exact inverses; the dict form survives a
    JSON round-trip unchanged (the round-trip exactness is pinned by tests).
    """

    def __init__(
        self,
        config: Dict[str, Any],
        config_digest: str,
        workload: Optional[Dict[str, Any]],
        progress: Dict[str, Any],
        system: Dict[str, Any],
        version: int = SNAPSHOT_VERSION,
        kind: str = SNAPSHOT_KIND,
    ) -> None:
        self.version = version
        self.kind = kind
        self.config = config
        self.config_digest = config_digest
        self.workload = workload
        self.progress = progress
        self.system = system

    # ------------------------------------------------------------------ serde

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "kind": self.kind,
            "config": self.config,
            "config_digest": self.config_digest,
            "workload": self.workload,
            "progress": self.progress,
            "system": self.system,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "EngineSnapshot":
        if payload.get("kind") != SNAPSHOT_KIND:
            raise ValueError(f"not an engine snapshot (kind={payload.get('kind')!r})")
        if payload.get("version") != SNAPSHOT_VERSION:
            raise ValueError(
                f"snapshot version {payload.get('version')!r} not supported "
                f"(expected {SNAPSHOT_VERSION})"
            )
        return cls(
            config=payload["config"],
            config_digest=payload["config_digest"],
            workload=payload["workload"],
            progress=payload["progress"],
            system=payload["system"],
            version=payload["version"],
            kind=payload["kind"],
        )

    def save(self, path: str) -> str:
        """Atomically write the snapshot as JSON; returns ``path``."""
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=".snapshot-", dir=directory)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(self.to_dict(), handle)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    @classmethod
    def load(cls, path: str) -> "EngineSnapshot":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    # ------------------------------------------------------------------ restore

    def restore_into(self, system: "System") -> None:
        """Restore this snapshot's state into ``system`` (config must match)."""
        live_digest = config_hash(system.config)
        if live_digest != self.config_digest:
            raise ValueError(
                "snapshot was captured under a different configuration "
                f"(snapshot {self.config_digest[:12]}, live {live_digest[:12]}); "
                "rebuild the system from the snapshot's embedded config"
            )
        restore_system_state(system, self.system)

    def summary(self) -> Dict[str, Any]:
        """Small human-oriented description of the snapshot."""
        progress = self.progress
        return {
            "config_digest": self.config_digest[:12],
            "workload": (self.workload or {}).get("name"),
            "processed": progress.get("processed"),
            "consumed_per_core": progress.get("consumed_per_core"),
            "measurement_started": progress.get("measurement_started"),
        }


def capture(
    system: "System",
    processed: int,
    consumed_per_core: List[int],
    measurement_started: bool,
    workload_meta: Optional[Dict[str, Any]] = None,
) -> EngineSnapshot:
    """Capture a snapshot of ``system`` at an engine edge.

    ``processed`` is the run's global processed-record count at the edge,
    ``consumed_per_core`` the per-core record counts consumed *within the
    current run* (the engine restarts workload streams per run, so these
    are exactly the fast-forward distances on resume).
    """
    if len(consumed_per_core) != system.config.num_cores:
        raise ValueError(
            f"consumed_per_core has {len(consumed_per_core)} entries for "
            f"{system.config.num_cores} cores"
        )
    meta = workload_meta
    if meta is None:
        workload = system.workload
        meta = {
            "name": workload.name,
            "num_cores": workload.num_cores,
            "seed": workload.seed,
            "page_size": workload.page_size,
        }
    return EngineSnapshot(
        config=system.config.to_dict(),
        config_digest=config_hash(system.config),
        workload=meta,
        progress={
            "processed": int(processed),
            "consumed_per_core": [int(count) for count in consumed_per_core],
            "measurement_started": bool(measurement_started),
        },
        system=system_state_to_dict(system),
    )


def capture_cursor(
    cursor: "EngineCursor", workload_meta: Optional[Dict[str, Any]] = None
) -> EngineSnapshot:
    """Capture a snapshot from a controller edge's :class:`EngineCursor`."""
    return capture(
        cursor.system,
        processed=cursor.processed,
        consumed_per_core=cursor.consumed_per_core,
        measurement_started=cursor.measurement_started,
        workload_meta=workload_meta,
    )
