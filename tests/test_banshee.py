"""Unit tests for the Banshee DRAM-cache scheme."""

import pytest

from repro.core.banshee import BansheeCache
from repro.dramcache.base import OsServices
from repro.dramcache.components.replacement import AdaptiveSampler
from repro.memctrl.request import MappingInfo, MemRequest
from repro.sim.stats import MissRateWindow, TrafficCategory
from repro.util.rng import DeterministicRng


def demand(addr, cached=False, way=0, write=False, core=0):
    return MemRequest(addr=addr, is_write=write, core_id=core, mapping=MappingInfo(cached=cached, way=way))


def writeback(addr, core=0):
    return MemRequest(addr=addr, is_write=True, core_id=core, is_writeback=True)


class RecordingOs(OsServices):
    """Records PTE update batches for assertions."""

    def __init__(self):
        self.batches = []
        self.stalls = []

    def pte_update_batch(self, initiator_core, updates):
        self.batches.append((initiator_core, list(updates)))

    def stall_all_cores(self, cycles):
        self.stalls.append(cycles)


def make_banshee(scheme_env, **overrides):
    config, in_dram, off_dram, rng = scheme_env("banshee", **overrides)
    os_services = RecordingOs()
    scheme = BansheeCache(config, in_dram, off_dram, rng=rng, os_services=os_services)
    return scheme, in_dram, off_dram, os_services


def force_cache_page(scheme, page, mc_id=0, way=0):
    """Install a page into the Banshee cache directly (test helper)."""
    partition = scheme.partition_for(scheme.page_size)
    set_index = partition.set_of(page)
    meta = partition.metadata[set_index]
    meta.fill_way(way, page, count=5, dirty=False)
    partition.resident[page] = way
    scheme.tag_buffers[mc_id].insert(page, cached=True, way=way, remap=True)


def test_miss_goes_straight_off_package_no_probe(scheme_env):
    scheme, in_dram, off_dram, _os = make_banshee(scheme_env)
    result = scheme.access(0, demand(0x4000))
    assert not result.dram_cache_hit
    # Table 1: Banshee misses move 64 B from off-package DRAM and touch the
    # in-package DRAM not at all (no speculative read, no tag lookup).
    assert off_dram.traffic.bytes_for(TrafficCategory.MISS_DATA) == 64
    assert in_dram.traffic.bytes_for(TrafficCategory.HIT_DATA) == 0
    assert in_dram.traffic.bytes_for(TrafficCategory.TAG) == 0


def test_hit_moves_exactly_64_bytes(scheme_env):
    scheme, in_dram, off_dram, _os = make_banshee(scheme_env, sampling_coefficient=0.0001)
    page = 5
    force_cache_page(scheme, page)
    result = scheme.access(0, demand(page * 4096 + 128))
    assert result.dram_cache_hit
    assert in_dram.traffic.bytes_for(TrafficCategory.HIT_DATA) == 64
    assert off_dram.traffic.total_bytes == 0


def test_carried_mapping_is_never_stale(scheme_env):
    scheme, _in, _off, _os = make_banshee(scheme_env)
    for i in range(500):
        page = i % 40
        scheme.access(i, demand(page * 4096, cached=False))
    assert scheme.stats.get("mapping_stale") == 0


def test_fbr_replacement_caches_hot_page(scheme_env):
    scheme, in_dram, off_dram, _os = make_banshee(scheme_env, sampling_coefficient=1.0, replacement_threshold=4)
    page = 3
    for i in range(200):
        scheme.access(i * 10, demand(page * 4096 + (i % 64) * 64))
    assert scheme.partition_for(4096).is_resident(page)
    assert scheme.stats.get("replacements") >= 1
    assert in_dram.traffic.bytes_for(TrafficCategory.REPLACEMENT) >= 4096


def test_cold_pages_are_not_cached(scheme_env):
    scheme, _in, off_dram, _os = make_banshee(scheme_env, sampling_coefficient=1.0)
    partition = scheme.partition_for(4096)
    # A pure streaming pattern touches each page once: nothing should be cached.
    for page in range(200):
        scheme.access(page, demand(page * 4096))
    assert partition.occupancy() <= 2
    assert scheme.stats.get("replacements", ) <= 2


def test_replacement_threshold_prevents_thrashing(scheme_env):
    scheme, _in, _off, _os = make_banshee(scheme_env, sampling_coefficient=1.0, replacement_threshold=1000)
    page = 3
    for i in range(300):
        scheme.access(i, demand(page * 4096))
    # The threshold is unreachable within the counter range, so no replacement.
    assert scheme.stats.get("replacements") == 0


def test_counter_traffic_only_when_sampled(scheme_env):
    scheme, in_dram, _off, _os = make_banshee(scheme_env, sampling_coefficient=0.000001)
    for i in range(100):
        scheme.access(i, demand(i * 4096))
    assert in_dram.traffic.bytes_for(TrafficCategory.COUNTER) == 0

    scheme2, in_dram2, _off2, _os2 = make_banshee(scheme_env, banshee_policy="fbr-nosample")
    for i in range(100):
        scheme2.access(i, demand(i * 4096))
    # Without sampling every access loads and stores the 32 B metadata record.
    assert in_dram2.traffic.bytes_for(TrafficCategory.COUNTER) == 100 * 64


def test_writeback_uses_tag_buffer_and_probes_otherwise(scheme_env):
    scheme, in_dram, off_dram, _os = make_banshee(scheme_env)
    page = 9
    mc = page % len(scheme.tag_buffers)
    force_cache_page(scheme, page, mc_id=mc)
    result = scheme.access(0, writeback(page * 4096))
    assert result.served_by == "in-package"
    assert scheme.stats.get("writeback_tagbuffer_hits") == 1
    assert in_dram.traffic.bytes_for(TrafficCategory.TAG) == 0

    # A writeback to a page absent from the tag buffer must probe the in-DRAM tags.
    other = 123
    result = scheme.access(10, writeback(other * 4096))
    assert scheme.stats.get("writeback_tag_probes") == 1
    assert in_dram.traffic.bytes_for(TrafficCategory.TAG) == 32
    assert result.served_by == "off-package"
    assert off_dram.traffic.bytes_for(TrafficCategory.WRITEBACK) == 64


def test_dirty_page_eviction_writes_whole_page(scheme_env):
    scheme, in_dram, off_dram, _os = make_banshee(scheme_env, sampling_coefficient=1.0, replacement_threshold=4)
    partition = scheme.partition_for(4096)
    victim_page = 7
    # Fill every way of the set so that a replacement must evict a resident page.
    set_pages = [victim_page + way * partition.num_sets for way in range(partition.ways)]
    for way, page in enumerate(set_pages):
        force_cache_page(scheme, page, mc_id=page % len(scheme.tag_buffers), way=way)
    partition.mark_dirty(victim_page)
    # Hammer a competitor page of the same set until it displaces the victim.
    competitor = victim_page + partition.ways * partition.num_sets
    for i in range(600):
        scheme.access(i, demand(competitor * 4096))
        if not partition.is_resident(victim_page):
            break
    assert not partition.is_resident(victim_page)
    assert off_dram.traffic.bytes_for(TrafficCategory.WRITEBACK) >= 4096


def test_tag_buffer_flush_triggers_pte_update_batch(scheme_env):
    scheme, _in, _off, os_services = make_banshee(scheme_env, sampling_coefficient=1.0, replacement_threshold=2)
    scheme.set_os_services(os_services)
    # Force many replacements by cycling hot pages across many sets.
    for i in range(4000):
        page = i % 300
        scheme.access(i, demand(page * 4096 + (i % 64) * 64, write=(i % 5 == 0)))
        if os_services.batches:
            break
    assert os_services.batches, "filling the tag buffer with remaps must trigger a PTE update batch"
    initiator, updates = os_services.batches[0]
    assert updates, "the batch must carry the accumulated remap entries"
    assert all(len(item) == 3 for item in updates)
    for buffer in scheme.tag_buffers:
        assert buffer.remap_count == 0 or scheme.pte_updater.flushes >= 1


def test_finalize_flushes_outstanding_remaps(scheme_env):
    scheme, _in, _off, os_services = make_banshee(scheme_env, sampling_coefficient=1.0, replacement_threshold=2)
    scheme.set_os_services(os_services)
    page = 3
    for i in range(200):
        scheme.access(i, demand(page * 4096 + (i % 64) * 64))
    scheme.finalize(10_000)
    assert sum(buffer.remap_count for buffer in scheme.tag_buffers) == 0


def test_lru_policy_replaces_on_every_miss(scheme_env):
    scheme, in_dram, _off, _os = make_banshee(scheme_env, banshee_policy="lru")
    partition = scheme.partition_for(4096)
    for page in range(10):
        scheme.access(page, demand(page * 4096))
    assert partition.occupancy() == 10
    assert scheme.stats.get("replacements") == 10
    assert in_dram.traffic.bytes_for(TrafficCategory.REPLACEMENT) >= 10 * 4096


@pytest.mark.parametrize(
    "initial_rate, outcomes, coefficient, always, draws",
    [
        (0.5, 0, 0.1, False, True),  # probability 0.05: one draw decides
        (1.0, 600, 0.1, False, True),  # the blended-window branch of MissRateWindow.rate
        (1.0, 0, 1.0, False, False),  # a fresh window at coefficient 1.0: probability 1
        (0.5, 0, 0.1, True, False),  # fbr-nosample
        (0.0, 0, 0.1, False, False),  # probability 0
    ],
    ids=["between-0-and-1", "blended-window", "at-least-1", "always", "zero"],
)
def test_sampler_draws_only_for_a_probability_strictly_between_0_and_1(
    initial_rate, outcomes, coefficient, always, draws
):
    """``should_update`` keeps ``DeterministicRng.chance``'s boundaries.

    Only a probability strictly between 0 and 1 consumes a draw, and the
    probability is ``MissRateWindow.rate`` times the coefficient.
    """
    window = MissRateWindow(window=2048, initial_rate=initial_rate)
    for index in range(outcomes):
        window.record(index % 2 == 0)
    probability = window.rate * coefficient
    rng = DeterministicRng(5)
    sampler = AdaptiveSampler(window, coefficient, rng, always)
    before = rng.generator.bit_generator.state
    got = sampler.should_update()
    assert (rng.generator.bit_generator.state != before) == draws
    if draws:
        assert got == (DeterministicRng(5).random() < probability)
    else:
        assert got == (always or probability >= 1.0)
