"""Unit tests for the baseline DRAM-cache schemes (NoCache, CacheOnly, Alloy, Unison, TDC, HMA)."""

import pytest

from repro.dramcache.alloy import AlloyCache
from repro.dramcache.cache_only import CacheOnly
from repro.dramcache.factory import create_scheme
from repro.dramcache.hma import HmaCache
from repro.dramcache.no_cache import NoCache
from repro.dramcache.tdc import TaglessDramCache
from repro.dramcache.unison import UnisonCache
from repro.memctrl.request import MemRequest
from repro.sim.config import SCHEMES
from repro.sim.stats import TrafficCategory


def read(addr, core=0, write=False, writeback=False):
    return MemRequest(addr=addr, is_write=write, core_id=core, is_writeback=writeback)


# --------------------------------------------------------------------------- NoCache / CacheOnly


def test_nocache_goes_off_package(scheme_env):
    config, in_dram, off_dram, rng = scheme_env("nocache")
    scheme = NoCache(config, in_dram, off_dram, rng=rng)
    result = scheme.access(0, read(0x1000))
    assert result.served_by == "off-package"
    assert not result.dram_cache_hit
    assert off_dram.traffic.total_bytes == 64
    assert in_dram.traffic.total_bytes == 0


def test_cacheonly_always_hits(scheme_env):
    config, in_dram, off_dram, rng = scheme_env("cacheonly")
    scheme = CacheOnly(config, in_dram, off_dram, rng=rng)
    for i in range(50):
        result = scheme.access(0, read(i * 4096))
        assert result.dram_cache_hit
    assert scheme.miss_rate == 0.0
    assert off_dram.traffic.total_bytes == 0


# --------------------------------------------------------------------------- Alloy Cache


def test_alloy_hit_after_fill(scheme_env):
    config, in_dram, off_dram, rng = scheme_env("alloy", alloy_replacement_probability=1.0)
    scheme = AlloyCache(config, in_dram, off_dram, rng=rng)
    miss = scheme.access(0, read(0x2000))
    assert not miss.dram_cache_hit
    hit = scheme.access(100, read(0x2000))
    assert hit.dram_cache_hit


def test_alloy_hit_traffic_is_96_bytes(scheme_env):
    config, in_dram, off_dram, rng = scheme_env("alloy")
    scheme = AlloyCache(config, in_dram, off_dram, rng=rng)
    scheme.access(0, read(0x2000))
    before = in_dram.traffic.total_bytes
    scheme.access(100, read(0x2000))
    assert in_dram.traffic.total_bytes - before == 96  # 64 B data + 32 B tag (TAD)


def test_alloy_stochastic_fill_probability_zero_never_fills(scheme_env):
    config, in_dram, off_dram, rng = scheme_env("alloy", alloy_replacement_probability=0.0)
    scheme = AlloyCache(config, in_dram, off_dram, rng=rng)
    for _ in range(5):
        scheme.access(0, read(0x2000))
    assert scheme.stats.get("fills") == 0
    assert scheme.miss_rate == 1.0


def test_alloy_conflict_eviction_writes_back_dirty_line(scheme_env):
    config, in_dram, off_dram, rng = scheme_env("alloy", alloy_replacement_probability=1.0)
    scheme = AlloyCache(config, in_dram, off_dram, rng=rng)
    conflict_stride = scheme.num_frames * scheme.line_size
    scheme.access(0, read(0x0, write=True))
    scheme.access(10, read(conflict_stride))  # same frame, evicts dirty line
    assert scheme.stats.get("dirty_victim_writebacks") == 1
    assert off_dram.traffic.bytes_for(TrafficCategory.WRITEBACK) == 64


def test_alloy_writeback_probe(scheme_env):
    config, in_dram, off_dram, rng = scheme_env("alloy")
    scheme = AlloyCache(config, in_dram, off_dram, rng=rng)
    scheme.access(0, read(0x2000, write=True))
    hit = scheme.access(10, read(0x2000, writeback=True))
    assert hit.dram_cache_hit
    miss = scheme.access(20, read(0x9999000, writeback=True))
    assert not miss.dram_cache_hit
    assert scheme.stats.get("writeback_misses") == 1


# --------------------------------------------------------------------------- Unison Cache


def test_unison_replaces_on_every_miss(scheme_env):
    config, in_dram, off_dram, rng = scheme_env("unison")
    scheme = UnisonCache(config, in_dram, off_dram, rng=rng)
    scheme.access(0, read(0x4000))
    assert scheme.stats.get("page_fills") == 1
    assert scheme.is_resident(0x4000 // 4096)
    hit = scheme.access(10, read(0x4000 + 64))
    assert hit.dram_cache_hit


def test_unison_hit_traffic_includes_tag_update(scheme_env):
    config, in_dram, off_dram, rng = scheme_env("unison")
    scheme = UnisonCache(config, in_dram, off_dram, rng=rng)
    scheme.access(0, read(0x4000))
    before_tag = in_dram.traffic.bytes_for(TrafficCategory.TAG)
    scheme.access(10, read(0x4000))
    assert in_dram.traffic.bytes_for(TrafficCategory.TAG) - before_tag == 64  # read + update


def test_unison_lru_eviction_within_set(scheme_env):
    config, in_dram, off_dram, rng = scheme_env("unison")
    scheme = UnisonCache(config, in_dram, off_dram, rng=rng)
    ways = scheme.ways
    set_stride = scheme.num_sets * 4096
    pages = [i * set_stride for i in range(ways + 1)]
    for addr in pages:
        scheme.access(0, read(addr))
    # The first page mapped to the set is the LRU victim and must be gone.
    assert not scheme.is_resident(pages[0] // 4096)
    assert scheme.is_resident(pages[-1] // 4096)


def test_unison_dirty_page_eviction_writes_back(scheme_env):
    config, in_dram, off_dram, rng = scheme_env("unison")
    scheme = UnisonCache(config, in_dram, off_dram, rng=rng)
    set_stride = scheme.num_sets * 4096
    scheme.access(0, read(0x0, write=True))
    for i in range(1, scheme.ways + 1):
        scheme.access(i, read(i * set_stride))
    assert scheme.stats.get("dirty_page_evictions") == 1


# --------------------------------------------------------------------------- TDC


def test_tdc_has_no_tag_traffic(scheme_env):
    config, in_dram, off_dram, rng = scheme_env("tdc")
    scheme = TaglessDramCache(config, in_dram, off_dram, rng=rng)
    for i in range(20):
        scheme.access(i, read(i * 4096))
        scheme.access(i, read(i * 4096 + 64))
    assert in_dram.traffic.bytes_for(TrafficCategory.TAG) == 0
    assert in_dram.traffic.bytes_for(TrafficCategory.COUNTER) == 0


def test_tdc_fifo_eviction(scheme_env):
    config, in_dram, off_dram, rng = scheme_env("tdc")
    scheme = TaglessDramCache(config, in_dram, off_dram, rng=rng)
    capacity = scheme.capacity_pages
    for page in range(capacity + 1):
        scheme.access(page, read(page * 4096))
    assert not scheme.is_resident(0), "FIFO must evict the oldest page"
    assert scheme.is_resident(capacity)
    assert len(scheme._resident) <= capacity


def test_tdc_hit_is_64_bytes(scheme_env):
    config, in_dram, off_dram, rng = scheme_env("tdc")
    scheme = TaglessDramCache(config, in_dram, off_dram, rng=rng)
    scheme.access(0, read(0x4000))
    before = in_dram.traffic.bytes_for(TrafficCategory.HIT_DATA)
    scheme.access(10, read(0x4000 + 128))
    assert in_dram.traffic.bytes_for(TrafficCategory.HIT_DATA) - before == 64


# --------------------------------------------------------------------------- HMA


def test_hma_caches_hot_pages_only_after_interval(scheme_env):
    config, in_dram, off_dram, rng = scheme_env("hma", hma_interval_ms=0.001)
    scheme = HmaCache(config, in_dram, off_dram, rng=rng)
    hot_addr = 0x8000
    for i in range(50):
        scheme.access(i, read(hot_addr))
    assert not scheme.is_resident(hot_addr // 4096)
    # Cross the remap interval: the hot page must now be resident.
    scheme.access(10_000_000, read(hot_addr))
    scheme.access(10_000_001, read(hot_addr))
    assert scheme.is_resident(hot_addr // 4096)
    assert scheme.stats.get("remap_intervals") >= 1


def test_hma_resident_capacity_bounded(scheme_env):
    config, in_dram, off_dram, rng = scheme_env("hma", hma_interval_ms=0.001)
    scheme = HmaCache(config, in_dram, off_dram, rng=rng)
    for page in range(3 * scheme.capacity_pages):
        scheme.access(page, read(page * 4096))
    scheme.notify_cycle(1 << 40)
    assert len(scheme._resident) <= scheme.capacity_pages


# --------------------------------------------------------------------------- factory


def test_factory_builds_every_scheme(scheme_env):
    for name in SCHEMES:
        config, in_dram, off_dram, rng = scheme_env(name)
        scheme = create_scheme(config, in_dram, off_dram, rng=rng)
        assert scheme.name == name


def test_factory_rejects_unknown_scheme(scheme_env):
    config, in_dram, off_dram, rng = scheme_env("banshee")
    bad = config.with_overrides()
    # Bypass config validation entirely; the factory must still refuse to
    # build a scheme it has no class for.
    object.__setattr__(bad.dram_cache, "scheme", "nonsense")
    with pytest.raises(KeyError):
        create_scheme(bad, in_dram, off_dram, rng=rng)
