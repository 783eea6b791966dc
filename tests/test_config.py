"""Unit tests for the configuration dataclasses."""

from fractions import Fraction

import pytest

from repro.sim.config import (
    PAGE_SIZE_4K,
    CacheLevelConfig,
    DramCacheConfig,
    DramConfig,
    DramTimingConfig,
    SystemConfig,
)
from repro.util.units import KB, MB


def test_paper_default_matches_table2():
    config = SystemConfig.paper_default()
    assert config.num_cores == 16
    assert config.in_package_dram.capacity_bytes == 1024 * MB
    assert config.in_package_dram.num_channels == 4
    assert config.off_package_dram.num_channels == 1
    assert config.l3.size_bytes == 8 * MB
    assert config.dram_cache.ways == 4
    assert config.dram_cache.sampling_coefficient == pytest.approx(0.1)


def test_scaled_default_preserves_bandwidth_ratio():
    config = SystemConfig.scaled_default(num_cores=4)
    ratio = config.in_package_dram.peak_bandwidth_gb_per_s / config.off_package_dram.peak_bandwidth_gb_per_s
    assert ratio == pytest.approx(4.0)


def test_scaled_default_keeps_bandwidth_per_core_not_capacity_ratios():
    """Each factor the ``scaled_default`` docstring states, read from both
    presets (per core, at the scaled preset's default 4 cores)."""
    paper, scaled = SystemConfig.paper_default(), SystemConfig.scaled_default()

    def in_package(config):
        return Fraction(config.in_package_dram.capacity_bytes, config.num_cores)

    def llc(config):
        return Fraction(config.l3.size_bytes, config.num_cores)

    def tag_buffer_coverage(config):
        entries = config.num_mem_controllers * config.dram_cache.tag_buffer_entries
        return Fraction(entries, config.dram_cache_pages)

    assert in_package(scaled) / in_package(paper) == Fraction(1, 32)
    assert llc(scaled) / llc(paper) == Fraction(1, 8)
    assert llc(paper) / in_package(paper) == Fraction(1, 128)
    assert llc(scaled) / in_package(scaled) == Fraction(1, 32)
    assert Fraction(scaled.l1.size_bytes, paper.l1.size_bytes) == Fraction(1, 2)
    assert Fraction(scaled.l2.size_bytes, paper.l2.size_bytes) == Fraction(1, 2)
    assert paper.tlb.entries * PAGE_SIZE_4K == scaled.tlb.entries * PAGE_SIZE_4K == 256 * KB
    assert tag_buffer_coverage(paper) == Fraction(1, 64)  # 1.6%
    assert tag_buffer_coverage(scaled) == Fraction(1, 2)
    for dram in ("in_package_dram", "off_package_dram"):
        per_core = [getattr(config, dram).peak_bandwidth_gb_per_s / config.num_cores
                    for config in (paper, scaled)]
        assert per_core[1] == pytest.approx(per_core[0])
    # Capacities stay put as the core count changes; bandwidth follows it.
    eight = SystemConfig.scaled_default(num_cores=8)
    assert eight.in_package_dram.capacity_bytes == scaled.in_package_dram.capacity_bytes
    assert eight.l3.size_bytes == scaled.l3.size_bytes
    assert (eight.in_package_dram.peak_bandwidth_gb_per_s
            == pytest.approx(2 * scaled.in_package_dram.peak_bandwidth_gb_per_s))


def test_peak_bandwidth_matches_paper():
    timing = DramTimingConfig()
    # 128-bit channel at DDR-1333 is ~21.3 GB/s; 4 channels are ~85 GB/s.
    assert timing.peak_bandwidth_gb_per_s == pytest.approx(21.3, abs=0.5)
    in_package = DramConfig(name="in", capacity_bytes=MB, num_channels=4)
    assert in_package.peak_bandwidth_gb_per_s == pytest.approx(85.3, abs=2.0)


def test_cache_level_validation():
    with pytest.raises(ValueError):
        CacheLevelConfig(size_bytes=0, ways=4)
    with pytest.raises(ValueError):
        CacheLevelConfig(size_bytes=48 * 1024, ways=5)  # non power-of-two sets


def test_dram_cache_config_validation():
    with pytest.raises(ValueError):
        DramCacheConfig(scheme="bogus")
    with pytest.raises(ValueError):
        DramCacheConfig(sampling_coefficient=0.0)
    with pytest.raises(ValueError):
        DramCacheConfig(banshee_policy="mru")


def test_effective_threshold_formula():
    config = DramCacheConfig()
    # page_size(lines)=64, coeff=0.1 -> 64*0.1/2 = 3.2 -> 3
    assert config.effective_threshold(4096, 0.1) == 3
    # explicit override wins
    override = DramCacheConfig(replacement_threshold=7)
    assert override.effective_threshold(4096, 0.1) == 7


def test_counter_max():
    assert DramCacheConfig(counter_bits=5).counter_max == 31


def test_with_scheme_returns_new_config():
    config = SystemConfig.tiny(scheme="banshee")
    alloy = config.with_scheme("alloy", alloy_replacement_probability=0.1)
    assert alloy.dram_cache.scheme == "alloy"
    assert alloy.dram_cache.alloy_replacement_probability == pytest.approx(0.1)
    assert config.dram_cache.scheme == "banshee"


def test_dram_cache_sets_and_pages():
    config = SystemConfig.tiny()
    assert config.dram_cache_pages == config.in_package_dram.capacity_bytes // 4096
    assert config.dram_cache_sets == config.dram_cache_pages // config.dram_cache.ways


def test_llc_must_be_smaller_than_dram_cache():
    with pytest.raises(ValueError):
        SystemConfig(
            in_package_dram=DramConfig(name="in", capacity_bytes=256 * 1024, num_channels=1),
            l3=CacheLevelConfig(size_bytes=512 * 1024, ways=16),
        )
