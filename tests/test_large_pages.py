"""Unit tests for large-page partition planning and routing."""

import pytest

from repro.core.banshee import BansheeCache
from repro.core.large_pages import plan_partitions
from repro.dram.device import DramDevice
from repro.memctrl.request import MappingInfo, MemRequest
from repro.sim.config import MB, DramCacheConfig, SystemConfig
from repro.util.rng import DeterministicRng


def test_plan_all_small_pages():
    config = DramCacheConfig(large_page_fraction=0.0)
    plans = plan_partitions(config, 64 * MB)
    assert len(plans) == 1
    assert plans[0].page_size == 4096
    assert plans[0].capacity_bytes == 64 * MB


def test_plan_all_large_pages():
    config = DramCacheConfig(large_page_fraction=1.0)
    plans = plan_partitions(config, 64 * MB)
    large = [plan for plan in plans if plan.page_size == 2 * MB]
    assert large and large[0].num_pages == 32
    assert large[0].sampling_coefficient == pytest.approx(0.001)


def test_plan_split_rounds_to_whole_large_pages():
    config = DramCacheConfig(large_page_fraction=0.5)
    plans = plan_partitions(config, 64 * MB)
    total = sum(plan.capacity_bytes for plan in plans)
    assert total == 64 * MB
    large = [plan for plan in plans if plan.page_size == 2 * MB][0]
    assert large.capacity_bytes % (2 * MB) == 0


def test_plan_rejects_zero_capacity():
    with pytest.raises(ValueError):
        plan_partitions(DramCacheConfig(), 0)


def test_large_page_threshold_scales_with_page_size():
    config = DramCacheConfig()
    small = config.effective_threshold(4096, 0.1)
    large = config.effective_threshold(2 * MB, 0.001)
    assert large > small


def test_banshee_routes_large_requests_to_large_partition():
    config = SystemConfig.tiny(scheme="banshee")
    config = config.with_scheme("banshee", large_page_fraction=1.0, large_page_size=64 * 1024)
    in_dram = DramDevice(config.in_package_dram, config.core.freq_ghz)
    off_dram = DramDevice(config.off_package_dram, config.core.freq_ghz)
    scheme = BansheeCache(config, in_dram, off_dram, rng=DeterministicRng(1))
    large_partition = scheme.partition_for(64 * 1024)
    assert large_partition.page_size == 64 * 1024
    request = MemRequest(addr=0, is_write=False, core_id=0, mapping=MappingInfo(), page_size=64 * 1024)
    result = scheme.access(0, request)
    assert result.dram_cache_hit is False
