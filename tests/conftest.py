"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.dram.device import DramDevice
from repro.sim.config import SCHEMES, SystemConfig
from repro.util.rng import DeterministicRng

#: Named sensitivity points (Sections 5-6) that the write-path goldens
#: (``data/golden_write_paths.json``) and the cross-engine tests pin, as
#: (scheme, DramCacheConfig overrides).  Their golden results were recorded
#: under these names; a run reports the scheme alone.
SENSITIVITY_POINTS = {
    "banshee-tb128": ("banshee", {"tag_buffer_entries": 128}),
    "banshee-tb4k": ("banshee", {"tag_buffer_entries": 4096}),
    "banshee-sample01": ("banshee", {"sampling_coefficient": 0.01}),
    "banshee-sample32": ("banshee", {"sampling_coefficient": 0.32}),
    "banshee-nosample": ("banshee", {"banshee_policy": "fbr-nosample"}),
    "banshee-2way": ("banshee", {"ways": 2}),
    "banshee-8way": ("banshee", {"ways": 8}),
    "unison-2way": ("unison", {"ways": 2}),
    "banshee-2kpage": ("banshee", {"page_size": 2048}),
    "unison-2kpage": ("unison", {"page_size": 2048}),
    "unison-8kpage": ("unison", {"page_size": 8192}),
    "banshee-lru": ("banshee", {"banshee_policy": "lru"}),
    "alloy-p10": ("alloy", {"alloy_replacement_probability": 0.1}),
    "banshee-batman": ("banshee", {"bandwidth_balance": True}),
    "hma-10ms": ("hma", {"hma_interval_ms": 10.0}),
}

#: Every scheme alone plus every sensitivity point: name -> (scheme, overrides).
CONFIGURATIONS = {**{name: (name, {}) for name in sorted(SCHEMES)}, **SENSITIVITY_POINTS}


def build_config(name, preset=SystemConfig.tiny, **preset_args):
    """``preset``'s configuration for the ``CONFIGURATIONS`` entry ``name``."""
    scheme, overrides = CONFIGURATIONS[name]
    return preset(scheme=scheme, **preset_args).with_scheme(scheme, **overrides)


@pytest.fixture
def tiny_config():
    """A tiny system configuration (Banshee scheme by default)."""
    return SystemConfig.tiny()


@pytest.fixture
def scheme_env():
    """Build (config, in_dram, off_dram, rng) for DRAM-cache scheme unit tests."""

    def build(scheme: str = "banshee", **dram_cache_overrides):
        config = SystemConfig.tiny(scheme=scheme)
        if dram_cache_overrides:
            config = config.with_scheme(scheme, **dram_cache_overrides)
        in_dram = DramDevice(config.in_package_dram, config.core.freq_ghz)
        off_dram = DramDevice(config.off_package_dram, config.core.freq_ghz)
        return config, in_dram, off_dram, DeterministicRng(7)

    return build
