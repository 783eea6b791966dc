"""Configuration dataclasses for the simulated system.

The configuration tree mirrors Table 2 and Table 3 of the Banshee paper.
Two presets are provided:

* :meth:`SystemConfig.paper_default` — the parameters of Table 2 / Table 3
  (16 cores, 1 GB in-package DRAM, 8 MB LLC, ...).  Running at this scale in
  a pure-Python simulator is possible but slow; it is provided for fidelity.
* :meth:`SystemConfig.scaled_default` — a scaled-down system used by the
  test suite and the benchmark harness; its docstring says what it keeps of
  the paper's system and what it does not.

Every dataclass validates itself in ``__post_init__`` so that a bad
configuration fails loudly at construction time rather than mid-simulation.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.util.bits import is_power_of_two
from repro.util.units import GB, KB, MB

CACHELINE_SIZE = 64
PAGE_SIZE_4K = 4 * KB
PAGE_SIZE_2M = 2 * MB


@dataclass
class DramTimingConfig:
    """DDR-style timing for one DRAM technology (Table 2).

    Attributes:
        bus_mhz: I/O bus frequency in MHz (data is transferred on both edges).
        bus_width_bits: channel width in bits.
        tcas, trcd, trp: timing parameters in DRAM bus cycles.  A row hit
            costs tCAS and a row miss tRP + tRCD + tCAS
            (:class:`repro.dram.timing.DramTiming`); tRAS is not modelled.
        min_transfer_bytes: minimum data transfer granularity (32 B for HBM).
    """

    bus_mhz: float = 667.0
    bus_width_bits: int = 128
    tcas: int = 10
    trcd: int = 10
    trp: int = 10
    min_transfer_bytes: int = 32

    def __post_init__(self) -> None:
        if self.bus_mhz <= 0:
            raise ValueError(f"bus_mhz must be positive, got {self.bus_mhz}")
        if self.bus_width_bits % 8 != 0 or self.bus_width_bits <= 0:
            raise ValueError(f"bus_width_bits must be a positive multiple of 8, got {self.bus_width_bits}")
        for name in ("tcas", "trcd", "trp"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.min_transfer_bytes <= 0:
            raise ValueError("min_transfer_bytes must be positive")

    @property
    def peak_bandwidth_gb_per_s(self) -> float:
        """Peak channel bandwidth in GB/s (DDR: two transfers per bus cycle)."""
        transfers_per_s = self.bus_mhz * 1e6 * 2.0
        return transfers_per_s * (self.bus_width_bits / 8.0) / 1e9


@dataclass
class DramConfig:
    """One DRAM device (in-package or off-package)."""

    name: str
    capacity_bytes: int
    num_channels: int
    timing: DramTimingConfig = field(default_factory=DramTimingConfig)
    latency_scale: float = 1.0
    bandwidth_scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("DRAM device needs a name")
        if self.capacity_bytes <= 0:
            raise ValueError(f"capacity_bytes must be positive, got {self.capacity_bytes}")
        if self.num_channels <= 0:
            raise ValueError(f"num_channels must be positive, got {self.num_channels}")
        if self.latency_scale <= 0 or self.bandwidth_scale <= 0:
            raise ValueError("latency_scale and bandwidth_scale must be positive")

    @property
    def peak_bandwidth_gb_per_s(self) -> float:
        """Aggregate peak bandwidth across channels, after scaling."""
        return self.timing.peak_bandwidth_gb_per_s * self.num_channels * self.bandwidth_scale


@dataclass
class CacheLevelConfig:
    """One SRAM cache level (LRU; its hit latency is in :class:`CoreConfig`)."""

    size_bytes: int
    ways: int
    line_size: int = CACHELINE_SIZE

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("cache size must be positive")
        if self.ways <= 0:
            raise ValueError("cache ways must be positive")
        if not is_power_of_two(self.line_size):
            raise ValueError(f"line_size must be a power of two, got {self.line_size}")
        if self.size_bytes % (self.ways * self.line_size) != 0:
            raise ValueError(
                f"cache size {self.size_bytes} not divisible by ways*line ({self.ways}*{self.line_size})"
            )
        num_sets = self.size_bytes // (self.ways * self.line_size)
        if not is_power_of_two(num_sets):
            raise ValueError(f"number of sets must be a power of two, got {num_sets}")

    @property
    def num_sets(self) -> int:
        """Number of sets in this cache."""
        return self.size_bytes // (self.ways * self.line_size)


@dataclass
class TlbConfig:
    """Per-core TLB parameters."""

    entries: int = 64
    page_walk_cycles: int = 100

    def __post_init__(self) -> None:
        if self.entries <= 0:
            raise ValueError("TLB must have at least one entry")
        if self.page_walk_cycles < 0:
            raise ValueError("page_walk_cycles must be non-negative")


@dataclass
class CoreConfig:
    """Analytic core timing model parameters.

    The memory-level parallelism that divides LLC-miss latency is the
    running workload's (``Workload.mlp``), not a core parameter.
    """

    freq_ghz: float = 2.7
    issue_width: int = 4
    l1_hit_latency: int = 1
    l2_hit_latency: int = 10
    l3_hit_latency: int = 30

    def __post_init__(self) -> None:
        if self.freq_ghz <= 0:
            raise ValueError("core frequency must be positive")
        if self.issue_width <= 0:
            raise ValueError("issue_width must be positive")


@dataclass
class DramCacheConfig:
    """DRAM-cache scheme selection and parameters (Table 3).

    ``scheme`` may name a base scheme or a registered variant
    (:mod:`repro.dramcache.variants`).  Variant resolution happens *here*,
    at construction time: the variant's field overrides are folded into
    this dataclass and the resolved base is recorded in ``base_scheme``,
    so every consumer of the configuration — workload builders, page
    tables, cell keys, result metadata — sees the values the scheme will
    actually simulate with.  ``base_scheme`` also makes a resolved config
    self-contained: a worker process (or a later session) can build the
    scheme without the registering process's runtime registry.
    """

    scheme: str = "banshee"
    #: Resolved by __post_init__; leave at the default when constructing.
    base_scheme: str = ""
    #: Field values a preset supplied (see :func:`preset_dram_cache`).  A
    #: variant may fold over these silently (they are baselines, not user
    #: intent), and ``with_scheme`` restores them when a variant's delta is
    #: reverted.  Leave at the default when constructing directly.
    preset_defaults: Dict[str, object] = field(default_factory=dict)
    ways: int = 4
    page_size: int = PAGE_SIZE_4K

    # Banshee tag buffer / lazy TLB coherence.
    tag_buffer_entries: int = 1024
    tag_buffer_ways: int = 8
    tag_buffer_flush_threshold: float = 0.7
    tag_buffer_flush_cost_us: float = 20.0
    tlb_shootdown_initiator_us: float = 4.0
    tlb_shootdown_slave_us: float = 1.0

    # Banshee frequency-based replacement.
    counter_bits: int = 5
    sampling_coefficient: float = 0.1
    num_candidates: int = 5
    replacement_threshold: Optional[int] = None

    # Banshee policy ablations (Figure 7).
    banshee_policy: str = "fbr-sample"

    # Large-page support (Section 5.4.1).
    large_page_size: int = PAGE_SIZE_2M
    large_page_sampling_coefficient: float = 0.001
    large_page_fraction: float = 0.0

    # Alloy / BEAR (Section 5.1.1).
    alloy_replacement_probability: float = 1.0

    # Unison / TDC footprint prediction.
    footprint_granularity_lines: int = 4

    # HMA (software-managed) parameters.
    hma_interval_ms: float = 100.0
    hma_remap_cost_us: float = 100.0

    # Bandwidth balancing extension (Section 5.4.2, BATMAN).
    bandwidth_balance: bool = False
    bandwidth_balance_target: float = 0.8

    def __post_init__(self) -> None:
        # Imported here, not at module level: the variant registry lives in
        # repro.dramcache (which imports this module).  Resolving against
        # the registry is what lets a declared variant name ("banshee-tb4k")
        # flow through every layer that carries a SystemConfig.
        from repro.dramcache.variants import BASE_SCHEMES, resolve_scheme

        try:
            base, overrides = resolve_scheme(self.scheme)
        except ValueError:
            # A runtime-registered variant resolved in another process
            # (campaign worker, store resume) is acceptable: the overrides
            # were folded into the field values when the config was first
            # built, and base_scheme says what to construct.
            if self.base_scheme not in BASE_SCHEMES:
                raise
        else:
            defaults = {f.name: f.default for f in dataclasses.fields(self)}
            for key, value in overrides.items():
                current = getattr(self, key)
                if (
                    current != value
                    and current != defaults[key]
                    and current != self.preset_defaults.get(key, defaults[key])
                ):
                    # The caller explicitly set a field the variant also
                    # sets (it is neither the dataclass default nor a preset
                    # baseline): reject rather than silently resolve.
                    raise ValueError(
                        f"{key}={current!r} conflicts with variant {self.scheme!r} "
                        f"(it sets {key}={value!r}); use base scheme {base!r} "
                        f"with explicit overrides instead"
                    )
                setattr(self, key, value)
            self.base_scheme = base
        if self.ways <= 0:
            raise ValueError("DRAM cache ways must be positive")
        if not is_power_of_two(self.page_size):
            raise ValueError("page_size must be a power of two")
        if not 0.0 < self.tag_buffer_flush_threshold <= 1.0:
            raise ValueError("tag_buffer_flush_threshold must be in (0, 1]")
        if self.counter_bits <= 0 or self.counter_bits > 16:
            raise ValueError("counter_bits must be in [1, 16]")
        if not 0.0 < self.sampling_coefficient <= 1.0:
            raise ValueError("sampling_coefficient must be in (0, 1]")
        if self.num_candidates < 0:
            raise ValueError("num_candidates must be non-negative")
        if self.banshee_policy not in ("fbr-sample", "fbr-nosample", "lru"):
            raise ValueError(f"unknown banshee_policy {self.banshee_policy!r}")
        if not 0.0 <= self.alloy_replacement_probability <= 1.0:
            raise ValueError("alloy_replacement_probability must be in [0, 1]")
        if self.footprint_granularity_lines <= 0:
            raise ValueError("footprint_granularity_lines must be positive")
        if not 0.0 <= self.large_page_fraction <= 1.0:
            raise ValueError("large_page_fraction must be in [0, 1]")

    @property
    def counter_max(self) -> int:
        """Largest value a frequency counter can hold."""
        return (1 << self.counter_bits) - 1

    def effective_threshold(self, page_size: int, sampling_coefficient: float) -> int:
        """Replacement threshold: page_size(lines) * sampling_coeff / 2 (Section 4.2.2).

        The threshold is capped at half the counter range so that it always
        stays reachable within the counter width (relevant only for the large
        sampling coefficients of the Figure 9 sweep).
        """
        if self.replacement_threshold is not None:
            return self.replacement_threshold
        lines = page_size // CACHELINE_SIZE
        threshold = max(1, int(lines * sampling_coefficient / 2.0))
        return min(threshold, max(1, self.counter_max // 2))


def preset_dram_cache(scheme: str, **preset_values: object) -> DramCacheConfig:
    """Build a preset's ``DramCacheConfig``, recording the preset baselines.

    Presets scale some DRAM-cache parameters (e.g. the tiny preset's
    64-entry tag buffer).  Recording them in ``preset_defaults`` marks them
    as baselines rather than user intent: a variant that sets the same
    parameter wins silently (``banshee-tb4k`` means a 4096-entry tag buffer
    on every preset), and ``with_scheme`` restores the preset value when a
    variant's delta is reverted.
    """
    return DramCacheConfig(scheme=scheme, preset_defaults=dict(preset_values), **preset_values)


@dataclass
class SystemConfig:
    """Top-level system configuration."""

    num_cores: int = 4
    num_mem_controllers: int = 4
    cacheline_size: int = CACHELINE_SIZE
    core: CoreConfig = field(default_factory=CoreConfig)
    l1: CacheLevelConfig = field(default_factory=lambda: CacheLevelConfig(size_bytes=16 * KB, ways=8))
    l2: CacheLevelConfig = field(default_factory=lambda: CacheLevelConfig(size_bytes=64 * KB, ways=8))
    l3: CacheLevelConfig = field(default_factory=lambda: CacheLevelConfig(size_bytes=512 * KB, ways=16))
    tlb: TlbConfig = field(default_factory=TlbConfig)
    dram_cache: DramCacheConfig = field(default_factory=DramCacheConfig)
    in_package_dram: DramConfig = field(
        default_factory=lambda: DramConfig(name="in-package", capacity_bytes=16 * MB, num_channels=4)
    )
    off_package_dram: DramConfig = field(
        default_factory=lambda: DramConfig(name="off-package", capacity_bytes=16 * GB, num_channels=1)
    )
    seed: int = 1

    def __post_init__(self) -> None:
        if self.num_cores <= 0:
            raise ValueError("num_cores must be positive")
        if self.num_mem_controllers <= 0:
            raise ValueError("num_mem_controllers must be positive")
        if not is_power_of_two(self.cacheline_size):
            raise ValueError("cacheline_size must be a power of two")
        if self.in_package_dram.capacity_bytes % self.dram_cache.page_size != 0:
            raise ValueError("in-package capacity must be a multiple of the DRAM cache page size")
        cache_pages = self.in_package_dram.capacity_bytes // self.dram_cache.page_size
        if cache_pages % self.dram_cache.ways != 0:
            raise ValueError("in-package pages must be divisible by DRAM cache associativity")
        if self.l3.size_bytes >= self.in_package_dram.capacity_bytes:
            raise ValueError("the LLC must be smaller than the in-package DRAM cache")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    # ------------------------------------------------------------------ presets

    @classmethod
    def paper_default(cls, scheme: str = "banshee") -> "SystemConfig":
        """Full-scale configuration of Table 2 / Table 3 of the paper."""
        return cls(
            num_cores=16,
            num_mem_controllers=4,
            core=CoreConfig(freq_ghz=2.7, issue_width=4),
            l1=CacheLevelConfig(size_bytes=32 * KB, ways=8),
            l2=CacheLevelConfig(size_bytes=128 * KB, ways=8),
            l3=CacheLevelConfig(size_bytes=8 * MB, ways=16),
            tlb=TlbConfig(entries=64),
            dram_cache=preset_dram_cache(scheme),
            in_package_dram=DramConfig(name="in-package", capacity_bytes=1 * GB, num_channels=4),
            off_package_dram=DramConfig(name="off-package", capacity_bytes=64 * GB, num_channels=1),
        )

    @classmethod
    def scaled_default(cls, scheme: str = "banshee", num_cores: int = 4, seed: int = 1) -> "SystemConfig":
        """Scaled-down configuration used by the benchmark harness.

        It keeps two things of :meth:`paper_default`.  Channel bandwidth is
        scaled by ``num_cores / 16``, so the *bandwidth per core* matches
        the paper's 16-core system (the paper itself uses the same argument
        to relate its configuration to Knights Landing).  The TLB keeps its
        absolute reach: 64 entries, 256 KB of 4 KB pages.

        None of the capacity ratios to the DRAM cache holds.  Per core, at
        the default 4 cores:

        * in-package DRAM shrinks to 1/32 (2 MB) and the LLC share to 1/8
          (64 KB), so LLC : DRAM cache is 1:32 instead of 1:128;
        * L1 and L2 shrink to 1/2 (16 KB and 64 KB);
        * the tag buffers (256 entries per controller) cover 50% of the
          cache's pages instead of 1.6%.

        The 8 MB in-package DRAM and the 256 KB LLC do not change with
        ``num_cores``.
        """
        bandwidth_scale = max(0.0625, num_cores / 16.0)
        return cls(
            num_cores=num_cores,
            num_mem_controllers=4,
            core=CoreConfig(freq_ghz=2.7, issue_width=4),
            l1=CacheLevelConfig(size_bytes=16 * KB, ways=8),
            l2=CacheLevelConfig(size_bytes=64 * KB, ways=8),
            l3=CacheLevelConfig(size_bytes=256 * KB, ways=16),
            tlb=TlbConfig(entries=64),
            dram_cache=preset_dram_cache(scheme, tag_buffer_entries=256),
            in_package_dram=DramConfig(
                name="in-package", capacity_bytes=8 * MB, num_channels=4, bandwidth_scale=bandwidth_scale
            ),
            off_package_dram=DramConfig(
                name="off-package", capacity_bytes=16 * GB, num_channels=1, bandwidth_scale=bandwidth_scale
            ),
            seed=seed,
        )

    @classmethod
    def tiny(cls, scheme: str = "banshee", num_cores: int = 2, seed: int = 1) -> "SystemConfig":
        """A very small configuration for unit tests."""
        return cls(
            num_cores=num_cores,
            num_mem_controllers=2,
            core=CoreConfig(freq_ghz=2.7, issue_width=4),
            l1=CacheLevelConfig(size_bytes=4 * KB, ways=4),
            l2=CacheLevelConfig(size_bytes=8 * KB, ways=4),
            l3=CacheLevelConfig(size_bytes=32 * KB, ways=8),
            tlb=TlbConfig(entries=16),
            dram_cache=preset_dram_cache(scheme, tag_buffer_entries=64, tag_buffer_ways=4),
            in_package_dram=DramConfig(name="in-package", capacity_bytes=1 * MB, num_channels=2),
            off_package_dram=DramConfig(name="off-package", capacity_bytes=1 * GB, num_channels=1),
            seed=seed,
        )

    # ------------------------------------------------------------------ helpers

    def with_scheme(self, scheme: str, **dram_cache_overrides: object) -> "SystemConfig":
        """Return a copy of this configuration with a different DRAM cache scheme.

        ``scheme`` may be a base scheme or a variant name (validated here, so
        a typo'd variant fails loudly instead of riding the carried
        ``base_scheme``).  Fields the *current* scheme's variant had folded
        in are reverted first — to the preset's value when the configuration
        came from a preset, else to the dataclass default — so switching
        between variants of one axis (or back to the base scheme) works.
        The new variant's overrides are folded back in by
        ``DramCacheConfig.__post_init__``, which rejects explicit overrides
        for a field the new variant also sets rather than silently resolving
        either way — ask for the base scheme with explicit overrides instead.
        """
        from repro.dramcache.variants import get_variant, resolve_scheme

        resolve_scheme(scheme)  # raises ValueError listing names on a typo
        dram_cache = self.dram_cache
        defaults = {f.name: f.default for f in dataclasses.fields(DramCacheConfig)}
        reverts: Dict[str, object] = {}
        old_variant = get_variant(dram_cache.scheme)
        if old_variant is not None:
            for key in old_variant.overrides:
                if key not in dram_cache_overrides:
                    reverts[key] = dram_cache.preset_defaults.get(key, defaults[key])
        new_dc = dataclasses.replace(dram_cache, scheme=scheme, **reverts, **dram_cache_overrides)
        return dataclasses.replace(self, dram_cache=new_dc)

    def with_overrides(self, **overrides: object) -> "SystemConfig":
        """Return a copy with top-level fields replaced."""
        return dataclasses.replace(self, **overrides)

    @property
    def dram_cache_pages(self) -> int:
        """Number of page frames in the in-package DRAM cache."""
        return self.in_package_dram.capacity_bytes // self.dram_cache.page_size

    @property
    def dram_cache_sets(self) -> int:
        """Number of sets in the in-package DRAM cache."""
        return self.dram_cache_pages // self.dram_cache.ways

    def to_dict(self) -> Dict[str, object]:
        """Flatten the configuration into a plain dictionary (for reports)."""
        return dataclasses.asdict(self)


#: Nested dataclass fields of :class:`SystemConfig` (for config_from_dict).
_NESTED_CONFIG_FIELDS: Dict[str, type] = {
    "core": CoreConfig,
    "l1": CacheLevelConfig,
    "l2": CacheLevelConfig,
    "l3": CacheLevelConfig,
    "tlb": TlbConfig,
    "dram_cache": DramCacheConfig,
    "in_package_dram": DramConfig,
    "off_package_dram": DramConfig,
}


def config_from_dict(payload: Dict[str, object]) -> "SystemConfig":
    """Rebuild a :class:`SystemConfig` from its :meth:`~SystemConfig.to_dict`
    form (nested dicts), validating every level on the way up.

    The inverse of ``to_dict`` — ``config_from_dict(c.to_dict()) == c`` and
    both hash identically — used by snapshot replay and anything else that
    persists a configuration as JSON.
    """
    from repro.util.serde import dataclass_from_dict

    data = dict(payload)
    for name, cls in _NESTED_CONFIG_FIELDS.items():
        value = data.get(name)
        if isinstance(value, dict):
            sub = dict(value)
            timing = sub.get("timing")
            if isinstance(timing, dict):
                sub["timing"] = dataclass_from_dict(DramTimingConfig, timing)
            data[name] = dataclass_from_dict(cls, sub)
    return dataclass_from_dict(SystemConfig, data)


def canonical_json(payload: object) -> str:
    """Serialise ``payload`` to a canonical JSON string.

    Keys are sorted and separators fixed so that equal payloads always
    produce byte-identical text — the property the persistent result store
    relies on for its content-addressed keys.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)


def config_hash(config: "SystemConfig") -> str:
    """Stable content hash of a configuration.

    Two :class:`SystemConfig` objects with equal field values hash
    identically across processes and interpreter runs (unlike ``hash()``,
    which is randomised per process for strings).  Used by the result cache
    and the campaign result store to key simulations.
    """
    return hashlib.sha256(canonical_json(config.to_dict()).encode("utf-8")).hexdigest()
