"""Default parameters for the benchmark harness.

The benchmark suite regenerates every table and figure of the paper on a
scaled-down system; :meth:`repro.sim.config.SystemConfig.scaled_default`
says what it keeps of the paper's system and what it does not.  Runtime is
controlled by two knobs that can be overridden through environment
variables without touching code:

* ``REPRO_BENCH_RECORDS`` — trace records per core per simulation
  (default 30 000; the paper simulates 100 G instructions, which is far out
  of reach for pure Python but unnecessary for the comparative shapes).
* ``REPRO_BENCH_CORES`` — number of simulated cores (default 4; the paper
  uses 16 with 4x the DRAM bandwidth, i.e. the same bandwidth per core).
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, List, Optional, Tuple

from repro.sim.config import SystemConfig

#: (label, scheme name, DramCacheConfig overrides) in the order of Figure 4.
FIGURE4_SCHEMES: List[Tuple[str, str, Dict]] = [
    ("Unison", "unison", {}),
    ("TDC", "tdc", {}),
    ("Alloy 1", "alloy", {"alloy_replacement_probability": 1.0}),
    ("Alloy 0.1", "alloy", {"alloy_replacement_probability": 0.1}),
    ("Banshee", "banshee", {}),
    ("CacheOnly", "cacheonly", {}),
]

#: Workload subset used by the parameter sweeps (Figures 8/9, Tables 5/6).
SWEEP_WORKLOADS: List[str] = ["pagerank", "mcf", "omnetpp", "lbm"]

BENCH_RECORDS_PER_CORE = int(os.environ.get("REPRO_BENCH_RECORDS", "30000"))
BENCH_NUM_CORES = int(os.environ.get("REPRO_BENCH_CORES", "4"))


def bench_records_per_core(fraction: float = 1.0) -> int:
    """Records per core for a bench, optionally reduced for wide sweeps."""
    return max(2000, int(BENCH_RECORDS_PER_CORE * fraction))


def bench_config(scheme: str, num_cores: Optional[int] = None, seed: int = 1, **dram_cache_overrides) -> SystemConfig:
    """The scaled benchmark configuration for ``scheme`` with optional overrides."""
    cores = num_cores if num_cores is not None else BENCH_NUM_CORES
    config = SystemConfig.scaled_default(scheme=scheme, num_cores=cores, seed=seed)
    if dram_cache_overrides:
        config = config.with_scheme(scheme, **dram_cache_overrides)
    return config


def scale_in_package(config: SystemConfig, latency_scale: float = 1.0, bandwidth_scale: float = 1.0) -> SystemConfig:
    """Return a config whose in-package DRAM latency/bandwidth are scaled (Figure 8).

    The factors are applied on top of whatever scaling the base configuration
    already carries (the scaled preset reduces bandwidth per core to match the
    paper's 16-core system).
    """
    in_dram = dataclasses.replace(
        config.in_package_dram,
        latency_scale=config.in_package_dram.latency_scale * latency_scale,
        bandwidth_scale=config.in_package_dram.bandwidth_scale * bandwidth_scale,
    )
    return dataclasses.replace(config, in_package_dram=in_dram)
