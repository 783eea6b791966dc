"""Reproduction functions for every table and figure of the paper's evaluation.

Each ``figureN_*`` / ``tableN_*`` function fetches the simulation cells that
figure needs from a :class:`~repro.experiments.runner.ResultCache` (by
default the shared :data:`repro.experiments.runner.GLOBAL_CACHE`, so figures
that share a matrix do not re-simulate; ``cache=ResultCache(store=...)``
reads from and writes through a campaign's store) and returns a dictionary
with:

* ``rows`` — a list of dict rows, one per data point of the figure,
* ``summary`` — the headline aggregate the paper quotes in the text,
* ``headers`` — a suggested column order for pretty-printing.

The benchmark modules under ``benchmarks/`` wrap these functions, time them
with pytest-benchmark, and print the resulting tables; EXPERIMENTS.md records
a snapshot of their output next to the paper's numbers.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.defaults import (
    BENCH_NUM_CORES,
    FIGURE4_SCHEMES,
    SWEEP_WORKLOADS,
    bench_config,
    bench_records_per_core,
    scale_in_package,
)
from repro.experiments.runner import (
    DEFAULT_WARMUP_FRACTION,
    GLOBAL_CACHE,
    CampaignCell,
    ResultCache,
)
from repro.sim.config import MB, SystemConfig
from repro.sim.results import SimulationResults, geometric_mean
from repro.workloads.registry import EVALUATION_WORKLOADS, GRAPH_WORKLOADS


def _defaults(
    workloads: Optional[Sequence[str]],
    records_per_core: Optional[int],
    num_cores: Optional[int],
    cache: Optional[ResultCache],
    default_workloads: Sequence[str],
    records_fraction: float = 1.0,
) -> Tuple[Sequence[str], int, int, ResultCache]:
    """Resolve the shared figure-function arguments."""
    resolved_workloads = list(workloads) if workloads is not None else list(default_workloads)
    resolved_records = records_per_core if records_per_core is not None else bench_records_per_core(records_fraction)
    resolved_cores = num_cores if num_cores is not None else BENCH_NUM_CORES
    resolved_cache = cache if cache is not None else GLOBAL_CACHE
    return resolved_workloads, resolved_records, resolved_cores, resolved_cache


def _run(
    scheme: str,
    workload: str,
    records: int,
    cores: int,
    cache: ResultCache,
    config: Optional[SystemConfig] = None,
    workload_page_size: Optional[int] = None,
    **overrides,
) -> SimulationResults:
    """Fetch one figure cell from ``cache``: seed 1, scale 1, the default warmup.

    The cell runs ``config``, by default ``bench_config(scheme, ...)`` with
    the DRAM-cache ``overrides``; ``workload_page_size`` builds the workload
    with other pages than the config's (see :attr:`CampaignCell.page_size`).
    """
    cfg = config if config is not None else bench_config(scheme, num_cores=cores, **overrides)
    scheme_name = cfg.dram_cache.scheme
    cell = CampaignCell(
        label=scheme_name, scheme=scheme_name, workload=workload, seed=1,
        records_per_core=records, scale=1.0, warmup_fraction=DEFAULT_WARMUP_FRACTION,
        config=cfg, page_size=workload_page_size,
    )
    return cache.result(cell)


# --------------------------------------------------------------------------- Figure 4


def figure4_speedup(
    workloads: Optional[Sequence[str]] = None,
    records_per_core: Optional[int] = None,
    num_cores: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    schemes: Sequence[Tuple[str, str, Dict]] = tuple(FIGURE4_SCHEMES),
) -> Dict:
    """Figure 4: speedup normalised to NoCache, plus MPKI, per workload."""
    workloads, records, cores, cache = _defaults(workloads, records_per_core, num_cores, cache, EVALUATION_WORKLOADS)
    rows: List[Dict] = []
    speedups: Dict[str, List[float]] = {label: [] for label, _scheme, _ov in schemes}
    for workload in workloads:
        baseline = _run("nocache", workload, records, cores, cache)
        for label, scheme, overrides in schemes:
            result = _run(scheme, workload, records, cores, cache, **overrides)
            speedup = result.speedup_over(baseline)
            speedups[label].append(speedup)
            rows.append(
                {
                    "workload": workload,
                    "scheme": label,
                    "speedup": round(speedup, 3),
                    "mpki": round(result.mpki, 2),
                    "ipc": round(result.ipc, 3),
                }
            )
    summary = {label: round(geometric_mean(values), 3) for label, values in speedups.items()}
    banshee = summary.get("Banshee", 0.0)
    comparisons = {
        f"banshee_vs_{label.replace(' ', '_').lower()}": round(banshee / value - 1.0, 4)
        for label, value in summary.items()
        if label != "Banshee" and value > 0
    }
    return {
        "headers": ["workload", "scheme", "speedup", "mpki", "ipc"],
        "rows": rows,
        "summary": {"geomean_speedup": summary, "banshee_gain": comparisons},
    }


# --------------------------------------------------------------------------- Figures 5 and 6


def figure5_in_package_traffic(
    workloads: Optional[Sequence[str]] = None,
    records_per_core: Optional[int] = None,
    num_cores: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    schemes: Sequence[Tuple[str, str, Dict]] = tuple(FIGURE4_SCHEMES),
) -> Dict:
    """Figure 5: in-package DRAM traffic breakdown, bytes per instruction."""
    workloads, records, cores, cache = _defaults(workloads, records_per_core, num_cores, cache, EVALUATION_WORKLOADS)
    cache_schemes = [entry for entry in schemes if entry[1] not in ("cacheonly",)]
    rows: List[Dict] = []
    totals: Dict[str, List[float]] = {label: [] for label, _s, _o in cache_schemes}
    for workload in workloads:
        for label, scheme, overrides in cache_schemes:
            result = _run(scheme, workload, records, cores, cache, **overrides)
            breakdown = result.in_bytes_per_instruction
            total = sum(breakdown.values())
            totals[label].append(total)
            rows.append(
                {
                    "workload": workload,
                    "scheme": label,
                    "HitData": round(breakdown.get("HitData", 0.0), 3),
                    "MissData": round(breakdown.get("MissData", 0.0), 3),
                    "Tag": round(breakdown.get("Tag", 0.0) + breakdown.get("Counter", 0.0), 3),
                    "Replacement": round(breakdown.get("Replacement", 0.0), 3),
                    "Writeback": round(breakdown.get("Writeback", 0.0), 3),
                    "total": round(total, 3),
                }
            )
    averages = {label: round(sum(values) / len(values), 3) for label, values in totals.items() if values}
    banshee_avg = averages.get("Banshee", 0.0)
    best_other = min((value for label, value in averages.items() if label != "Banshee"), default=0.0)
    reduction = round(1.0 - banshee_avg / best_other, 4) if best_other > 0 else 0.0
    return {
        "headers": ["workload", "scheme", "HitData", "MissData", "Tag", "Replacement", "Writeback", "total"],
        "rows": rows,
        "summary": {"average_total_bpi": averages, "banshee_traffic_reduction_vs_best": reduction},
    }


def figure6_off_package_traffic(
    workloads: Optional[Sequence[str]] = None,
    records_per_core: Optional[int] = None,
    num_cores: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    schemes: Sequence[Tuple[str, str, Dict]] = tuple(FIGURE4_SCHEMES),
) -> Dict:
    """Figure 6: off-package DRAM traffic, bytes per instruction."""
    workloads, records, cores, cache = _defaults(workloads, records_per_core, num_cores, cache, EVALUATION_WORKLOADS)
    cache_schemes = [entry for entry in schemes if entry[1] not in ("cacheonly",)]
    rows: List[Dict] = []
    totals: Dict[str, List[float]] = {label: [] for label, _s, _o in cache_schemes}
    for workload in workloads:
        for label, scheme, overrides in cache_schemes:
            result = _run(scheme, workload, records, cores, cache, **overrides)
            total = result.total_off_bytes_per_instruction
            totals[label].append(total)
            rows.append({"workload": workload, "scheme": label, "off_bpi": round(total, 3)})
    averages = {label: round(sum(values) / len(values), 3) for label, values in totals.items() if values}
    return {
        "headers": ["workload", "scheme", "off_bpi"],
        "rows": rows,
        "summary": {"average_off_bpi": averages},
    }


# --------------------------------------------------------------------------- Figure 7


def figure7_replacement_policies(
    workloads: Optional[Sequence[str]] = None,
    records_per_core: Optional[int] = None,
    num_cores: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> Dict:
    """Figure 7: Banshee replacement-policy ablation vs TDC."""
    workloads, records, cores, cache = _defaults(
        workloads, records_per_core, num_cores, cache, SWEEP_WORKLOADS, records_fraction=0.7
    )
    policies = [
        ("Banshee LRU", "banshee", {"banshee_policy": "lru"}),
        ("Banshee FBR no sample", "banshee", {"banshee_policy": "fbr-nosample"}),
        ("Banshee", "banshee", {}),
        ("TDC", "tdc", {}),
    ]
    speedups: Dict[str, List[float]] = {label: [] for label, _s, _o in policies}
    traffic: Dict[str, List[float]] = {label: [] for label, _s, _o in policies}
    for workload in workloads:
        baseline = _run("nocache", workload, records, cores, cache)
        for label, scheme, overrides in policies:
            result = _run(scheme, workload, records, cores, cache, **overrides)
            speedups[label].append(result.speedup_over(baseline))
            traffic[label].append(result.total_in_bytes_per_instruction)
    rows = [
        {
            "policy": label,
            "norm_speedup": round(geometric_mean(speedups[label]), 3),
            "in_package_bpi": round(sum(traffic[label]) / len(traffic[label]), 3),
        }
        for label, _s, _o in policies
    ]
    return {
        "headers": ["policy", "norm_speedup", "in_package_bpi"],
        "rows": rows,
        "summary": {row["policy"]: row["norm_speedup"] for row in rows},
    }


# --------------------------------------------------------------------------- Table 5


def table5_pte_update_cost(
    workloads: Optional[Sequence[str]] = None,
    records_per_core: Optional[int] = None,
    num_cores: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    costs_us: Sequence[float] = (10.0, 20.0, 40.0),
) -> Dict:
    """Table 5: performance loss vs free PTE updates for several update costs."""
    workloads, records, cores, cache = _defaults(
        workloads, records_per_core, num_cores, cache, SWEEP_WORKLOADS, records_fraction=0.7
    )
    free_results = {
        workload: _run("banshee", workload, records, cores, cache, tag_buffer_flush_cost_us=0.0,
                       tlb_shootdown_initiator_us=0.0, tlb_shootdown_slave_us=0.0)
        for workload in workloads
    }
    rows: List[Dict] = []
    for cost in costs_us:
        losses = []
        for workload in workloads:
            result = _run("banshee", workload, records, cores, cache, tag_buffer_flush_cost_us=cost)
            free = free_results[workload]
            loss = max(0.0, result.cycles / free.cycles - 1.0)
            losses.append(loss)
        rows.append(
            {
                "update_cost_us": cost,
                "avg_perf_loss_pct": round(100.0 * sum(losses) / len(losses), 3),
                "max_perf_loss_pct": round(100.0 * max(losses), 3),
            }
        )
    return {
        "headers": ["update_cost_us", "avg_perf_loss_pct", "max_perf_loss_pct"],
        "rows": rows,
        "summary": {row["update_cost_us"]: row["avg_perf_loss_pct"] for row in rows},
    }


# --------------------------------------------------------------------------- Figure 8


def figure8_latency_bandwidth(
    workloads: Optional[Sequence[str]] = None,
    records_per_core: Optional[int] = None,
    num_cores: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> Dict:
    """Figure 8: sweep in-package DRAM latency and bandwidth."""
    workloads, records, cores, cache = _defaults(
        workloads, records_per_core, num_cores, cache, SWEEP_WORKLOADS, records_fraction=0.5
    )
    schemes = [("Banshee", "banshee", {}), ("Alloy", "alloy", {}), ("TDC", "tdc", {}), ("Unison", "unison", {})]
    latency_points = [("100%", 1.0), ("66%", 0.66), ("50%", 0.5)]
    bandwidth_points = [("8X", 2.0), ("4X", 1.0), ("2X", 0.5)]
    rows: List[Dict] = []

    def run_point(sweep: str, point_label: str, latency_scale: float, bandwidth_scale: float) -> None:
        for label, scheme, overrides in schemes:
            config = scale_in_package(
                bench_config(scheme, num_cores=cores, **overrides),
                latency_scale=latency_scale,
                bandwidth_scale=bandwidth_scale,
            )
            speedups = []
            for workload in workloads:
                baseline = _run("nocache", workload, records, cores, cache)
                result = _run(scheme, workload, records, cores, cache, config=config)
                speedups.append(result.speedup_over(baseline))
            rows.append(
                {
                    "sweep": sweep,
                    "point": point_label,
                    "scheme": label,
                    "norm_speedup": round(geometric_mean(speedups), 3),
                }
            )

    for point_label, latency_scale in latency_points:
        run_point("latency", point_label, latency_scale, 1.0)
    for point_label, bandwidth_scale in bandwidth_points:
        run_point("bandwidth", point_label, 1.0, bandwidth_scale)

    return {
        "headers": ["sweep", "point", "scheme", "norm_speedup"],
        "rows": rows,
        "summary": {},
    }


# --------------------------------------------------------------------------- Figure 9


def figure9_sampling(
    workloads: Optional[Sequence[str]] = None,
    records_per_core: Optional[int] = None,
    num_cores: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    coefficients: Sequence[float] = (1.0, 0.1, 0.01),
) -> Dict:
    """Figure 9: miss rate and DRAM-cache traffic vs sampling coefficient."""
    workloads, records, cores, cache = _defaults(
        workloads, records_per_core, num_cores, cache, SWEEP_WORKLOADS, records_fraction=0.7
    )
    rows: List[Dict] = []
    for coefficient in coefficients:
        miss_rates = []
        breakdowns: Dict[str, float] = {}
        for workload in workloads:
            result = _run("banshee", workload, records, cores, cache, sampling_coefficient=coefficient)
            miss_rates.append(result.dram_cache_miss_rate)
            for key, value in result.in_bytes_per_instruction.items():
                breakdowns[key] = breakdowns.get(key, 0.0) + value / len(workloads)
        rows.append(
            {
                "sampling_coefficient": coefficient,
                "miss_rate": round(sum(miss_rates) / len(miss_rates), 4),
                "HitData": round(breakdowns.get("HitData", 0.0), 3),
                "MissData": round(breakdowns.get("MissData", 0.0), 3),
                "Tag": round(breakdowns.get("Tag", 0.0), 3),
                "Counter": round(breakdowns.get("Counter", 0.0), 3),
                "Replacement": round(breakdowns.get("Replacement", 0.0), 3),
            }
        )
    return {
        "headers": ["sampling_coefficient", "miss_rate", "HitData", "MissData", "Tag", "Counter", "Replacement"],
        "rows": rows,
        "summary": {row["sampling_coefficient"]: row["miss_rate"] for row in rows},
    }


# --------------------------------------------------------------------------- Table 6


def table6_associativity(
    workloads: Optional[Sequence[str]] = None,
    records_per_core: Optional[int] = None,
    num_cores: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    ways: Sequence[int] = (1, 2, 4, 8),
) -> Dict:
    """Table 6: DRAM-cache miss rate vs associativity for Banshee."""
    workloads, records, cores, cache = _defaults(
        workloads, records_per_core, num_cores, cache, SWEEP_WORKLOADS, records_fraction=0.7
    )
    rows: List[Dict] = []
    for num_ways in ways:
        miss_rates = []
        for workload in workloads:
            result = _run("banshee", workload, records, cores, cache, ways=num_ways)
            miss_rates.append(result.dram_cache_miss_rate)
        rows.append({"ways": num_ways, "miss_rate": round(sum(miss_rates) / len(miss_rates), 4)})
    return {
        "headers": ["ways", "miss_rate"],
        "rows": rows,
        "summary": {row["ways"]: row["miss_rate"] for row in rows},
    }


# --------------------------------------------------------------------------- Table 1 (behaviour)


def table1_behavior(
    workload: str = "pagerank",
    records_per_core: Optional[int] = None,
    num_cores: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> Dict:
    """Table 1: qualitative per-scheme behaviour, measured on one workload.

    Reports the measured in-package bytes moved per DRAM-cache hit, the tag
    and replacement traffic shares, and whether replacement happens on every
    miss — the quantities Table 1 of the paper describes symbolically.
    """
    _w, records, cores, cache = _defaults(None, records_per_core, num_cores, cache, [workload], records_fraction=0.5)
    schemes = [
        ("Unison", "unison", {}),
        ("Alloy", "alloy", {}),
        ("TDC", "tdc", {}),
        ("HMA", "hma", {}),
        ("Banshee", "banshee", {}),
    ]
    rows: List[Dict] = []
    for label, scheme, overrides in schemes:
        result = _run(scheme, workload, records, cores, cache, **overrides)
        breakdown = result.in_traffic_bytes
        hits = max(1, result.dram_cache_hits)
        misses = max(1, result.dram_cache_misses)
        tag_bytes = breakdown.get("Tag", 0) + breakdown.get("Counter", 0)
        hit_bytes = breakdown.get("HitData", 0) + tag_bytes
        replacement_bytes = breakdown.get("Replacement", 0)
        rows.append(
            {
                "scheme": label,
                "hit_traffic_bytes": round(hit_bytes / hits, 1),
                "tag_bpi": round(tag_bytes / max(1, result.instructions), 3),
                "replacement_bytes_per_miss": round(replacement_bytes / misses, 1),
                "miss_rate": round(result.dram_cache_miss_rate, 3),
                "replacements": int(result.scheme_stats.get("page_fills", result.scheme_stats.get("fills", 0))),
            }
        )
    return {
        "headers": ["scheme", "hit_traffic_bytes", "tag_bpi", "replacement_bytes_per_miss", "miss_rate", "replacements"],
        "rows": rows,
        "summary": {},
    }


# --------------------------------------------------------------------------- Extensions (Section 5.4)


def extension_large_pages(
    workloads: Optional[Sequence[str]] = None,
    records_per_core: Optional[int] = None,
    num_cores: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> Dict:
    """Section 5.4.1: Banshee with 2 MB pages vs 4 KB pages on graph workloads."""
    workloads, records, cores, cache = _defaults(
        workloads, records_per_core, num_cores, cache, GRAPH_WORKLOADS, records_fraction=0.5
    )
    capacity = 64 * MB  # enlarge the cache so that whole 2 MB pages are cacheable
    rows: List[Dict] = []
    gains: List[float] = []
    for workload in workloads:
        small_config = bench_config("banshee", num_cores=cores)
        small_config = small_config.with_overrides(
            in_package_dram=dataclasses.replace(small_config.in_package_dram, capacity_bytes=capacity)
        )
        small = _run("banshee", workload, records, cores, cache, config=small_config)

        large_config = bench_config("banshee", num_cores=cores, large_page_fraction=1.0)
        large_config = large_config.with_overrides(
            in_package_dram=dataclasses.replace(large_config.in_package_dram, capacity_bytes=capacity)
        )
        large = _run("banshee", workload, records, cores, cache, config=large_config,
                     workload_page_size=large_config.dram_cache.large_page_size)
        gain = small.cycles / large.cycles - 1.0
        gains.append(gain)
        rows.append(
            {
                "workload": workload,
                "speedup_4k": 1.0,
                "speedup_2m": round(small.cycles / large.cycles, 3),
                "gain_pct": round(100.0 * gain, 2),
            }
        )
    return {
        "headers": ["workload", "speedup_4k", "speedup_2m", "gain_pct"],
        "rows": rows,
        "summary": {"average_gain_pct": round(100.0 * sum(gains) / len(gains), 2) if gains else 0.0},
    }


def extension_bandwidth_balance(
    workloads: Optional[Sequence[str]] = None,
    records_per_core: Optional[int] = None,
    num_cores: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> Dict:
    """Section 5.4.2: BATMAN-style bandwidth balancing on Alloy and Banshee."""
    workloads, records, cores, cache = _defaults(
        workloads, records_per_core, num_cores, cache, SWEEP_WORKLOADS, records_fraction=0.5
    )
    rows: List[Dict] = []
    summary: Dict[str, float] = {}
    for label, scheme in (("Alloy", "alloy"), ("Banshee", "banshee")):
        gains = []
        for workload in workloads:
            plain = _run(scheme, workload, records, cores, cache)
            balanced = _run(scheme, workload, records, cores, cache, bandwidth_balance=True)
            gains.append(plain.cycles / balanced.cycles - 1.0)
        avg_gain = 100.0 * sum(gains) / len(gains)
        max_gain = 100.0 * max(gains)
        rows.append(
            {
                "scheme": label,
                "avg_gain_pct": round(avg_gain, 2),
                "max_gain_pct": round(max_gain, 2),
            }
        )
        summary[label] = round(avg_gain, 2)
    return {"headers": ["scheme", "avg_gain_pct", "max_gain_pct"], "rows": rows, "summary": summary}
