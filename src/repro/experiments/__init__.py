"""Experiment harness: run matrices of simulations and rebuild the paper's figures."""

from repro.experiments.defaults import (
    BENCH_RECORDS_PER_CORE,
    FIGURE4_SCHEMES,
    SWEEP_WORKLOADS,
    bench_config,
    bench_records_per_core,
)
from repro.experiments.figures import (
    figure4_speedup,
    figure5_in_package_traffic,
    figure6_off_package_traffic,
    figure7_replacement_policies,
    figure8_latency_bandwidth,
    figure9_sampling,
    table1_behavior,
    table5_pte_update_cost,
    table6_associativity,
)
from repro.experiments.report import format_table
from repro.experiments.runner import ResultCache, run_simulation

__all__ = [
    "BENCH_RECORDS_PER_CORE",
    "FIGURE4_SCHEMES",
    "SWEEP_WORKLOADS",
    "bench_config",
    "bench_records_per_core",
    "figure4_speedup",
    "figure5_in_package_traffic",
    "figure6_off_package_traffic",
    "figure7_replacement_policies",
    "figure8_latency_bandwidth",
    "figure9_sampling",
    "table1_behavior",
    "table5_pte_update_cost",
    "table6_associativity",
    "format_table",
    "ResultCache",
    "run_simulation",
]
