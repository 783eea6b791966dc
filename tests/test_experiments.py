"""Tests for the experiment harness (runner, cache, figure functions, reports)."""

import pytest

from repro.campaign.spec import CampaignSpec, SweepGrid
from repro.experiments.defaults import (
    FIGURE4_SCHEMES,
    bench_config,
    bench_records_per_core,
    scale_in_package,
)
from repro.experiments.figures import (
    extension_bandwidth_balance,
    extension_large_pages,
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
from repro.experiments.report import format_table, rows_from_dicts
from repro.experiments.runner import CampaignCell, ResultCache
from repro.sim.config import SystemConfig
from repro.sim.results import SimulationResults

TINY_RUN = dict(records_per_core=1200, num_cores=2)


def tiny_cfg(scheme, **overrides):
    return SystemConfig.tiny(scheme=scheme).with_scheme(scheme, **overrides) if overrides else SystemConfig.tiny(scheme=scheme)


def test_result_cache_hits_on_identical_runs():
    cache = ResultCache()
    cell = CampaignCell(label="banshee", scheme="banshee", workload="gcc", seed=1,
                        records_per_core=500, scale=0.05, warmup_fraction=0.5,
                        config=SystemConfig.tiny())
    first = cache.result(cell)
    second = cache.result(cell)
    assert first is second
    assert cache.hits == 1 and len(cache) == 1


def test_bench_config_and_records_helpers():
    config = bench_config("alloy", num_cores=2, alloy_replacement_probability=0.1)
    assert config.dram_cache.scheme == "alloy"
    assert config.num_cores == 2
    assert bench_records_per_core(0.5) >= 2000


def test_scale_in_package_multiplies_existing_scaling():
    config = bench_config("banshee", num_cores=2)
    scaled = scale_in_package(config, latency_scale=0.5, bandwidth_scale=2.0)
    assert scaled.in_package_dram.latency_scale == pytest.approx(config.in_package_dram.latency_scale * 0.5)
    assert scaled.in_package_dram.bandwidth_scale == pytest.approx(config.in_package_dram.bandwidth_scale * 2.0)


def test_format_table_alignment_and_rows():
    rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.125}]
    table = format_table(["a", "b"], rows_from_dicts(rows, ["a", "b"]), title="demo")
    lines = table.splitlines()
    assert lines[0] == "demo"
    assert "a" in lines[1] and "b" in lines[1]
    # title + header + separator + one line per row
    assert len(lines) == 5
    assert lines[-1].startswith("10")


def test_figure4_small_matrix():
    report = figure4_speedup(workloads=["gcc"], **TINY_RUN, schemes=[("Banshee", "banshee", {})])
    assert report["rows"][0]["workload"] == "gcc"
    assert "Banshee" in report["summary"]["geomean_speedup"]
    assert report["rows"][0]["speedup"] > 0


def test_figure7_policies_present():
    report = figure7_replacement_policies(workloads=["gcc"], **TINY_RUN)
    policies = [row["policy"] for row in report["rows"]]
    assert policies == ["Banshee LRU", "Banshee FBR no sample", "Banshee", "TDC"]


def test_figure9_counter_traffic_decreases_with_sampling():
    report = figure9_sampling(workloads=["gcc"], coefficients=(1.0, 0.01), **TINY_RUN)
    rows = {row["sampling_coefficient"]: row for row in report["rows"]}
    assert rows[1.0]["Counter"] >= rows[0.01]["Counter"]


def test_table6_reports_each_way_count():
    report = table6_associativity(workloads=["gcc"], ways=(1, 2), **TINY_RUN)
    assert [row["ways"] for row in report["rows"]] == [1, 2]
    for row in report["rows"]:
        assert 0.0 <= row["miss_rate"] <= 1.0


def test_table1_lists_all_schemes():
    report = table1_behavior(workload="gcc", **TINY_RUN)
    schemes = [row["scheme"] for row in report["rows"]]
    assert schemes == ["Unison", "Alloy", "TDC", "HMA", "Banshee"]
    banshee = report["rows"][-1]
    unison = report["rows"][0]
    # Banshee's common-path tag traffic must be below Unison's (Table 1).
    assert banshee["tag_bpi"] <= unison["tag_bpi"]


# ----------------------------------------------------------- figure cells, not simulated


class RecordingCache:
    """Stands in for a ``ResultCache``: records every cell and returns one
    fixed result (for the cell's workload) instead of simulating."""

    def __init__(self):
        self.cells = []

    def result(self, cell):
        self.cells.append(cell)
        return SimulationResults(workload=cell.workload, scheme=cell.scheme, num_cores=2,
                                 instructions=20_000, memory_accesses=5_000, cycles=40_000.0,
                                 dram_cache_hits=300, dram_cache_misses=100,
                                 in_traffic_bytes={"HitData": 19_200}, off_traffic_bytes={"MissData": 6_400})


FIGURES = (
    figure4_speedup, figure5_in_package_traffic, figure6_off_package_traffic,
    figure7_replacement_policies, table5_pte_update_cost, figure8_latency_bandwidth,
    figure9_sampling, table6_associativity, table1_behavior, extension_large_pages,
    extension_bandwidth_balance,
)


@pytest.mark.parametrize("figure", FIGURES, ids=lambda figure: figure.__name__)
def test_every_figure_builds_its_cells(figure):
    """Every cell of every figure and table builds a valid configuration.

    A figure names each design point as a scheme plus ``DramCacheConfig``
    overrides; a misspelt override key or an invalid value fails here, at
    configuration time, without a simulation.
    """
    cache = RecordingCache()
    assert figure(records_per_core=300, num_cores=2, cache=cache)["rows"]
    assert cache.cells


def test_spec_entries_and_figure_cells_share_keys():
    """Figure 4's cells, written as campaign-spec entries, hash to the keys
    the figure looks up, so a store the campaign filled serves the figure
    with no re-simulation."""
    schemes = [("NoCache", "nocache", {})] + list(FIGURE4_SCHEMES)
    spec = CampaignSpec(name="fig4", grids=[SweepGrid(schemes=schemes, workloads=["gcc", "mcf"])],
                        records_per_core=300, num_cores=2, preset="scaled")
    cache = RecordingCache()
    figure4_speedup(workloads=["gcc", "mcf"], records_per_core=300, num_cores=2, cache=cache)
    assert {cell.key() for cell in cache.cells} == {cell.key() for cell in spec.cells()}
    assert len({cell.key() for cell in spec.cells()}) == 14
