"""Tests for the campaign subsystem (spec, store, executors, CLI) and the
cache/store key identity guarantees."""

import dataclasses
import json

import pytest

from repro.campaign import (
    CampaignSpec,
    ResultStore,
    SerialExecutor,
    SupervisedExecutor,
    SupervisorConfig,
    SweepGrid,
    export_csv,
    export_json,
    run_campaign,
)
from repro.campaign.cli import main as cli_main
from repro.experiments.figures import figure4_speedup
from repro.experiments.runner import ResultCache, run_simulation
from repro.sim.config import SystemConfig, config_hash
from repro.sim.results import SimulationResults

RUN = dict(records_per_core=600, num_cores=2, preset="tiny")


def tiny_spec(name="t", schemes=("banshee",), workloads=("gcc",), seeds=(1,), **kwargs):
    params = dict(RUN)
    params.update(kwargs)
    return CampaignSpec(
        name=name,
        grids=[SweepGrid(schemes=list(schemes), workloads=list(workloads), seeds=list(seeds))],
        **params,
    )


# ----------------------------------------------------------------- key identity


def test_cell_key_sensitive_to_every_run_parameter():
    (cell,) = tiny_spec(records_per_core=500).cells()
    base = cell.key()
    assert dataclasses.replace(cell).key() == base
    # The display label is not part of the simulation.
    assert dataclasses.replace(cell, label="Banshee").key() == base
    # page_size, warmup_fraction, seed and scale must all change the key.
    assert dataclasses.replace(cell, page_size=8192).key() != base
    assert dataclasses.replace(cell, warmup_fraction=0.25).key() != base
    assert dataclasses.replace(cell, seed=2).key() != base
    assert dataclasses.replace(cell, scale=0.5).key() != base
    # ... as must the workload, the trace length and the configuration.
    assert dataclasses.replace(cell, workload="mcf").key() != base
    assert dataclasses.replace(cell, records_per_core=501).key() != base
    assert dataclasses.replace(cell, config=SystemConfig.tiny(scheme="alloy")).key() != base


@pytest.mark.parametrize("spec, key, page_size", [
    (tiny_spec(),
     "ed8e9751a4db99f2708ff9efdaf859d2758d4f9f27224c9315382af9882fa6c5", 4096),
    (tiny_spec(schemes=["unison-2kpage"], workloads=["mcf"], seeds=[2], records_per_core=30_000,
               num_cores=None, preset="scaled", warmup_fraction=0.8),
     "0aba150542f4ce124f01cc709e189d6be7e4c2d169157a832e284f450975c270", 2048),
    (CampaignSpec(name="t", grids=[SweepGrid(schemes=["banshee"], workloads=["lbm"], seeds=[1],
                                             page_sizes=[8192])],
                  records_per_core=2000, num_cores=4, preset="tiny", scale=0.5),
     "d8ea2456d127758524ea9681ef4773ddf50d224de92036c62e525833fb377ef5", 8192),
], ids=["tiny-banshee-gcc", "scaled-unison-2kpage-mcf", "page-size-8192"])
def test_cell_keys_are_pinned(spec, key, page_size):
    """Stored results are found by key: a key that moves silently orphans
    every result stored under the old one."""
    (cell,) = spec.cells()
    assert cell.key() == key
    assert cell.meta()["page_size"] == page_size


def test_timeline_cell_keys_are_pinned():
    """A cell run with ``--timeline N`` keys on its interval alone: keys
    stored by such cells stay valid as the observer changes."""
    spec = tiny_spec(schemes=["banshee", "alloy"], timeline_interval=100)
    assert {cell.label: cell.key() for cell in spec.cells()} == {
        "banshee": "d350fcfa0f455d89d184bb96db3cd0646c18910467ed68257b19c6f767bba4e5",
        "alloy": "68ce21da31f32c9c145ae4c3437745b4b5086b31b2b07fc2e3fb0a7fcc15e372",
    }


def test_large_page_cell_keys_are_pinned(tmp_path):
    """The 2 MB arm of ``extension_large_pages`` is the one figure cell whose
    workload pages differ from its config's: that page size is in its key."""
    from repro.experiments.figures import extension_large_pages

    store = ResultStore(tmp_path / "store")
    extension_large_pages(workloads=["pagerank"], records_per_core=300, num_cores=1,
                          cache=ResultCache(store=store))
    assert {key: store.get_record(key)["meta"]["page_size"] for key in store.keys()} == {
        "bee59e2e78106816101b4c06cdf64a28b138a74cd3722a5df0046ca583fc0ef9": 4096,
        "678f9472867e4c36d13954006dba7b15846814714fe39d15ca13f0ebf38ccc44": 2097152,
    }


def test_config_hash_stable_and_content_addressed():
    assert config_hash(SystemConfig.tiny()) == config_hash(SystemConfig.tiny())
    assert config_hash(SystemConfig.tiny()) != config_hash(SystemConfig.tiny(scheme="nocache"))


def test_result_cache_counts_misses_on_lookup():
    cache = ResultCache()
    assert cache.get("absent") is None
    assert cache.misses == 1 and cache.hits == 0
    (cell,) = tiny_spec(records_per_core=300).cells()
    cache.result(cell)
    assert cache.misses == 2  # the cell's own lookup missed too
    cache.result(cell)
    assert cache.hits == 1 and cache.misses == 2


# ----------------------------------------------------------------- results round trip


def test_simulation_results_round_trip_is_exact():
    result = run_simulation(SystemConfig.tiny(), workload_name="gcc", records_per_core=400)
    payload = json.loads(json.dumps(result.to_dict()))
    rebuilt = SimulationResults.from_dict(payload)
    assert rebuilt == result
    with pytest.raises(ValueError):
        SimulationResults.from_dict({**result.to_dict(), "bogus_field": 1})


# ----------------------------------------------------------------- spec expansion


def test_spec_expands_full_grid_and_round_trips():
    spec = tiny_spec(schemes=["banshee", "nocache"], workloads=["gcc", "mcf"], seeds=[1, 2])
    cells = spec.cells()
    assert len(cells) == 8 == spec.num_cells
    assert len({cell.key() for cell in cells}) == 8
    rebuilt = CampaignSpec.from_dict(spec.to_dict())
    assert [cell.key() for cell in rebuilt.cells()] == [cell.key() for cell in cells]


def test_spec_sweep_axes_modify_config():
    spec = CampaignSpec(
        name="axes",
        grids=[SweepGrid(schemes=["banshee"], workloads=["gcc"],
                         sampling_coefficients=[1.0, 0.01], cache_sizes=[None, 2 * 1024 * 1024])],
        **RUN,
    )
    cells = spec.cells()
    assert len(cells) == 4
    assert {cell.config.dram_cache.sampling_coefficient for cell in cells} == {1.0, 0.01}
    assert {cell.config.in_package_dram.capacity_bytes for cell in cells} == {1024 * 1024, 2 * 1024 * 1024}


# ----------------------------------------------------------------- store + resume


def test_store_round_trip_and_resume(tmp_path):
    store = ResultStore(tmp_path / "store")
    spec = tiny_spec(schemes=["banshee", "nocache"], workloads=["gcc"])
    first = run_campaign(spec, store=store)
    assert first.counts() == {"total": 2, "simulated": 2, "from_store": 0, "errors": 0}

    # A fresh store object against the same directory: zero re-simulations.
    reopened = ResultStore(tmp_path / "store")
    second = run_campaign(spec, store=reopened)
    assert second.counts() == {"total": 2, "simulated": 0, "from_store": 2, "errors": 0}
    for (key_a, result_a), (_key_b, result_b) in zip(
        sorted(first.results().items()), sorted(second.results().items())
    ):
        assert result_a.identity_dict() == result_b.identity_dict(), key_a


def test_store_skips_truncated_trailing_line(tmp_path):
    store = ResultStore(tmp_path / "store")
    result = run_simulation(SystemConfig.tiny(), workload_name="gcc", records_per_core=300)
    store.put("k1", result, meta={"workload": "gcc"})
    with store.path.open("a", encoding="utf-8") as handle:
        handle.write('{"key": "k2", "result": {"trunc')  # simulated crash mid-append
    with pytest.warns(RuntimeWarning, match="unparseable"):
        reopened = ResultStore(tmp_path / "store")
    assert len(reopened) == 1 and reopened.get("k1") == result
    # Appending after the crash must not glue the new record onto the
    # truncated line: the store terminates the half line first.
    reopened.put("k3", result, meta={"workload": "gcc"})
    with pytest.warns(RuntimeWarning):
        final = ResultStore(tmp_path / "store")
    assert len(final) == 2 and final.get("k3") == result


def test_results_persist_per_cell_not_per_batch(tmp_path):
    store = ResultStore(tmp_path / "store")
    spec = tiny_spec(schemes=["banshee", "nocache"], workloads=["gcc"])

    def explode_after_first(done, total, outcome):
        raise RuntimeError("interrupted mid-campaign")

    with pytest.raises(RuntimeError):
        run_campaign(spec, store=store, progress=explode_after_first)
    # The first completed cell was persisted before the interruption...
    reopened = ResultStore(tmp_path / "store")
    assert len(reopened) == 1
    # ... so the resumed campaign only simulates the remainder.
    report = run_campaign(spec, store=reopened)
    assert report.counts() == {"total": 2, "simulated": 1, "from_store": 1, "errors": 0}


def test_results_mapping_rejects_ambiguous_labels():
    spec = CampaignSpec(
        name="ambiguous",
        grids=[SweepGrid(schemes=["banshee"], workloads=["gcc"],
                         sampling_coefficients=[1.0, 0.01])],
        **RUN,
    )
    report = run_campaign(spec)
    assert report.total == 2
    with pytest.raises(ValueError, match="distinct"):
        report.results()


def test_num_cores_defaults_to_preset_native_count():
    assert tiny_spec(num_cores=None).cells()[0].config.num_cores == 2
    scaled = tiny_spec(num_cores=None, preset="scaled", records_per_core=600)
    assert scaled.cells()[0].config.num_cores == 4
    paper = tiny_spec(num_cores=None, preset="paper", records_per_core=600)
    assert paper.cells()[0].config.num_cores == 16
    paper4 = tiny_spec(num_cores=4, preset="paper", records_per_core=600)
    assert paper4.cells()[0].config.num_cores == 4


def test_duplicate_key_cells_simulate_once():
    # ways=4 equals the tiny preset's default, so both sweep points expand
    # to the same content key; only one simulation should run.
    spec = CampaignSpec(
        name="dup",
        grids=[SweepGrid(schemes=[("ways-4", "banshee", {"ways": 4}), ("default", "banshee", {})],
                         workloads=["gcc"])],
        **RUN,
    )
    report = run_campaign(spec)
    assert report.total == 2
    assert len(report.simulated) == 1 and len(report.skipped) == 1
    results = list(report.results().values())
    assert results[0].identity_dict() == results[1].identity_dict()


def test_figure_write_through_records_meta(tmp_path):
    store = ResultStore(tmp_path / "store")
    (cell,) = tiny_spec(records_per_core=300, seeds=[3]).cells()
    ResultCache(store=store).result(cell)
    record = store.get_record(store.keys()[0])
    assert record["meta"]["workload"] == "gcc"
    assert record["meta"]["seed"] == 3
    assert record["meta"]["scheme"] == "banshee"


def test_readonly_store_open_rejects_missing_directory(tmp_path):
    with pytest.raises(ValueError, match="no result store"):
        ResultStore(tmp_path / "typo", create=False)
    code, out = run_cli("status", "--store", str(tmp_path / "typo"))
    assert code == 2
    assert not (tmp_path / "typo").exists()


def test_parallel_matches_serial_bit_identically():
    spec = tiny_spec(schemes=["banshee", "alloy"], workloads=["gcc", "mcf"])
    cells = spec.cells()
    serial = SerialExecutor().run(cells)
    parallel = SupervisedExecutor(workers=4).run(cells)
    assert len(serial) == len(parallel) == 4
    for s, p in zip(serial, parallel):
        assert s.ok and p.ok
        assert s.result.identity_dict() == p.result.identity_dict()


def test_traces_stable_across_interpreter_hash_seeds():
    # The store serves results to future processes, so traces must not
    # depend on PYTHONHASHSEED (regression: workload RNGs were seeded with
    # the process-randomised hash()).
    import os
    import pathlib
    import subprocess
    import sys

    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    code = (
        "from repro.experiments.runner import run_simulation\n"
        "from repro.sim.config import SystemConfig\n"
        "r = run_simulation(SystemConfig.tiny(), workload_name='gcc', records_per_core=300)\n"
        "print(repr(r.cycles), r.dram_cache_misses)\n"
    )
    outputs = {
        subprocess.check_output(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src},
        )
        for hash_seed in ("1", "2")
    }
    assert len(outputs) == 1


def test_spawn_parallel_matches_serial():
    # More cells than workers: spawned workers each serve several cells.
    spec = tiny_spec(workloads=["gcc"], seeds=[1, 2, 3, 4, 5], records_per_core=300)
    cells = spec.cells()
    serial = SerialExecutor().run(cells)
    spawned = SupervisedExecutor(
        workers=2, config=SupervisorConfig(mp_start_method="spawn")
    ).run(cells)
    assert serial[0].result.identity_dict() == spawned[0].result.identity_dict()
    assert ([o.result.identity_dict() for o in serial]
            == [o.result.identity_dict() for o in spawned])


def test_executor_captures_per_cell_errors():
    spec = tiny_spec(workloads=["gcc"])
    cell = spec.cells()[0]
    cell.workload = "no-such-workload"
    outcomes = SerialExecutor().run([cell])
    assert not outcomes[0].ok
    assert "no-such-workload" in outcomes[0].error


def test_result_cache_reads_through_store(tmp_path):
    store = ResultStore(tmp_path / "store")
    (cell,) = tiny_spec(records_per_core=400).cells()
    first = ResultCache(store=store).result(cell)
    assert len(store) == 1
    cache = ResultCache(store=ResultStore(tmp_path / "store"))
    second = cache.result(cell)
    assert first == second
    assert cache.store_hits == 1 and cache.misses == 0


# ----------------------------------------------------------------- figures read the store


def test_figure_rebuilds_from_campaign_store(tmp_path):
    store = ResultStore(tmp_path / "store")
    records, cores = 600, 2
    spec = CampaignSpec(
        name="fig4",
        grids=[SweepGrid(schemes=["nocache", "banshee"], workloads=["gcc"])],
        records_per_core=records,
        num_cores=cores,
        preset="scaled",
    )
    report = run_campaign(spec, store=store)
    assert len(report.simulated) == 2

    cache = ResultCache(store=store)
    figure = figure4_speedup(workloads=["gcc"], records_per_core=records, num_cores=cores,
                             cache=cache, schemes=[("Banshee", "banshee", {})])
    assert cache.store_hits == 2  # baseline + banshee both came from disk
    assert figure["rows"][0]["speedup"] > 0


# ----------------------------------------------------------------- CLI


def run_cli(*argv):
    import io

    stream = io.StringIO()
    code = cli_main(list(argv), stream=stream)
    return code, stream.getvalue()


def test_cli_run_status_export(tmp_path):
    store_dir = str(tmp_path / "store")
    argv = ("run", "--store", store_dir, "--schemes", "banshee", "--workloads", "gcc",
            "--records", "500", "--cores", "2", "--preset", "tiny", "--quiet")
    code, out = run_cli(*argv)
    assert code == 0 and "1 simulated" in out

    code, out = run_cli(*argv)
    assert code == 0 and "0 simulated" in out and "1 from store" in out

    code, out = run_cli("status", "--store", store_dir)
    assert code == 0 and "cells: 1" in out

    csv_path = tmp_path / "out.csv"
    code, out = run_cli("export", "--store", store_dir, "--format", "csv",
                        "--output", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 2 and lines[0].startswith("label,scheme,workload,seed")

    code, out = run_cli("export", "--store", store_dir, "--format", "json")
    assert code == 0 and json.loads(out)[0]["workload"] == "gcc"


@pytest.mark.parametrize("extra, error", [
    (("--scale", "0"), "error: "),
    (("--seeds", "-1"), "error: "),
    (("--snapshot-every", "-5"), "error: "),
    (("--workloads", "trace:short.rtrace"), "error: unknown workload 'trace:short.rtrace'"),
], ids=["scale-0", "seed-negative", "snapshot-every-negative", "trace-name-unknown"])
def test_cli_rejects_bad_inputs_before_any_cell_runs(tmp_path, capsys, extra, error):
    argv = ["run", "--store", str(tmp_path / "store"), "--schemes", "banshee",
            "--workloads", "gcc", "--records", "300", "--cores", "2", "--preset", "tiny",
            "--quiet"]
    code, out = run_cli(*argv, *extra)
    assert code == 2, out
    assert capsys.readouterr().err.startswith(error)
    assert "ERROR in" not in out


def test_run_campaign_rejects_snapshot_every_without_store():
    with pytest.raises(ValueError, match="snapshot_every requires a store"):
        run_campaign(tiny_spec(), snapshot_every=100)


def test_cli_spec_file_and_status_pending(tmp_path):
    spec = tiny_spec(name="from-file", schemes=["banshee", "nocache"], workloads=["gcc"])
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec.to_dict()))
    store_dir = str(tmp_path / "store")

    code, out = run_cli("run", "--store", store_dir, "--spec", str(spec_path),
                        "--workloads", "gcc", "--quiet")
    assert code == 0 and "campaign 'from-file': 2 cells" in out

    code, out = run_cli("status", "--store", store_dir, "--spec", str(spec_path))
    assert code == 0 and "2 cells, 0 pending" in out


def spec_dict_with_timeline_bounds(spec, bounds=None):
    """``spec.to_dict()`` laid out as specs were written while the spec had a
    ``timeline_bounds`` field: the key sits after ``timeline_interval``."""
    payload = {}
    for name, value in spec.to_dict().items():
        payload[name] = value
        if name == "timeline_interval":
            payload["timeline_bounds"] = bounds
    return payload


def test_spec_from_dict_drops_a_retired_field_only_at_its_old_default():
    spec = tiny_spec(schemes=["banshee", "nocache"], timeline_interval=100)
    payload = spec_dict_with_timeline_bounds(spec)
    assert list(payload)[-3:] == ["timeline_interval", "timeline_bounds", "cell_timeout_seconds"]
    assert CampaignSpec.from_dict(payload).to_dict() == spec.to_dict()
    assert payload["timeline_bounds"] is None  # the caller's dict is left alone
    with pytest.raises(ValueError, match="'timeline_bounds' was retired: .*latency histogram"):
        CampaignSpec.from_dict(spec_dict_with_timeline_bounds(spec, bounds=[10.0, 100.0]))


def test_cli_runs_a_spec_file_that_names_a_retired_field(tmp_path, capsys):
    spec = tiny_spec(name="old-file", records_per_core=300)
    old_path = tmp_path / "old-spec.json"
    old_path.write_text(json.dumps(spec_dict_with_timeline_bounds(spec)))
    code, out = run_cli("run", "--store", str(tmp_path / "store"), "--spec", str(old_path), "--quiet")
    assert code == 0 and "campaign 'old-file': 1 cells" in out
    bad_path = tmp_path / "bounds-spec.json"
    bad = tiny_spec(name="old-file", records_per_core=300, timeline_interval=100)
    bad_path.write_text(json.dumps(spec_dict_with_timeline_bounds(bad, bounds=[10.0, 100.0])))
    code, out = run_cli("run", "--store", str(tmp_path / "store"), "--spec", str(bad_path), "--quiet")
    assert code == 2, out
    assert "latency histogram" in capsys.readouterr().err


def test_export_helpers_return_text(tmp_path):
    store = ResultStore(tmp_path / "store")
    run_campaign(tiny_spec(), store=store)
    assert export_csv(store).startswith("label,")
    assert json.loads(export_json(store))[0]["scheme"] == "banshee"
