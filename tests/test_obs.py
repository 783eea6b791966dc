"""Tests for the observability layer: metrics, interval timelines, run
events, campaign telemetry wiring and the obs/perf CLIs."""

import io
import json
import multiprocessing

import pytest

from repro.campaign import CampaignSpec, ResultStore, SweepGrid, executor, run_campaign
from repro.campaign.cli import main as campaign_main
from repro.obs.cli import main as obs_main
from repro.obs.events import (
    EventLog,
    ObsSink,
    make_event,
    read_events,
    validate_event,
)
from repro.obs.metrics import Histogram
from repro.obs.timeline import (
    PHASE_MEASURE,
    PHASE_WARMUP,
    Timeline,
    TimelineObserver,
)
from repro.experiments.runner import run_simulation
from repro.sim.config import SystemConfig
from repro.sim.engine import ENGINE_MODES, SimulationEngine
from repro.sim.system import System
from repro.workloads.registry import get_workload


def tiny_run(timeline_interval=None, events=None, records=400, warmup=0.5, scheme="banshee"):
    return run_simulation(
        SystemConfig.tiny(scheme=scheme),
        workload_name="gcc",
        records_per_core=records,
        warmup_fraction=warmup,
        timeline_interval=timeline_interval,
        events=events,
    )


def tiny_spec(name, timeline_interval=None, schemes=("banshee",)):
    return CampaignSpec(
        name=name,
        grids=[SweepGrid(schemes=list(schemes), workloads=["gcc"], seeds=[1])],
        records_per_core=300,
        num_cores=2,
        preset="tiny",
        timeline_interval=timeline_interval,
    )


# ------------------------------------------------------------------- metrics


def test_histogram_counts_observations_per_bucket():
    histogram = Histogram("lat", bounds=(10.0, 100.0))
    for value in (5, 50, 500):
        histogram.observe(value)
    assert histogram.counts == [1, 1, 1]
    assert histogram.total == 3
    assert histogram.snapshot() == [1, 1, 1]


def test_histogram_quantile_and_bounds_validation():
    with pytest.raises(ValueError):
        Histogram("bad", bounds=(10.0, 10.0))
    histogram = Histogram("lat", bounds=(10.0, 20.0, 40.0))
    for value in [5] * 50 + [15] * 40 + [100] * 10:
        histogram.observe(value)
    assert histogram.quantile(0.5) == 10.0     # within the first bucket
    assert histogram.quantile(0.95) == 40.0    # overflow reports last finite bound
    assert histogram.quantile(0.0) == 10.0


# ------------------------------------------------------------------ timeline


def test_first_measured_window_starts_exactly_at_begin_measurement():
    # tiny preset = 2 cores; warmup 0.5 of 400 records/core -> boundary at
    # 400 processed records, deliberately NOT a multiple of the interval.
    result = tiny_run(timeline_interval=150, records=400)
    timeline = result.timeline_object()
    measured = timeline.measured
    assert measured, "expected at least one measured window"
    assert measured[0].start_record == 400
    # Warmup windows cover [0, 400) contiguously.
    warmup = timeline.warmup
    assert warmup[0].start_record == 0
    assert warmup[-1].end_record == 400
    for earlier, later in zip(timeline.windows, timeline.windows[1:]):
        assert earlier.end_record == later.start_record
        assert earlier.index + 1 == later.index
    assert all(w.phase == PHASE_WARMUP for w in warmup)
    assert all(w.phase == PHASE_MEASURE for w in measured)


def test_measured_window_totals_match_result_aggregates():
    result = tiny_run(timeline_interval=100, records=400)
    totals = result.timeline_object().totals(PHASE_MEASURE)
    assert totals["dram_cache_hits"] == result.dram_cache_hits
    assert totals["dram_cache_misses"] == result.dram_cache_misses
    assert totals["instructions"] == result.instructions
    assert totals["llc_misses"] == result.llc_misses
    assert totals["llc_writebacks"] == result.llc_writebacks
    assert totals["tlb_misses"] == result.tlb_misses
    assert totals["in_bytes"] == sum(result.in_traffic_bytes.values())
    assert totals["off_bytes"] == sum(result.off_traffic_bytes.values())


def test_observer_does_not_change_simulation_outcomes():
    plain = tiny_run(records=300)
    observed = tiny_run(timeline_interval=64, records=300)
    identity = observed.identity_dict()
    assert identity.pop("timeline") is not None
    assert identity == plain.identity_dict()


def test_timeline_round_trips_dict_csv_jsonl():
    timeline = tiny_run(timeline_interval=100, records=300).timeline_object()
    assert len(timeline.windows) > 2
    assert Timeline.from_dict(json.loads(json.dumps(timeline.to_dict()))) == timeline
    assert Timeline.from_csv(timeline.to_csv()) == timeline
    assert Timeline.from_jsonl(timeline.to_jsonl()) == timeline
    with pytest.raises(ValueError):
        Timeline.from_csv("index,phase\n0,measure\n")


def test_observer_rejects_nonpositive_interval():
    with pytest.raises(ValueError):
        TimelineObserver(0)
    with pytest.raises(ValueError):
        Timeline(interval_records=-5)


@pytest.mark.parametrize(
    "scheme,num_cores", [("banshee", 1), ("banshee", 2), ("hma", 4), ("alloy", 4)]
)
def test_timeline_identical_across_engine_modes(scheme, num_cores):
    """Every window, latency histogram included, matches between the scalar
    and batch engines, and observing changes no result in either mode
    (hma overrides ``notify_cycle``, the other per-record hook)."""
    config = SystemConfig.tiny(scheme=scheme, num_cores=num_cores, seed=3)
    workload = get_workload("gcc", num_cores, scale=0.05, seed=3)
    timelines = {}
    for mode in ENGINE_MODES:
        def run(observer=None):
            engine = SimulationEngine(System(config, workload), mode=mode)
            return engine.run(500, warmup_records_per_core=100, observer=observer)

        observed = run(TimelineObserver(97)).identity_dict()
        timelines[mode] = observed.pop("timeline")
        assert observed == run().identity_dict()
    assert timelines["scalar"] == timelines["batch"]
    assert {w["phase"] for w in timelines["batch"]["windows"]} == {PHASE_WARMUP, PHASE_MEASURE}


def test_engine_detaches_latency_hook_after_run():
    config = SystemConfig.tiny()
    system = System(config, get_workload("gcc", config.num_cores))
    SimulationEngine(system).run(100, observer=TimelineObserver(50))
    assert system._obs_latency_hook is None


# -------------------------------------------------------------------- events


def test_event_validation_and_round_trip(tmp_path):
    log = EventLog(tmp_path / "events.jsonl")
    log.emit("run_start", workload="gcc")
    log.emit("run_end", records=100)
    records = read_events(log.path, validate=True)
    assert [r["event"] for r in records] == ["run_start", "run_end"]
    with pytest.raises(ValueError):
        make_event("nope")
    with pytest.raises(ValueError):
        validate_event({"event": "run_start"})  # missing ts/pid
    with pytest.raises(ValueError):
        validate_event({"ts": 1.0, "pid": 1, "event": "invented"})


def test_read_events_skips_truncated_tail(tmp_path):
    path = tmp_path / "events.jsonl"
    log = EventLog(path)
    log.emit("run_start")
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"ts": 1.0, "pid": 1, "ev')  # crash mid-write
    assert [r["event"] for r in read_events(path)] == ["run_start"]


def test_engine_emits_run_events(tmp_path):
    log = EventLog(tmp_path / "events.jsonl")
    tiny_run(records=200, events=log)
    events = read_events(log.path, validate=True)
    names = [r["event"] for r in events]
    assert names == ["run_start", "warmup_end", "run_end"]
    # tiny preset = 2 cores; warmup 0.5 of 200 -> boundary at 200 processed.
    assert events[1]["records"] == 200
    assert events[2]["records"] == 400


# ----------------------------------------------------- campaign store errors


def test_store_persists_errors_and_retries(tmp_path, monkeypatch):
    spec = tiny_spec("errs", timeline_interval=None)
    store = ResultStore(tmp_path / "store")
    import repro.experiments.runner as runner_module

    def boom(*args, **kwargs):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(runner_module, "run_simulation", boom)
    report = run_campaign(spec, store=store)
    assert len(report.errors) == 1
    key = report.outcomes[0].key

    reopened = ResultStore(tmp_path / "store")
    assert key not in reopened          # errors read as absent -> retried
    assert len(reopened) == 0
    assert reopened.error_keys() == [key]
    assert "injected failure" in reopened.get_error(key)
    status = reopened.status()
    assert status["errors"] == 1
    assert status["errors_by_scheme"] == {"banshee": 1}
    assert status["errors_by_workload"] == {"gcc": 1}

    monkeypatch.undo()
    retried = run_campaign(spec, store=reopened)
    assert retried.outcomes[0].ok and not retried.outcomes[0].from_store
    final = ResultStore(tmp_path / "store")
    assert final.error_keys() == [] and len(final) == 1


def test_store_put_backfills_scheme_workload_meta(tmp_path):
    store = ResultStore(tmp_path / "store")
    result = tiny_run(records=200)
    store.put("some-key", result, meta={"seed": 1})  # no scheme/workload given
    status = ResultStore(tmp_path / "store").status()
    assert "?" not in status["by_scheme"]
    assert "?" not in status["by_workload"]
    assert status["by_scheme"] == {"banshee": 1}
    assert status["by_workload"] == {"gcc": 1}


# ------------------------------------------- serial vs parallel determinism


def test_timeline_identical_across_serial_and_parallel(tmp_path, monkeypatch):
    spec = tiny_spec("det", timeline_interval=75, schemes=["banshee", "alloy"])
    # Beat every 100 records so the 600-record cells emit heartbeat events.
    monkeypatch.setattr(executor, "BEAT_RECORDS", 100)
    obs = ObsSink.for_directory(tmp_path / "obs")
    serial = run_campaign(spec, store=ResultStore(tmp_path / "s"), workers=1, obs=obs)
    parallel = run_campaign(spec, store=ResultStore(tmp_path / "p"), workers=2, obs=obs)
    assert all(o.ok for o in serial.outcomes + parallel.outcomes)
    for left, right in zip(serial.outcomes, parallel.outcomes):
        assert left.key == right.key
        assert left.result.timeline is not None
        assert left.result.timeline == right.result.timeline
        assert left.result.identity_dict() == right.result.identity_dict()
    # Both executors emitted cell + heartbeat events into the shared sink.
    names = {r["event"] for r in read_events(obs.events_path, validate=True)}
    assert {"campaign_start", "campaign_end", "cell_start", "cell_finish",
            "heartbeat", "run_start", "run_end"} <= names
    # A finished campaign leaves no worker process behind.
    assert multiprocessing.active_children() == []


def test_timeline_interval_extends_cell_key_only_when_set():
    plain = tiny_spec("a").cells()[0]
    timed = tiny_spec("a", timeline_interval=100).cells()[0]
    assert plain.key() != timed.key()
    assert "timeline_interval" not in plain.meta()
    assert timed.meta()["timeline_interval"] == 100


# ----------------------------------------------------------------- CLI layer


def test_campaign_cli_run_with_timeline_and_live_status(tmp_path):
    store_dir = str(tmp_path / "store")
    out = io.StringIO()
    rc = campaign_main(
        ["run", "--store", store_dir, "--schemes", "banshee", "--workloads", "gcc",
         "--seeds", "1", "--records", "300", "--preset", "tiny",
         "--timeline", "100"],
        stream=out,
    )
    assert rc == 0
    text = out.getvalue()
    assert "elapsed, eta" in text            # progress line timing satellite

    events = read_events(f"{store_dir}/obs/events.jsonl", validate=True)
    assert any(r["event"] == "campaign_end" for r in events)

    live = io.StringIO()
    assert campaign_main(["status", "--store", store_dir, "--live"], stream=live) == 0
    assert "finished" in live.getvalue()

    status = io.StringIO()
    assert campaign_main(["status", "--store", store_dir], stream=status) == 0
    assert "banshee" in status.getvalue()

    # Stored timeline is live through the obs CLI.
    summary = io.StringIO()
    assert obs_main(["summarize", "--store", store_dir], stream=summary) == 0
    assert "1 cell(s) with timelines" in summary.getvalue()


def test_campaign_cli_no_obs_flag(tmp_path):
    store_dir = tmp_path / "store"
    rc = campaign_main(
        ["run", "--store", str(store_dir), "--schemes", "banshee", "--workloads", "gcc",
         "--seeds", "1", "--records", "200", "--preset", "tiny", "--quiet", "--no-obs"],
        stream=io.StringIO(),
    )
    assert rc == 0
    assert not (store_dir / "obs").exists()


def test_obs_cli_summarize_export(tmp_path):
    timeline = tiny_run(timeline_interval=100, records=300).timeline_object()
    csv_path = tmp_path / "t.csv"
    csv_path.write_text(timeline.to_csv(), encoding="utf-8")
    out = io.StringIO()
    assert obs_main(["summarize", "--timeline", str(csv_path)], stream=out) == 0
    assert "windows" in out.getvalue()

    # Export a store written through a result cache.
    from repro.experiments.runner import ResultCache

    store = ResultStore(tmp_path / "store")
    (cell,) = tiny_spec("export", timeline_interval=100).cells()
    ResultCache(store=store).result(cell)
    out = io.StringIO()
    assert obs_main(
        ["export", "--store", str(tmp_path / "store"), "--all", "--format", "csv"],
        stream=out,
    ) == 0
    header = out.getvalue().splitlines()[0]
    assert header.startswith("label,workload,seed,key,index,phase")

    assert obs_main(["summarize", "--events", str(tmp_path / "missing.jsonl")],
                    stream=io.StringIO()) == 2
