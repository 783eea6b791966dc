"""Tests for engine snapshots and what rides on them: capture / serialize /
restore / resume, ``replay``, timeline cells, ``status --live`` and the
Chrome trace-event export."""

import io
import json
import os

import pytest

from repro.campaign import CampaignSpec, ResultStore, SweepGrid, run_campaign
from repro.campaign.cli import main as campaign_main
from repro.obs.cli import main as obs_main
from repro.obs.events import EventLog, make_event, read_events
from repro.obs.export_chrome import events_to_trace, timeline_to_trace, write_trace
from repro.obs.snapshot import EngineSnapshot, capture, capture_cursor
from repro.obs.timeline import Timeline, TimelineObserver
from repro.sim.batch import RunController
from repro.sim.config import SystemConfig, config_from_dict, config_hash
from repro.sim.engine import ENGINE_MODES, SimulationEngine
from repro.sim.system import System
from repro.workloads.registry import get_workload

from conftest import CONFIGURATIONS, build_config

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_hotpath.json")


class SnapshotAt(RunController):
    """Test controller: capture one snapshot at global record ``target``."""

    def __init__(self, target, workload_meta=None):
        self.target = target
        self.workload_meta = workload_meta
        self.snapshot = None

    def next_stop(self, processed):
        return None if self.snapshot is not None else self.target

    def on_edge(self, cursor):
        if self.snapshot is None and cursor.processed >= self.target:
            self.snapshot = capture_cursor(cursor, workload_meta=self.workload_meta)
        return False

    def on_finish(self, cursor):
        return None


def build_engine(scheme="banshee", mode="batch", workload="gcc", num_cores=2,
                 scale=0.05, seed=1, config=None):
    if config is None:
        config = SystemConfig.tiny(scheme=scheme, num_cores=num_cores, seed=seed)
    system = System(config, get_workload(workload, config.num_cores, scale=scale, seed=seed))
    return SimulationEngine(system, mode=mode)


def run_resumed(config, workload, records, warmup, snap_at, mode):
    """identity_dict of a run interrupted at ``snap_at`` and resumed fresh."""
    controller = SnapshotAt(snap_at)
    first = SimulationEngine(System(config, workload), mode=mode)
    first.run(records, warmup_records_per_core=warmup, controller=controller)
    assert controller.snapshot is not None
    # Serialize through JSON so the resumed run exercises the full persisted
    # form, not live object references.
    snapshot = EngineSnapshot.from_dict(json.loads(json.dumps(controller.snapshot.to_dict())))
    resumed = SimulationEngine(System(config, workload), mode=mode)
    resumed.restore(snapshot)
    return resumed.run(records, warmup_records_per_core=warmup).identity_dict()


# -------------------------------------------------------------- resume identity


@pytest.mark.parametrize("mode", ENGINE_MODES)
@pytest.mark.parametrize("scheme", ["banshee", "alloy", "unison"])
def test_resume_at_record_is_bit_identical(scheme, mode):
    """Interrupt at record N, restore into a fresh system, finish: identical."""
    config = SystemConfig.tiny(scheme=scheme, num_cores=2, seed=3)
    workload = get_workload("gcc", 2, scale=0.05, seed=3)
    straight = SimulationEngine(System(config, workload), mode=mode)
    expected = straight.run(400, warmup_records_per_core=100).identity_dict()
    got = run_resumed(config, workload, 400, 100, snap_at=300, mode=mode)
    assert got == expected


@pytest.mark.parametrize("name", CONFIGURATIONS)
def test_resume_every_registered_variant(name):
    """Every scheme and sensitivity point snapshots and resumes bit-identically."""
    config = build_config(name, num_cores=2, seed=5)
    workload = get_workload("mcf", 2, scale=0.05, seed=5)
    expected = SimulationEngine(System(config, workload)).run(200).identity_dict()
    got = run_resumed(config, workload, 200, 0, snap_at=150, mode="batch")
    assert got == expected


def load_goldens():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)["cells"]


@pytest.mark.parametrize(
    "cell",
    [c for c in load_goldens() if c["workload"] == "gcc"],
    ids=lambda cell: f"{cell['scheme']}-{cell['workload']}",
)
def test_resume_matches_pre_refactor_goldens(cell):
    """A snapshot-interrupted run still lands exactly on the pinned goldens."""
    config = SystemConfig.scaled_default(
        scheme=cell["scheme"], num_cores=cell["num_cores"], seed=cell["seed"]
    )
    workload = get_workload(
        cell["workload"], cell["num_cores"], scale=cell["scale"], seed=cell["seed"]
    )
    got = run_resumed(
        config, workload, cell["records_per_core"], 0,
        snap_at=cell["records_per_core"], mode="batch",
    )
    assert json.loads(json.dumps(got)) == cell["result"]


def test_resume_before_warmup_edge_preserves_measurement():
    """A snapshot taken inside the warmup window resumes with warmup intact."""
    config = SystemConfig.tiny(num_cores=2, seed=2)
    workload = get_workload("gcc", 2, scale=0.05, seed=2)
    expected = SimulationEngine(System(config, workload)).run(
        400, warmup_records_per_core=200
    ).identity_dict()
    got = run_resumed(config, workload, 400, 200, snap_at=150, mode="batch")
    assert got == expected


GCC_META = {"name": "gcc", "num_cores": 2, "scale": 0.05, "seed": 1}


def gcc_snapshot(snap_at, records=600, warmup=300):
    """A snapshot of a 2-core tiny banshee/gcc run, with replay metadata."""
    config = SystemConfig.tiny(num_cores=2, seed=1)
    workload = get_workload("gcc", 2, scale=0.05, seed=1)
    controller = SnapshotAt(snap_at, workload_meta=GCC_META)
    SimulationEngine(System(config, workload)).run(
        records, warmup_records_per_core=warmup, controller=controller
    )
    return controller.snapshot


def test_resume_inside_warmup_rejects_an_earlier_warmup_edge(tmp_path):
    """A warmup-phase snapshot resumed with its warmup edge at or before the
    snapshot would never open the measurement window: the run raises, emits
    nothing and keeps the restored state, so a correct resume still works."""
    config = SystemConfig.tiny(num_cores=2, seed=1)
    workload = get_workload("gcc", 2, scale=0.05, seed=1)
    expected = SimulationEngine(System(config, workload)).run(
        600, warmup_records_per_core=300
    ).identity_dict()
    snapshot = gcc_snapshot(200)
    engine = SimulationEngine(System(config, workload))
    engine.restore(snapshot)
    events = EventLog(str(tmp_path / "events.jsonl"))
    for warmup in (0, 100):
        with pytest.raises(ValueError, match="inside warmup"):
            engine.run(600, warmup_records_per_core=warmup, events=events)
    with pytest.raises(ValueError, match="beyond max_records_per_core"):
        engine.run(50, warmup_records_per_core=25, events=events)
    assert read_events(events.path) == []
    assert engine.run(600, warmup_records_per_core=300).identity_dict() == expected

    path = snapshot.save(str(tmp_path / "snap.json"))
    assert obs_main(["replay", path, "--records", "600"], stream=io.StringIO()) == 2


def test_replay_timeline_output_requires_timeline(tmp_path, capsys):
    path = gcc_snapshot(600).save(str(tmp_path / "snap.json"))
    output = tmp_path / "replay.csv"
    base = ["replay", path, "--records", "600", "--warmup", "300",
            "--timeline-output", str(output)]
    assert obs_main(base, stream=io.StringIO()) == 2
    assert "--timeline-output requires --timeline N" in capsys.readouterr().err
    assert not output.exists()
    assert obs_main(base + ["--timeline", "100"], stream=io.StringIO()) == 0
    assert Timeline.from_csv(output.read_text(encoding="utf-8")).measured


# ------------------------------------------------------------ snapshot serde


def test_snapshot_dict_and_json_round_trip_exactly(tmp_path):
    engine = build_engine(scheme="banshee")
    engine.run(300, warmup_records_per_core=50)
    system = engine.system
    snapshot = capture(system, 600, [300, 300], True)
    payload = snapshot.to_dict()
    assert json.loads(json.dumps(payload)) == payload
    assert EngineSnapshot.from_dict(payload).to_dict() == payload
    path = str(tmp_path / "snap.json")
    snapshot.save(path)
    assert EngineSnapshot.load(path).to_dict() == payload
    summary = snapshot.summary()
    assert summary["processed"] == 600
    assert summary["workload"] == "gcc"


def test_snapshot_rejects_wrong_kind_version_and_config():
    engine = build_engine()
    engine.run(100)
    snapshot = capture(engine.system, 200, [100, 100], True)
    bad_kind = dict(snapshot.to_dict(), kind="something-else")
    with pytest.raises(ValueError, match="not an engine snapshot"):
        EngineSnapshot.from_dict(bad_kind)
    bad_version = dict(snapshot.to_dict(), version=999)
    with pytest.raises(ValueError, match="version"):
        EngineSnapshot.from_dict(bad_version)
    other = build_engine(scheme="alloy")
    with pytest.raises(ValueError, match="different configuration"):
        other.restore(snapshot)
    with pytest.raises(ValueError, match="cores"):
        capture(engine.system, 200, [100], True)


def test_config_from_dict_round_trips_presets():
    for config in (
        SystemConfig.tiny(num_cores=2).with_scheme("banshee", banshee_policy="lru"),
        SystemConfig.scaled_default(scheme="alloy", num_cores=4),
        SystemConfig.tiny(scheme="unison", num_cores=1, seed=9),
    ):
        rebuilt = config_from_dict(config.to_dict())
        assert rebuilt == config
        assert config_hash(rebuilt) == config_hash(config)


# --------------------------------------------------------------- chrome export


def test_timeline_to_trace_structure(tmp_path):
    events = EventLog(str(tmp_path / "events.jsonl"))
    engine = build_engine(scheme="banshee", seed=19)
    observer = TimelineObserver(100)
    result = engine.run(
        600, warmup_records_per_core=200, observer=observer, events=events,
    )
    trace = timeline_to_trace(result.timeline)
    assert set(trace) == {"traceEvents", "displayTimeUnit"}
    rows = trace["traceEvents"]
    slices = [e for e in rows if e["ph"] == "X"]
    counters = [e for e in rows if e["ph"] == "C"]
    instants = [e for e in rows if e["ph"] == "i"]
    windows = result.timeline["windows"]
    assert len(slices) == len(windows)
    assert len(counters) == 3 * len(windows)
    assert {s["name"] for s in slices} == {"warmup", "measure"}
    # Record-count timebase: slice starts line up with window boundaries.
    assert [s["ts"] for s in slices] == [w["start_record"] for w in windows]
    # One warmup_end instant, at the count the engine's event carries.
    assert [e["name"] for e in instants] == ["warmup_end"]
    (warmup_end,) = [e for e in read_events(events.path) if e["event"] == "warmup_end"]
    assert instants[0]["ts"] == warmup_end["records"]
    count = write_trace(trace, str(tmp_path / "trace.json"))
    assert count == len(rows)
    with open(tmp_path / "trace.json", encoding="utf-8") as fh:
        assert json.load(fh)["traceEvents"]


def test_events_to_trace_pairs_spans(tmp_path):
    records = [
        make_event("run_start", workload="gcc", scheme="banshee"),
        make_event("cell_start", cell="banshee/gcc/1"),
        make_event("cell_finish", cell="banshee/gcc/1"),
        make_event("run_end", workload="gcc"),
        make_event("cell_start", cell="banshee/gcc/2"),  # left unclosed
    ]
    trace = events_to_trace(records)
    slices = {e["name"]: e for e in trace["traceEvents"] if e["ph"] == "X"}
    assert "run:gcc" in slices
    assert any(name.startswith("cell:") for name in slices)
    unclosed = [e for e in trace["traceEvents"] if e["ph"] == "i" and "(unclosed)" in e["name"]]
    assert len(unclosed) == 1


def test_export_chrome_store_marks_only_its_own_warmup_end(tmp_path):
    """Engine events carry no cell identity, so a store cell's record axis
    takes its warmup_end from that cell's timeline, never from the log."""
    store_dir = str(tmp_path / "st")
    code = campaign_main(
        ["run", "--name", "two", "--schemes", "banshee", "alloy", "--workloads", "gcc",
         "--seeds", "1", "--records", "600", "--cores", "2", "--preset", "tiny",
         "--warmup", "0.5", "--timeline", "200", "--store", store_dir],
        stream=io.StringIO(),
    )
    assert code == 0
    events = str(tmp_path / "st" / "obs" / "events.jsonl")
    assert [e["event"] for e in read_events(events)].count("warmup_end") == 2
    out = str(tmp_path / "trace.json")
    code = obs_main(["export-chrome", "--store", store_dir, "--label", "banshee",
                     "--output", out], stream=io.StringIO())
    assert code == 0
    with open(out, encoding="utf-8") as fh:
        rows = json.load(fh)["traceEvents"]
    first_measured = next(e["ts"] for e in rows if e["ph"] == "X" and e["name"] == "measure")
    assert first_measured == 600
    instants = [(e["name"], e["ts"]) for e in rows if e["ph"] == "i"]
    assert instants == [("warmup_end", first_measured)]
    with pytest.raises(SystemExit) as exit_info:
        obs_main(["export-chrome", "--store", store_dir, "--label", "banshee",
                  "--events", events, "--output", out], stream=io.StringIO())
    assert exit_info.value.code == 2


def test_obs_cli_export_chrome(tmp_path):
    events = EventLog(str(tmp_path / "events.jsonl"))
    events.emit("run_start", workload="gcc", scheme="banshee")
    events.emit("run_end", workload="gcc")
    out = str(tmp_path / "trace.json")
    stream = io.StringIO()
    code = obs_main(["export-chrome", "--events", events.path, "--output", out], stream=stream)
    assert code == 0
    with open(out, encoding="utf-8") as fh:
        assert fh.read().startswith("{")


# ------------------------------------------------ timeline cells, live status


def _campaign_spec(name, records=600, timeline_interval=None):
    return CampaignSpec(
        name=name,
        grids=[SweepGrid(schemes=["banshee", "alloy"], workloads=["gcc"], seeds=[1])],
        records_per_core=records,
        num_cores=2,
        preset="tiny",
        warmup_fraction=0.5,
        timeline_interval=timeline_interval,
    )


def test_timeline_cells_bypass_checkpointing(tmp_path):
    """Timeline cells must simulate from record zero (the timeline covers
    the warmup windows too), so they never auto-snapshot."""
    store = ResultStore(str(tmp_path / "store"))
    report = run_campaign(
        _campaign_spec("tl", timeline_interval=100),
        store=store, snapshot_every=100,
    )
    assert not (tmp_path / "store" / "obs" / "autosnapshots").exists()
    for outcome in report.outcomes:
        assert outcome.ok
        phases = {w["phase"] for w in outcome.result.timeline["windows"]}
        assert phases == {"warmup", "measure"}


def test_campaign_cli_stale_after(tmp_path):
    store_dir = str(tmp_path / "store")
    stream = io.StringIO()
    code = campaign_main(
        ["run", "--name", "smoke", "--schemes", "banshee", "--workloads", "gcc",
         "--seeds", "1", "--records", "400", "--cores", "2", "--preset", "tiny",
         "--warmup", "0.5", "--store", store_dir],
        stream=stream,
    )
    assert code == 0

    # Fabricate a live worker whose last event is an hour old; status
    # --live must list it as stale.  Strip campaign_end so the campaign
    # reads as live.
    events_path = tmp_path / "store" / "obs" / "events.jsonl"
    lines = [line for line in events_path.read_text(encoding="utf-8").splitlines()
             if '"campaign_end"' not in line]
    old = make_event("cell_start", worker="worker-9", cell="banshee/gcc seed=1", key="k")
    old["ts"] -= 3600
    lines.append(json.dumps(old))
    events_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    stream = io.StringIO()
    code = campaign_main(["status", "--store", store_dir, "--live"], stream=stream)
    assert code == 0
    assert "stale workers (no event in >300s): worker-9" in stream.getvalue()

    stream = io.StringIO()
    code = campaign_main(
        ["status", "--store", store_dir, "--live", "--stale-after", "7200"],
        stream=stream,
    )
    assert code == 0
    assert "stale workers" not in stream.getvalue()
    assert "worker-9" in stream.getvalue()  # listed as a live worker instead
