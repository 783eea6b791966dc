"""Tests for pickled engine snapshots: what a hand-written codec could miss,
rejected resume points falling back to a fresh start, the read-only state
view behind ``summarize --snapshot``, and ``replay`` refusing to guess a
workload scale or to read a snapshot written by other code."""

import io
import json
import os

import pytest

from repro.experiments.runner import run_simulation
from repro.obs.cli import main as obs_main
from repro.obs.events import EventLog, read_events
from repro.obs.snapshot import EngineSnapshot, capture, capture_cursor, source_digest
from repro.sim.batch import RunController
from repro.sim.config import SystemConfig
from repro.sim.engine import SimulationEngine
from repro.sim.system import System
from repro.workloads.registry import get_workload

SCALE = 0.05
SEED = 1


class SnapshotAt(RunController):
    """Capture one snapshot at global record ``target``."""

    def __init__(self, target):
        self.target = target
        self.snapshot = None

    def next_stop(self, processed):
        return None if self.snapshot is not None else self.target

    def on_edge(self, cursor):
        if self.snapshot is None and cursor.processed >= self.target:
            self.snapshot = capture_cursor(cursor)
        return False


def build_engine(mode="batch", scheme="banshee"):
    config = SystemConfig.tiny(scheme=scheme, num_cores=2, seed=SEED)
    workload = get_workload("gcc", 2, scale=SCALE, seed=SEED)
    return SimulationEngine(System(config, workload), mode=mode)


def snapshot_at(target, records=500, mode="batch"):
    controller = SnapshotAt(target)
    result = build_engine(mode).run(records, controller=controller)
    assert controller.snapshot is not None
    return controller.snapshot, result


# ------------------------------------------------------------ deep state


def test_attribute_added_to_deep_components_survives_resume(tmp_path):
    """State no codec was written for still round-trips: the whole system is
    pickled, so a new attribute on a tag buffer or a DRAM channel survives
    save -> load -> restore into a fresh engine."""
    engine = build_engine()
    engine.run(300)
    system = engine.system
    system.scheme.tag_buffers[0].probe_note = {"flushes": [3, 5], "label": "tb0"}
    system.off_dram.channels[-1].probe_note = 17
    path = str(tmp_path / "snap.json")
    capture(system, 600, [300, 300], True).save(path)

    fresh = build_engine()
    fresh.restore(EngineSnapshot.load(path))
    assert fresh.system.scheme.tag_buffers[0].probe_note == {
        "flushes": [3, 5], "label": "tb0"}
    assert fresh.system.off_dram.channels[-1].probe_note == 17
    # The live workload is re-attached to the swapped-in system.
    assert fresh.system.workload.name == "gcc"


def test_rejected_restore_leaves_engine_untouched():
    snapshot, _ = snapshot_at(300)
    snapshot.source_digest = "0" * 64
    engine = build_engine()
    before = engine.system
    with pytest.raises(ValueError, match="different simulator code"):
        engine.restore(snapshot)
    assert engine.system is before
    assert engine.run(500).identity_dict() == build_engine().run(500).identity_dict()


def test_corrupt_pickle_payload_is_a_value_error():
    snapshot, _ = snapshot_at(300)
    snapshot.system = snapshot.system[: len(snapshot.system) // 2]
    with pytest.raises(ValueError, match="corrupt snapshot payload"):
        build_engine().restore(snapshot)


# ------------------------------------------- stale resume points restart fresh


def _damaged(snapshot, damage):
    """JSON text of ``snapshot`` broken the way ``damage`` names."""
    payload = snapshot.to_dict()
    if damage == "truncated":
        text = json.dumps(payload)
        return text[: len(text) // 2]
    if damage == "version-1":
        # The layout the per-class codecs wrote: a JSON state tree, no
        # source digest.
        payload = dict(payload, version=1, system={"cores": []})
        del payload["source_digest"]
    elif damage == "source-digest":
        payload["source_digest"] = "f" * 64
    return json.dumps(payload)


DAMAGES = ["truncated", "version-1", "source-digest"]


@pytest.mark.parametrize("damage", DAMAGES)
def test_stale_autosnapshot_means_fresh_start(tmp_path, damage):
    config = SystemConfig.tiny(num_cores=2, seed=SEED)
    records, warmup = 400, 0.25
    expected = run_simulation(config, "gcc", records_per_core=records, scale=SCALE,
                              seed=SEED, warmup_fraction=warmup).identity_dict()

    path = tmp_path / "cell.json"
    path.write_text(_damaged(snapshot_at(300, records)[0], damage), encoding="utf-8")

    log = EventLog(str(tmp_path / "events.jsonl"))
    got = run_simulation(config, "gcc", records_per_core=records, scale=SCALE,
                         seed=SEED, warmup_fraction=warmup, events=log,
                         snapshot_path=str(path), snapshot_every=100)
    assert got.identity_dict() == expected
    names = [event["event"] for event in read_events(log.path)]
    assert "snapshot_restored" not in names
    # The cell overwrote its resume point as it ran (and removed it at the end).
    assert "snapshot_saved" in names
    assert not path.exists()


# ----------------------------------------------------- summarize --snapshot


def _summarize(path, *extra):
    stream = io.StringIO()
    assert obs_main(["summarize", "--snapshot", path, *extra], stream=stream) == 0
    return stream.getvalue()


def test_summarize_snapshot_view_is_json_and_engine_mode_independent(tmp_path):
    views = {}
    for mode in ("scalar", "batch"):
        path = str(tmp_path / f"{mode}.json")
        snapshot_at(400, mode=mode)[0].save(path)
        payload = json.loads(_summarize(path, "--json"))
        assert "system" not in payload
        assert payload["source_digest"] == source_digest()
        assert payload["progress"]["processed"] == 400
        assert payload["view"]["scheme"]["@class"] == "BansheeCache"
        views[mode] = payload["view"]
    assert views["scalar"] == views["batch"]

    text = _summarize(str(tmp_path / "batch.json"))
    assert "processed" in text and "400" in text


# ------------------------------------------------------------------- replay


def test_replay_refuses_to_guess_the_workload_scale(tmp_path, capsys):
    """A capture without workload metadata records no scale; replay must ask
    for --scale rather than rebuild the workload at scale 1.0."""
    snapshot, straight = snapshot_at(600, records=1000)
    assert "scale" not in snapshot.workload
    path = str(tmp_path / "snap.json")
    snapshot.save(path)

    stream = io.StringIO()
    assert obs_main(["replay", path, "--records", "1000"], stream=stream) == 2
    assert "--scale" in capsys.readouterr().err

    stream = io.StringIO()
    code = obs_main(["replay", path, "--records", "1000", "--scale", str(SCALE)],
                    stream=stream)
    assert code == 0
    text = stream.getvalue()
    payload = json.loads(text[text.index("{"):])
    assert payload["resumed_at_record"] == 600
    assert payload["summary"] == json.loads(json.dumps(straight.summary()))
    assert os.path.exists(path)


def test_replay_reports_a_snapshot_from_other_code_as_stale(tmp_path, capsys):
    """The source digest is checked before the embedded config is parsed, so
    a snapshot whose config names a field this code retired is reported as
    written by different code, not as a bad config."""
    snapshot, _ = snapshot_at(300)
    payload = snapshot.to_dict()
    payload["source_digest"] = "f" * 64
    payload["config"]["core"]["mlp"] = 2.0  # a CoreConfig field that was deleted
    path = tmp_path / "snap.json"
    path.write_text(json.dumps(payload), encoding="utf-8")

    code = obs_main(["replay", str(path), "--records", "500", "--scale", str(SCALE)],
                    stream=io.StringIO())
    assert code == 2
    err = capsys.readouterr().err
    assert "different simulator code" in err
    assert "CoreConfig" not in err
