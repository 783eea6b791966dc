"""Tests for the supervised executor, fault injection and crash recovery.

The scenarios here are the robustness contract: deterministic fault plans
(:mod:`repro.faults`) kill, hang and silence workers at exact points, and
the supervisor must retry with backoff, quarantine repeat offenders,
degrade concurrency, tell a healthy long cell from a wedged one with or
without an obs sink, and — via mid-cell auto-snapshots — produce results
bit-identical to an uninterrupted run.
"""

import io
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from repro import faults
from repro.campaign import (
    CampaignSpec,
    ResultStore,
    SerialExecutor,
    SupervisedExecutor,
    SupervisorConfig,
    SweepGrid,
    run_campaign,
)
from repro.campaign.cli import _print_live, pid_alive
from repro.campaign.executor import _ProgressBeat
from repro.campaign.export import result_rows
from repro.campaign.supervisor import (
    install_signal_handlers,
    restore_signal_handlers,
)
from repro.faults import FaultInjected, FaultInjector, FaultPlan, FaultSpec
from repro.experiments.runner import run_simulation
from repro.obs.events import EventLog, ObsSink, make_event, read_events
from repro.sim.config import SystemConfig

RUN = dict(records_per_core=600, num_cores=2, preset="tiny")

#: The checkout under test: CLI subprocesses run its ``src``.
ROOT = Path(__file__).resolve().parents[1]

#: Snappy supervisor for tests: near-instant backoff.
FAST = dict(backoff_base=0.01, backoff_cap=0.05)

#: Staleness window for the long-cell tests, in seconds.
STALE_AFTER = 0.5


def tiny_spec(name="t", schemes=("banshee",), workloads=("gcc",), seeds=(1,), **kwargs):
    params = dict(RUN)
    params.update(kwargs)
    return CampaignSpec(
        name=name,
        grids=[SweepGrid(schemes=list(schemes), workloads=list(workloads), seeds=list(seeds))],
        **params,
    )


@pytest.fixture(autouse=True)
def clean_faults():
    """No fault plan (or claim state) leaks between tests or into workers."""
    faults.install(None)
    faults.reset()
    yield
    faults.install(None)
    faults.reset()


def long_cells():
    """One healthy cell lasting several ``STALE_AFTER`` windows (about 2 s
    on a 2-vCPU VM) that beats every ~0.08 s (20k of its 600k records)."""
    return tiny_spec(schemes=["nocache"], workloads=["pagerank"],
                     records_per_core=300_000, scale=0.01).cells()


def read_event_counts(obs):
    lines = Path(obs.events_path).read_text().splitlines()
    return Counter(json.loads(line)["event"] for line in lines)


def read_event_records(obs, event):
    lines = Path(obs.events_path).read_text().splitlines()
    return [json.loads(line) for line in lines if json.loads(line)["event"] == event]


def write_events(records, path):
    """Write ``records`` as a JSONL event log, one sorted-key object per line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(json.dumps(record, sort_keys=True) + "\n" for record in records),
                    encoding="utf-8")


def identity(outcome):
    payload = outcome.result.to_dict()
    payload.pop("wall_time_seconds", None)
    return payload


# ----------------------------------------------------------------- fault plans


def test_fault_plan_parse_and_round_trip():
    plan = FaultPlan.parse("kill@cell=3;hang@records=10k;truncate-store@put=2;"
                           "kill@cell=0:records=600:times=2")
    assert len(plan) == 4
    assert plan.specs[0].kind == "kill" and plan.specs[0].cell == 3
    assert plan.specs[1].records == 10_000 and plan.specs[1].site == "records"
    assert plan.specs[2].put == 2 and plan.specs[2].site == "store"
    assert plan.specs[3].times == 2 and plan.specs[3].site == "records"
    assert FaultPlan.parse(str(plan)).specs[3].times == 2
    assert str(FaultPlan.parse(str(plan))) == str(plan)


def test_fault_plan_rejects_garbage():
    with pytest.raises(ValueError, match="kind"):
        FaultPlan.parse("explode@cell=1")
    with pytest.raises(ValueError, match="trigger"):
        FaultPlan.parse("kill@times=2")
    with pytest.raises(ValueError, match="field"):
        FaultPlan.parse("kill@banana=3")
    with pytest.raises(ValueError, match="empty"):
        FaultPlan.parse(" ; ")
    with pytest.raises(ValueError):
        FaultSpec("kill", cell=1, times=0)


def test_fault_record_triggers_filter_by_cell():
    plan = FaultPlan.parse("kill@cell=1:records=400;hang@records=200;kill@cell=2:records=100")
    assert plan.record_triggers(1) == [200, 400]
    assert plan.record_triggers(0) == [200]
    assert plan.record_triggers(None) == [200]


def test_fault_injector_claims_once_locally():
    injector = FaultInjector(FaultPlan.parse("error@cell=0"))
    with pytest.raises(FaultInjected):
        injector.fire("cell", cell=0)
    injector.fire("cell", cell=0)  # claimed: second reach is a no-op
    injector.fire("cell", cell=1)  # different coordinate never matches


def test_fault_injector_claims_once_across_state_dir(tmp_path):
    plan = FaultPlan.parse("error@cell=0:times=2")
    first = FaultInjector(plan, state_dir=str(tmp_path))
    second = FaultInjector(plan, state_dir=str(tmp_path))
    fired = 0
    for injector in (first, second, first, second):
        try:
            injector.fire("cell", cell=0)
        except FaultInjected:
            fired += 1
    assert fired == 2  # times=2, shared globally via O_EXCL markers


# ----------------------------------------------------------------- supervisor


def test_supervised_matches_serial_bit_identical(tmp_path):
    cells = tiny_spec(schemes=["banshee", "alloy"]).cells()
    serial = SerialExecutor().run(cells)
    obs = ObsSink.for_directory(tmp_path / "obs")
    supervised = SupervisedExecutor(workers=2, config=SupervisorConfig(**FAST)).run(
        cells, obs=obs, snapshot_dir=str(tmp_path / "snaps"), snapshot_every=200)
    assert [o.key for o in supervised] == [o.key for o in serial]
    for a, b in zip(serial, supervised):
        assert b.ok and identity(a) == identity(b)
    counts = read_event_counts(obs)
    assert counts["lease_granted"] == 2 and counts["cell_finish"] == 2
    # Clean completion leaves no worker process and no spent snapshots.
    assert multiprocessing.active_children() == []
    assert list((tmp_path / "snaps").glob("*.json")) == []


def test_killed_worker_is_retried_and_succeeds(tmp_path):
    cells = tiny_spec().cells()
    faults.install("kill@cell=0", state_dir=str(tmp_path / "faults"))
    obs = ObsSink.for_directory(tmp_path / "obs")
    out = SupervisedExecutor(workers=1, config=SupervisorConfig(**FAST)).run(cells, obs=obs)
    assert out[0].ok and out[0].attempt == 2
    counts = read_event_counts(obs)
    assert counts["lease_revoked"] == 1 and counts["cell_retry"] == 1
    assert counts["cell_quarantined"] == 0
    revoked = read_event_records(obs, "lease_revoked")[0]
    assert "worker-died" in revoked["reason"]
    # The result is still bit-identical to an undisturbed serial run.
    faults.install(None)
    faults.reset()
    assert identity(out[0]) == identity(SerialExecutor().run(cells)[0])


def test_repeated_kills_quarantine_cell_and_degrade_pool(tmp_path):
    cells = tiny_spec(schemes=["banshee", "alloy"]).cells()
    faults.install("kill@cell=0:times=3", state_dir=str(tmp_path / "faults"))
    obs = ObsSink.for_directory(tmp_path / "obs")
    out = SupervisedExecutor(
        workers=2, config=SupervisorConfig(max_attempts=3, **FAST)
    ).run(cells, obs=obs)
    assert len(out) == 2
    poisoned = [o for o in out if not o.ok]
    assert len(poisoned) == 1 and poisoned[0].quarantined
    assert "poisoned" in poisoned[0].error and "3 failed attempt" in poisoned[0].error
    assert [o for o in out if o.ok]  # the healthy cell still completed
    counts = read_event_counts(obs)
    assert counts["lease_revoked"] == 3 and counts["cell_quarantined"] == 1
    assert counts["cell_retry"] == 2  # attempts 2 and 3; the 3rd failure quarantines
    # Graceful degradation: each involuntary death shrinks the worker target.
    revocations = read_event_records(obs, "lease_revoked")
    assert [r["workers"] for r in revocations] == [1, 1, 1]
    retries = read_event_records(obs, "cell_retry")
    # Capped exponential backoff: delay doubles between retries.
    delays = [r["backoff_seconds"] for r in retries]
    assert delays == sorted(delays) and delays[0] > 0


def test_hung_worker_revoked_by_cell_timeout(tmp_path):
    cells = tiny_spec().cells()
    faults.install("hang@cell=0", state_dir=str(tmp_path / "faults"))
    obs = ObsSink.for_directory(tmp_path / "obs")
    out = SupervisedExecutor(
        workers=1, config=SupervisorConfig(cell_timeout=0.5, **FAST)
    ).run(cells, obs=obs)
    assert out[0].ok and out[0].attempt == 2
    revoked = read_event_records(obs, "lease_revoked")
    assert len(revoked) == 1 and revoked[0]["reason"] == "timeout"


def test_wedged_worker_revoked_by_stale_heartbeat(tmp_path):
    # hang@records wedges the engine mid-cell: the process stays alive but
    # progress beats stop, so the lease goes stale — with an obs sink and
    # without one.  The retry is a healthy cell longer than the window.
    cells = long_cells()
    for case, obs in (("obs", ObsSink.for_directory(tmp_path / "obs")), ("no-obs", None)):
        faults.install("hang@records=200", state_dir=str(tmp_path / case / "faults"))
        out = SupervisedExecutor(
            workers=1,
            config=SupervisorConfig(stale_after=STALE_AFTER, cell_timeout=None, **FAST),
        ).run(cells, obs=obs)
        assert out[0].ok and out[0].attempt == 2, case
    revoked = read_event_records(ObsSink.for_directory(tmp_path / "obs"), "lease_revoked")
    assert len(revoked) == 1 and revoked[0]["reason"] == "stale-heartbeat"


def test_healthy_long_cell_without_obs_is_not_stale():
    """No obs sink (``run_campaign(workers>1)`` from code, ``--no-obs``):
    pipe beats alone keep cells several staleness windows long alive, so
    both complete on their first attempt."""
    spec = tiny_spec(schemes=["nocache"], workloads=["pagerank"], seeds=[1, 2],
                     records_per_core=300_000, scale=0.01)
    report = run_campaign(spec, workers=2, supervisor=SupervisorConfig(
        stale_after=STALE_AFTER, max_attempts=2, **FAST))
    assert not report.errors
    assert [outcome.attempt for outcome in report.outcomes] == [1, 1]


def test_dropped_beats_revoke_a_healthy_lease_once(tmp_path):
    """drop-heartbeat silences one healthy attempt's beats, pipe and events
    alike: that lease is revoked once as stale, and the retry beats, completes
    and matches a serial run bit for bit."""
    cells = long_cells()
    faults.install("drop-heartbeat@cell=0", state_dir=str(tmp_path / "faults"))
    # An events-only sink: liveness must not depend on anything a sink writes.
    obs = ObsSink(events_path=str(tmp_path / "events.jsonl"))
    out = SupervisedExecutor(
        workers=1, config=SupervisorConfig(stale_after=STALE_AFTER, **FAST)
    ).run(cells, obs=obs)
    assert out[0].ok and out[0].attempt == 2
    revoked = read_event_records(obs, "lease_revoked")
    assert [record["reason"] for record in revoked] == ["stale-heartbeat"]
    first, second = [record["pid"] for record in read_event_records(obs, "cell_start")]
    beats = read_event_records(obs, "heartbeat")
    assert beats and {record["pid"] for record in beats} == {second}
    assert first != second
    faults.install(None)
    faults.reset()
    assert identity(out[0]) == identity(SerialExecutor().run(cells)[0])


def test_injected_error_is_cell_error_not_retry(tmp_path):
    # Python exceptions stay per-cell error outcomes (the pre-existing
    # contract); only involuntary lease revocations burn retry budget.
    cells = tiny_spec().cells()
    faults.install("error@cell=0", state_dir=str(tmp_path / "faults"))
    obs = ObsSink.for_directory(tmp_path / "obs")
    out = SupervisedExecutor(workers=1, config=SupervisorConfig(**FAST)).run(cells, obs=obs)
    assert not out[0].ok and not out[0].quarantined
    assert "FaultInjected" in out[0].error
    counts = read_event_counts(obs)
    assert counts["cell_error"] == 1 and counts["lease_revoked"] == 0


# ------------------------------------------------------- snapshots and resume


@pytest.mark.parametrize("engine_mode", ["scalar", "batch"])
def test_heartbeat_edges_do_not_trigger_auto_snapshots(tmp_path, engine_mode):
    """Each chained controller fires only at its own stops: a 600-record
    cell beating every 20 records and snapshotting every 100 beats 30 times
    and saves 6 snapshots — not one snapshot per heartbeat."""
    beats = []
    log = EventLog(tmp_path / "events.jsonl")
    run_simulation(
        SystemConfig.tiny(scheme="banshee", num_cores=2, seed=1), workload_name="gcc",
        records_per_core=300, scale=0.05, events=log, engine_mode=engine_mode,
        snapshot_path=str(tmp_path / "cell.json"), snapshot_every=100,
        controller=_ProgressBeat(beats.append, 20),
    )
    saves = [e["records"] for e in read_events(log.path) if e["event"] == "snapshot_saved"]
    assert saves == [100, 200, 300, 400, 500, 600]
    assert beats == list(range(20, 601, 20))


def test_retry_resumes_from_mid_cell_snapshot(tmp_path):
    cells = tiny_spec().cells()
    faults.install("kill@records=400", state_dir=str(tmp_path / "faults"))
    obs = ObsSink.for_directory(tmp_path / "obs")
    out = SupervisedExecutor(workers=1, config=SupervisorConfig(**FAST)).run(
        cells, obs=obs, snapshot_dir=str(tmp_path / "snaps"), snapshot_every=100)
    assert out[0].ok and out[0].attempt == 2
    counts = read_event_counts(obs)
    assert counts["snapshot_restored"] == 1  # attempt 2 resumed, not restarted
    faults.install(None)
    faults.reset()
    assert identity(out[0]) == identity(SerialExecutor().run(cells)[0])


@pytest.mark.parametrize("engine_mode", ["scalar", "batch"])
def test_rerun_resumes_killed_campaign_bit_identical(tmp_path, monkeypatch, engine_mode):
    """The ISSUE's acceptance scenario: a campaign whose cell is SIGKILLed
    mid-run (every attempt, so run #1 quarantines it) is re-run and must
    resume from the last auto-snapshot, completing with exported results
    bit-identical to a never-interrupted campaign — in every engine mode."""
    monkeypatch.setenv("REPRO_ENGINE_MODE", engine_mode)
    spec = tiny_spec(schemes=["banshee", "alloy"])

    # Reference: the same campaign, never interrupted.
    clean_store = ResultStore(tmp_path / "clean")
    run_campaign(spec, store=clean_store, workers=2,
                 supervisor=SupervisorConfig(**FAST), snapshot_every=100)

    # Run #1: the first cell is killed on every attempt and quarantined.
    store = ResultStore(tmp_path / "store")
    obs = ObsSink.for_directory(tmp_path / "store" / "obs")
    faults.install("kill@cell=0:records=400:times=3", state_dir=str(tmp_path / "faults"))
    first = run_campaign(spec, store=store, workers=2, obs=obs,
                         supervisor=SupervisorConfig(max_attempts=3, **FAST),
                         snapshot_every=100)
    faults.install(None)
    faults.reset()
    assert len(first.errors) == 1 and first.errors[0].quarantined
    record = store.get_record(first.errors[0].key)
    assert record["poisoned"] is True
    snapshots = list((tmp_path / "store" / "obs" / "autosnapshots").glob("*.json"))
    assert len(snapshots) == 1  # the quarantined cell's resume point survives
    restored_before = read_event_counts(obs)["snapshot_restored"]

    # Run #2 (fresh process state in spirit): resumes mid-cell and completes.
    reopened = ResultStore(tmp_path / "store")
    second = run_campaign(spec, store=reopened, workers=2, obs=obs,
                          supervisor=SupervisorConfig(**FAST), snapshot_every=100)
    assert not second.errors
    assert read_event_counts(obs)["snapshot_restored"] == restored_before + 1
    assert list((tmp_path / "store" / "obs" / "autosnapshots").glob("*.json")) == []

    def comparable(store_obj):
        rows = {}
        for row in result_rows(store_obj):
            row.pop("wall_time_seconds", None)  # measures the host, not the sim
            rows[row["key"]] = row
        return rows

    assert comparable(ResultStore(tmp_path / "store")) == comparable(clean_store)


# ----------------------------------------------------------- store robustness


def test_truncated_store_line_warns_and_is_tolerated(tmp_path):
    store = ResultStore(tmp_path / "store")
    spec = tiny_spec()
    run_campaign(spec, store=store)
    with store.path.open("a", encoding="utf-8") as handle:
        handle.write('{"key": "k2", "result": {"half')  # hand-truncated append
    with pytest.warns(RuntimeWarning, match="unparseable"):
        reopened = ResultStore(tmp_path / "store")
    assert reopened.corrupt_lines == 1 and len(reopened) == 1
    assert reopened.status()["corrupt_lines"] == 1


def test_truncate_store_fault_crashes_then_rerun_recovers(tmp_path):
    """End to end through the CLI: a crash mid-append (injected) kills the
    driver, the reload warns and tolerates the half line, and a plain
    re-run completes the campaign."""
    store_dir = tmp_path / "store"
    base = [sys.executable, "-m", "repro.campaign", "run", "--store", str(store_dir),
            "--schemes", "banshee", "alloy", "--workloads", "gcc", "--seeds", "1",
            "--records", "600", "--cores", "2", "--preset", "tiny"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    crashed = subprocess.run(base + ["--inject", "truncate-store@put=1"],
                             capture_output=True, text=True, env=env, cwd=ROOT, timeout=300)
    assert crashed.returncode == 1  # the injected crash, not a clean exit
    raw = (store_dir / "results.jsonl").read_text()
    assert raw and not raw.endswith("\n")  # half a line, no terminator
    with pytest.warns(RuntimeWarning, match="unparseable"):
        reopened = ResultStore(store_dir)
    assert len(reopened) == 0 and reopened.corrupt_lines == 1

    rerun = subprocess.run(base, capture_output=True, text=True, env=env, cwd=ROOT, timeout=300)
    assert rerun.returncode == 0, rerun.stdout + rerun.stderr
    with pytest.warns(RuntimeWarning, match="unparseable"):
        final = ResultStore(store_dir)  # the repaired half line still warns
    assert len(final) == 2 and final.corrupt_lines == 1


def test_poisoned_error_records_counted_in_status(tmp_path):
    store = ResultStore(tmp_path / "store")
    store.put_error("k1", "boom", meta={"scheme": "banshee", "workload": "gcc"})
    store.put_error("k2", "poisoned: gave up", meta={"scheme": "alloy", "workload": "gcc"},
                    poisoned=True)
    info = ResultStore(tmp_path / "store").status()
    assert info["errors"] == 2 and info["poisoned"] == 1


# --------------------------------------------------------- interrupts/signals


def test_sigterm_maps_to_keyboard_interrupt():
    previous = install_signal_handlers()
    try:
        with pytest.raises(KeyboardInterrupt):
            os.kill(os.getpid(), signal.SIGTERM)
            time.sleep(0.5)  # the delivery interrupts the sleep
    finally:
        restore_signal_handlers(previous)


def test_serial_interrupt_reports_partial_campaign(tmp_path):
    spec = tiny_spec(schemes=["banshee", "alloy"])
    store = ResultStore(tmp_path / "store")
    obs = ObsSink.for_directory(tmp_path / "store" / "obs")

    def interrupt_after_first(done, total, outcome):
        raise KeyboardInterrupt()

    report = run_campaign(spec, store=store, progress=interrupt_after_first, obs=obs)
    assert report.interrupted and len(report.outcomes) == 1
    ends = read_event_records(obs, "campaign_end")
    assert ends and ends[-1]["status"] == "interrupted"
    # The completed cell persisted; re-running finishes the rest only.
    resumed = run_campaign(spec, store=ResultStore(tmp_path / "store"))
    assert not resumed.interrupted
    assert resumed.counts()["from_store"] == 1 and resumed.counts()["simulated"] == 1


def test_cli_sigint_exits_cleanly_with_interrupted_status(tmp_path):
    """SIGINT mid-campaign: completed outcomes are flushed, campaign_end says
    interrupted, the exit code is 130, and there is no traceback."""
    store_dir = tmp_path / "store"
    cmd = [sys.executable, "-m", "repro.campaign", "run", "--store", str(store_dir),
           "--schemes", "banshee", "--workloads", "gcc", "--seeds", "1", "2",
           "--records", "600", "--cores", "2", "--preset", "tiny",
           "--inject", "hang@cell=1"]  # cell 0 completes, cell 1 wedges forever
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, cwd=ROOT)
    events_path = store_dir / "obs" / "events.jsonl"
    deadline = time.time() + 240
    while time.time() < deadline:
        if events_path.exists() and "cell_finish" in events_path.read_text():
            break
        time.sleep(0.05)
    else:
        proc.kill()
        pytest.fail("first cell never finished")
    time.sleep(0.3)  # let the run settle into the injected hang
    proc.send_signal(signal.SIGINT)
    stdout, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 130, stdout + stderr
    assert "Traceback" not in stderr, stderr
    assert "interrupted" in stdout
    events = events_path.read_text().splitlines()
    ends = [json.loads(l) for l in events if json.loads(l)["event"] == "campaign_end"]
    assert ends and ends[-1]["status"] == "interrupted"
    assert len(ResultStore(store_dir)) == 1  # the finished cell was persisted
    pids = {json.loads(l)["pid"] for l in events if json.loads(l)["event"] == "cell_start"}
    assert pids and not [pid for pid in pids if pid_alive(pid)]


# ------------------------------------------------------------- live status


def _exit_quickly():
    return None


def _dead_pid():
    process = multiprocessing.get_context("spawn").Process(target=_exit_quickly)
    process.start()
    process.join()
    return process.pid


def test_pid_alive_and_sweep_dead():
    assert pid_alive(os.getpid())
    assert not pid_alive(None) and not pid_alive("nope") and not pid_alive(-4)
    assert not pid_alive(_dead_pid())


def test_status_live_drops_dead_pid_heartbeats(tmp_path):
    obs_dir = tmp_path / "obs"
    ghost, live = _dead_pid(), os.getpid()
    write_events([
        make_event("campaign_start", name="c", cells=3, pending=3, from_store=0, workers=2),
        dict(make_event("cell_start", worker="ghost", cell="x", key="kx"), pid=ghost),
        make_event("cell_start", worker="live", cell="y", key="ky"),
        make_event("cell_finish", worker="live", cell="y", key="ky", wall_seconds=0.5),
        make_event("cell_start", worker="live", cell="z", key="kz"),
        make_event("heartbeat", worker="live", state="running", cell="z", key="kz",
                   records=20_000),
    ], obs_dir / "events.jsonl")
    buffer = io.StringIO()
    _print_live(obs_dir, buffer)
    text = buffer.getvalue()
    assert "live" in text and "ghost" not in text
    row = next(line.split() for line in text.splitlines() if line.startswith("live"))
    assert row[:4] == ["live", "running", "z", "1"]  # worker, state, in-flight cell, done
