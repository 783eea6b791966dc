"""Long-lived supervised worker slots: reuse, shutdown, clocks and signals.

Each :class:`SupervisedExecutor` slot keeps one process that runs cell
after cell; only a revoked lease replaces it.  These tests pin what that
design must keep: results equal to the serial path, per-process progress
beats, no process outliving a run (however it ends), a worker death between
cells costing one retry, one key computation per cell, graph cells served
from a worker's cached degree sequences, leases immune to wall-clock steps,
and a quiet process group on Ctrl-C.
"""

import gc
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
    CampaignCell,
    CampaignSpec,
    ResultStore,
    SerialExecutor,
    SupervisedExecutor,
    SupervisorConfig,
    SweepGrid,
    run_campaign,
)
from repro.campaign import executor, supervisor
from repro.campaign.cli import pid_alive
from repro.obs.events import EventLog, ObsSink, read_events

RUN = dict(records_per_core=600, num_cores=2, preset="tiny")

#: Snappy supervisor for tests: near-instant backoff.
FAST = dict(backoff_base=0.01, backoff_cap=0.05)

REPO = Path(__file__).resolve().parent.parent

#: Inline CLI campaign of 4 short cells (pending order: banshee/gcc,
#: banshee/mcf, alloy/gcc, alloy/mcf).
CLI_CAMPAIGN = ["--schemes", "banshee", "alloy", "--workloads", "gcc", "mcf",
                "--seeds", "1", "--records", "600", "--cores", "2", "--preset", "tiny",
                "--workers", "2"]


def tiny_spec(schemes=("banshee",), workloads=("gcc",), seeds=(1,)):
    return CampaignSpec(
        name="slots",
        grids=[SweepGrid(schemes=list(schemes), workloads=list(workloads), seeds=list(seeds))],
        **RUN,
    )


@pytest.fixture(autouse=True)
def clean_faults():
    """No fault plan (or claim state) leaks between tests or into workers."""
    faults.install(None)
    faults.reset()
    yield
    faults.install(None)
    faults.reset()


def events_of(path, event):
    return [record for record in read_events(path) if record["event"] == event]


def worker_pids(path):
    return {record["pid"] for record in events_of(path, "cell_start")}


def identities(outcomes):
    return [outcome.result.identity_dict() for outcome in outcomes]


def cli_run(store_dir, plan):
    """The CLI command line running :data:`CLI_CAMPAIGN` under fault ``plan``."""
    return ([sys.executable, "-m", "repro.campaign", "run", "--store", str(store_dir)]
            + CLI_CAMPAIGN + ["--inject", plan])


def cli_env(tmp_path):
    return dict(os.environ, PYTHONPATH=str(REPO / "src"), TMPDIR=str(tmp_path))


def test_workers_serve_many_cells(tmp_path, monkeypatch):
    """6 cells on 2 fork workers: 2 processes, each running several cells
    under one slot name and beating for the cell it is running."""
    cells = tiny_spec(schemes=["banshee", "alloy", "nocache"], seeds=[1, 2]).cells()
    # Forked workers inherit the shorter beat interval (each cell: 1200 records).
    monkeypatch.setattr(executor, "BEAT_RECORDS", 500)
    obs = ObsSink.for_directory(tmp_path / "obs")
    out = SupervisedExecutor(
        workers=2, config=SupervisorConfig(mp_start_method="fork", **FAST)
    ).run(cells, obs=obs)
    assert multiprocessing.active_children() == []
    assert identities(out) == identities(SerialExecutor().run(cells))

    pids = worker_pids(obs.events_path)
    assert len(pids) == 2 and not [pid for pid in pids if pid_alive(pid)]
    finished = Counter(record["pid"] for record in events_of(obs.events_path, "cell_finish"))
    assert sum(finished.values()) == len(cells)
    in_flight = {}
    names = {}
    beats = Counter()
    for record in read_events(obs.events_path):
        if record["event"] not in ("cell_start", "heartbeat", "cell_finish"):
            continue
        pid = record["pid"]
        assert names.setdefault(pid, record["worker"]) == record["worker"]
        if record["event"] == "cell_start":
            in_flight[pid] = record["key"]
        elif record["event"] == "heartbeat":
            assert record["key"] == in_flight[pid] and record["records"] in (500, 1000)
            beats[pid] += 1
    assert sorted(names.values()) == ["w0", "w1"]
    assert beats == Counter({pid: 2 * count for pid, count in finished.items()})


@pytest.mark.parametrize("times", [1, 3], ids=["retried", "quarantined"])
def test_revoked_slot_restarts_and_nothing_outlives_the_run(tmp_path, times):
    cells = tiny_spec(schemes=["banshee", "alloy"], seeds=[1, 2]).cells()
    faults.install(f"kill@cell=0:times={times}", state_dir=str(tmp_path / "faults"))
    obs = ObsSink.for_directory(tmp_path / "obs")
    out = SupervisedExecutor(
        workers=2, config=SupervisorConfig(max_attempts=3, **FAST)
    ).run(cells, obs=obs)
    assert [outcome.ok for outcome in out] == [times == 1, True, True, True]
    assert [outcome.quarantined for outcome in out] == [times == 3, False, False, False]
    revocations = len(events_of(obs.events_path, "lease_revoked"))
    assert revocations == times
    pids = worker_pids(obs.events_path)
    assert len(pids) <= 2 + revocations
    assert multiprocessing.active_children() == []
    assert not [pid for pid in pids if pid_alive(pid)]


class _DyingCollection:
    """``gc`` as forked workers see it: the first post-cell collection
    (claimed across workers through an ``O_EXCL`` marker file) sleeps, so
    the supervisor's next lease reaches the worker unread, then exits 9."""

    freeze = staticmethod(gc.freeze)

    def __init__(self, marker):
        self.marker = str(marker)

    def collect(self):
        try:
            os.close(os.open(self.marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return gc.collect()
        time.sleep(0.3)
        os._exit(9)


def test_worker_death_between_cells_costs_one_retry(tmp_path, monkeypatch):
    """A worker that dies after delivering an outcome, with its next lease
    unread (say OOM-killed in its post-cell collection), leaves a reset
    pipe: only that lease is revoked and retried, the campaign completes,
    and the delivered cell is not run again."""
    spec = CampaignSpec(
        name="slots",
        grids=[SweepGrid(schemes=["nocache", "banshee"], workloads=["gcc", "mcf"], seeds=[1])],
        records_per_core=300, num_cores=2, preset="tiny",
    )
    cells = spec.cells()
    monkeypatch.setattr(supervisor, "gc", _DyingCollection(tmp_path / "collected"))
    obs = ObsSink.for_directory(tmp_path / "obs")
    out = SupervisedExecutor(
        workers=2, config=SupervisorConfig(mp_start_method="fork", **FAST)
    ).run(cells, obs=obs)
    revoked = events_of(obs.events_path, "lease_revoked")
    assert [record["reason"] for record in revoked] == ["worker-died (exitcode 9)"]
    assert len(events_of(obs.events_path, "cell_retry")) == 1
    finished = Counter(record["key"] for record in events_of(obs.events_path, "cell_finish"))
    assert finished == Counter(cell.key() for cell in cells)
    assert identities(out) == identities(SerialExecutor().run(cells))
    assert multiprocessing.active_children() == []
    assert not [pid for pid in worker_pids(obs.events_path) if pid_alive(pid)]


def test_campaign_computes_each_cell_key_once(tmp_path, monkeypatch):
    """``run_campaign`` hashes each cell once; the supervisor's grants and
    the workers reuse those keys (a lease carries its cell's key)."""
    calls = tmp_path / "key-calls"
    original = CampaignCell.key

    def recorded_key(cell):
        with open(calls, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()} {cell.describe()}\n")
        return original(cell)

    # Forked workers inherit the wrapper, so a call there would be recorded.
    monkeypatch.setattr(CampaignCell, "key", recorded_key)
    spec = tiny_spec(schemes=["banshee", "alloy"], workloads=["gcc", "mcf"])
    report = run_campaign(spec, workers=2,
                          supervisor=SupervisorConfig(mp_start_method="fork", **FAST))
    assert [outcome.ok for outcome in report.outcomes] == [True] * 4
    assert multiprocessing.active_children() == []
    recorded = [line.split(" ", 1) for line in calls.read_text().splitlines()]
    assert {pid for pid, _ in recorded} == {str(os.getpid())}
    assert Counter(cell for _, cell in recorded) == Counter(
        cell.describe() for cell in spec.cells())


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_graph_cells_sharing_cached_sequences_match_serial(method):
    """Workers serving several graph cells from their process's cached
    degree sequences (pagerank and graph500 share one) match the serial
    path in both start methods."""
    spec = CampaignSpec(
        name="slots",
        grids=[SweepGrid(schemes=["nocache", "banshee"],
                         workloads=["pagerank", "graph500", "tri_count"], seeds=[1])],
        records_per_core=300, num_cores=2, preset="tiny",
    )
    cells = spec.cells()
    out = SupervisedExecutor(
        workers=2, config=SupervisorConfig(mp_start_method=method, **FAST)
    ).run(cells)
    assert identities(out) == identities(SerialExecutor().run(cells))
    assert multiprocessing.active_children() == []


def test_interrupt_stops_every_worker(tmp_path):
    spec = tiny_spec(schemes=["banshee", "alloy"], seeds=[1, 2])
    obs = ObsSink.for_directory(tmp_path / "store" / "obs")

    def interrupt_after_first(done, total, outcome):
        raise KeyboardInterrupt()

    report = run_campaign(spec, store=ResultStore(tmp_path / "store"), workers=2, obs=obs,
                          progress=interrupt_after_first, supervisor=SupervisorConfig(**FAST))
    assert report.interrupted and len(report.outcomes) == 1
    assert multiprocessing.active_children() == []
    assert not [pid for pid in worker_pids(obs.events_path) if pid_alive(pid)]


def test_interrupt_while_granting_still_stores_received_outcomes(tmp_path, monkeypatch):
    """A freed slot gets its next cell before the outcome it delivered is
    stored; an interrupt in between (here: the third grant, which follows
    the first outcome) still stores that outcome before the run stops."""
    spec = tiny_spec(schemes=["banshee", "alloy", "nocache"])
    emit = EventLog.emit
    grants = []

    def emit_then_interrupt(self, event, **fields):
        record = emit(self, event, **fields)
        if event == "lease_granted":
            grants.append(fields["key"])
            if len(grants) == 3:
                raise KeyboardInterrupt()
        return record

    monkeypatch.setattr(EventLog, "emit", emit_then_interrupt)
    store_dir = tmp_path / "store"
    report = run_campaign(spec, store=ResultStore(store_dir), workers=2,
                          obs=ObsSink.for_directory(store_dir / "obs"),
                          supervisor=SupervisorConfig(**FAST))
    assert report.interrupted and len(grants) == 3 and report.outcomes
    reopened = ResultStore(store_dir)
    assert all(outcome.ok and reopened.get(outcome.key) is not None
               for outcome in report.outcomes)
    assert multiprocessing.active_children() == []


def test_wall_clock_jump_revokes_no_lease(tmp_path, monkeypatch):
    """A +1 h wall-clock step after the first grant (NTP step, VM resume)
    must not look like a blown deadline or a stale heartbeat."""
    cells = tiny_spec(schemes=["banshee", "alloy"]).cells()
    real_time = time.time
    jumped = []
    emit = EventLog.emit

    def stepped_clock():
        return real_time() + (3600.0 if jumped else 0.0)

    def emit_then_jump(self, event, **fields):
        record = emit(self, event, **fields)
        if event == "lease_granted":
            jumped.append(True)
        return record

    monkeypatch.setattr(time, "time", stepped_clock)
    monkeypatch.setattr(EventLog, "emit", emit_then_jump)
    obs = ObsSink.for_directory(tmp_path / "obs")
    out = SupervisedExecutor(
        workers=2, config=SupervisorConfig(cell_timeout=30, **FAST)
    ).run(cells, obs=obs)
    assert jumped
    assert events_of(obs.events_path, "lease_revoked") == []
    assert identities(out) == identities(SerialExecutor().run(cells))


def test_drop_heartbeat_lasts_one_cell():
    faults.install("drop-heartbeat@cell=0")
    faults.set_current_cell(0)
    faults.fire("cell", cell=0)
    assert faults.heartbeat_dropped()
    faults.set_current_cell(1)
    assert not faults.heartbeat_dropped()


def test_cli_ctrl_c_to_process_group_is_quiet(tmp_path):
    """A terminal Ctrl-C signals the whole process group: the supervisor
    stops the run (exit 130) and no worker prints a traceback or lives on."""
    store_dir = tmp_path / "store"
    events_path = store_dir / "obs" / "events.jsonl"
    proc = subprocess.Popen(cli_run(store_dir, "hang@cell=2"), env=cli_env(tmp_path),
                            cwd=str(REPO), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        deadline = time.monotonic() + 240
        while len(events_of(events_path, "cell_finish")) < 2:
            assert proc.poll() is None and time.monotonic() < deadline, "two cells never finished"
            time.sleep(0.05)
        os.killpg(proc.pid, signal.SIGINT)
        stdout, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 130, stdout + stderr
    assert "Traceback" not in stderr, stderr
    assert not [line for line in stderr.splitlines() if line.startswith("Process ")], stderr
    pids = worker_pids(events_path)
    assert pids and not [pid for pid in pids if pid_alive(pid)]


def _running(pid):
    """Whether ``pid`` is a live, non-zombie process (an orphan's reaper may be slow)."""
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="utf-8") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_workers_exit_when_their_supervisor_dies(tmp_path):
    """A supervisor killed outright (here mid-append to the store) cannot
    stop its workers; idle ones notice the lost parent and exit instead of
    waiting for leases forever."""
    store_dir = tmp_path / "store"
    crashed = subprocess.run(cli_run(store_dir, "truncate-store@put=1"), env=cli_env(tmp_path),
                             cwd=str(REPO), capture_output=True, text=True, timeout=300)
    assert crashed.returncode == 1, crashed.stdout + crashed.stderr
    pids = worker_pids(store_dir / "obs" / "events.jsonl")
    assert pids
    deadline = time.monotonic() + 30
    while [pid for pid in pids if _running(pid)] and time.monotonic() < deadline:
        time.sleep(0.1)
    assert not [pid for pid in pids if _running(pid)]
