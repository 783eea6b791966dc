"""Boundary tests for the engine's run-parameter validation and edge protocol."""

import pytest

from repro.obs.timeline import TimelineObserver
from repro.sim.batch import RunBudget, RunController
from repro.sim.config import SystemConfig
from repro.sim.engine import ENGINE_MODES, SimulationEngine
from repro.sim.system import System
from repro.workloads.registry import get_workload


def make_engine():
    config = SystemConfig.tiny()
    workload = get_workload("gcc", config.num_cores, scale=0.05)
    return SimulationEngine(System(config, workload))


def test_rejects_non_positive_records():
    with pytest.raises(ValueError, match="max_records_per_core"):
        make_engine().run(0)
    with pytest.raises(ValueError, match="max_records_per_core"):
        make_engine().run(-5)


def test_rejects_negative_warmup():
    with pytest.raises(ValueError, match="warmup_records_per_core"):
        make_engine().run(100, warmup_records_per_core=-1)


def test_rejects_warmup_equal_to_records():
    with pytest.raises(ValueError, match="warmup_records_per_core"):
        make_engine().run(100, warmup_records_per_core=100)
    with pytest.raises(ValueError, match="warmup_records_per_core"):
        make_engine().run(100, warmup_records_per_core=150)


def test_accepts_warmup_boundaries():
    zero = make_engine().run(120, warmup_records_per_core=0)
    assert zero.instructions > 0
    almost_all = make_engine().run(120, warmup_records_per_core=119)
    assert almost_all.cycles > 0


def test_rejects_unknown_engine_mode():
    config = SystemConfig.tiny()
    workload = get_workload("gcc", config.num_cores, scale=0.05)
    with pytest.raises(ValueError, match="engine mode"):
        SimulationEngine(System(config, workload), mode="warp")


def test_default_engine_mode_is_batch():
    assert make_engine().mode == "batch"


def test_rejects_non_positive_total_budget():
    with pytest.raises(ValueError, match="max_total_records"):
        make_engine().run(100, max_total_records=0)


# ------------------------------------------------------------ edge protocol


class _Log:
    """Event-log stand-in recording the warmup edge into a shared list."""

    def __init__(self, fired):
        self.fired = fired

    def emit(self, event, **fields):
        if event == "warmup_end":
            self.fired.append(("warmup", fields["records"]))


class _RecordingObserver(TimelineObserver):
    def __init__(self, interval, fired):
        super().__init__(interval)
        self.fired = fired

    def on_edge(self, cursor):
        self.fired.append(("observer", cursor.processed))
        return super().on_edge(cursor)


class _StopAt(RunController):
    def __init__(self, target, fired):
        self.target = target
        self.fired = fired

    def next_stop(self, processed):
        return self.target if processed < self.target else None

    def on_edge(self, cursor):
        self.fired.append(("controller", cursor.processed, cursor.measurement_started))
        return False


@pytest.mark.parametrize("num_cores", [1, 4])
@pytest.mark.parametrize("mode", ENGINE_MODES)
def test_coinciding_edges_fire_once_in_dispatch_order(mode, num_cores, monkeypatch):
    """Warmup, an observer window, a controller stop and the budget all land
    on one processed count: each fires exactly once, in chain order, and the
    run stops at exactly the budget with the uncontrolled run's results."""
    warmup = 200 // num_cores
    edge = warmup * num_cores
    fired = []

    def budget_edge(self, cursor):
        fired.append(("budget", cursor.processed))
        return True

    monkeypatch.setattr(RunBudget, "on_edge", budget_edge)

    def engine():
        config = SystemConfig.tiny(scheme="banshee", num_cores=num_cores, seed=2)
        workload = get_workload("gcc", num_cores, scale=0.05, seed=2)
        return SimulationEngine(System(config, workload), mode=mode)

    controlled = engine()
    result = controlled.run(
        400, max_total_records=edge, warmup_records_per_core=warmup,
        observer=_RecordingObserver(edge, fired), events=_Log(fired),
        controller=_StopAt(edge, fired),
    )
    assert fired == [
        ("warmup", edge), ("observer", edge), ("controller", edge, True), ("budget", edge),
    ]
    assert controlled.records_processed == edge

    fired.clear()
    plain = engine()
    expected = plain.run(400, max_total_records=edge, warmup_records_per_core=warmup)
    assert plain.records_processed == edge
    got = result.identity_dict()
    assert got.pop("timeline") is not None
    assert got == expected.identity_dict()


class _CursorLog(RunController):
    """Asks for an edge every ``step`` records and logs what each one sees."""

    def __init__(self, step):
        self.step = step
        self.seen = []

    def next_stop(self, processed):
        return processed + self.step

    def on_edge(self, cursor):
        self.seen.append((
            cursor.processed,
            list(cursor.consumed_per_core),
            [(core.clock, core._pending_stall) for core in cursor.system.cores],
            cursor.measurement_started,
        ))
        return False


#: Miss-heavy 4-core cells: Banshee flushes its tag buffers mid-run (so
#: cores carry pending OS stalls across edges), HMA's cycle hook turns the
#: batch engine's inline hit path off, and Alloy mixes inline and slow runs.
_CURSOR_SCHEMES = {
    "banshee": {"sampling_coefficient": 1.0, "tag_buffer_flush_threshold": 0.1},
    "hma": {},
    "alloy": {},
}


@pytest.mark.parametrize("step", [1, 7])
@pytest.mark.parametrize("scheme", sorted(_CURSOR_SCHEMES))
def test_edges_see_the_same_cursor_in_both_modes(scheme, step):
    """Every edge sees the same cursor and core state in both engine modes.

    At each edge the processed and consumed counts, every core's clock and
    pending stall, and whether measurement has started must match the
    scalar reference, and so must the final results.
    """
    def run(mode):
        config = SystemConfig.tiny(scheme=scheme, num_cores=4, seed=3).with_scheme(
            scheme, **_CURSOR_SCHEMES[scheme]
        )
        system = System(config, get_workload("mcf", 4, scale=0.05, seed=3))
        log = _CursorLog(step)
        results = SimulationEngine(system, mode=mode).run(
            600, warmup_records_per_core=150, controller=log
        )
        return log.seen, results.identity_dict()

    scalar_seen, scalar_results = run("scalar")
    batch_seen, batch_results = run("batch")
    assert [seen[0] for seen in scalar_seen] == list(range(step, 4 * 600 + 1, step))
    if scheme == "banshee":
        assert any(stall > 0.0 for seen in scalar_seen for _clock, stall in seen[2])
    assert batch_seen == scalar_seen
    assert batch_results == scalar_results
