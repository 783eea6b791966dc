"""Unit tests for statistics collection."""

import pytest

from repro.sim.stats import MissRateWindow, StatsSet, TrafficCategory, TrafficStats


def test_stats_set_inc_and_get():
    stats = StatsSet("test")
    stats.inc("hits")
    stats.inc("hits", 4)
    assert stats.get("hits") == 5
    assert stats.get("missing") == 0


def test_traffic_stats_breakdown():
    traffic = TrafficStats("in-package")
    traffic.record(TrafficCategory.HIT_DATA, 64)
    traffic.record(TrafficCategory.TAG, 32)
    traffic.record(TrafficCategory.HIT_DATA, 64)
    assert traffic.total_bytes == 160
    assert traffic.bytes_for(TrafficCategory.HIT_DATA) == 128
    assert traffic.breakdown()["Tag"] == 32


def test_traffic_stats_bytes_per_instruction():
    traffic = TrafficStats("x")
    traffic.record(TrafficCategory.REPLACEMENT, 4096)
    per_instr = traffic.bytes_per_instruction(1000)
    assert per_instr["Replacement"] == pytest.approx(4.096)
    assert traffic.bytes_per_instruction(0)["Replacement"] == 0.0


def test_traffic_stats_rejects_negative():
    traffic = TrafficStats("x")
    with pytest.raises(ValueError):
        traffic.record(TrafficCategory.TAG, -1)


def test_miss_rate_window_tracks_rate():
    window = MissRateWindow(window=100, initial_rate=1.0)
    assert window.rate == pytest.approx(1.0)
    for _ in range(100):
        window.record(hit=True)
    assert window.rate == pytest.approx(0.0, abs=0.05)
    for _ in range(100):
        window.record(hit=False)
    assert window.rate > 0.9


def test_miss_rate_window_validation():
    with pytest.raises(ValueError):
        MissRateWindow(window=0)
