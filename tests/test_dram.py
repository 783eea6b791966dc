"""Unit tests for the DRAM substrate (timing, channel, device)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dram.device import DramDevice
from repro.dram.timing import DramTiming
from repro.sim.config import DramConfig, DramTimingConfig, SystemConfig
from repro.sim.stats import TrafficCategory, TrafficStats


def make_timing(bandwidth_scale=1.0, latency_scale=1.0):
    return DramTiming(DramTimingConfig(), 2.7, latency_scale=latency_scale, bandwidth_scale=bandwidth_scale)


def test_transfer_rounds_to_minimum_granularity():
    timing = make_timing()
    # A 64 B line plus a tag read of 8 B is charged as 96 B on the wire,
    # i.e. the 32 B minimum transfer makes 72 B cost the same as 96 B.
    assert timing.transfer_cycles(72) == timing.transfer_cycles(96)
    assert timing.transfer_cycles(64) < timing.transfer_cycles(96)
    assert timing.transfer_cycles(0) == 0


def test_transfer_scales_with_bytes():
    timing = make_timing()
    assert timing.transfer_cycles(4096) > 40 * timing.transfer_cycles(64)


def test_latency_scale_reduces_device_latency():
    fast = make_timing(latency_scale=0.5)
    slow = make_timing(latency_scale=1.0)
    assert fast.row_miss_latency_cycles < slow.row_miss_latency_cycles


def test_bandwidth_scale_changes_transfer_time():
    narrow = make_timing(bandwidth_scale=0.5)
    wide = make_timing(bandwidth_scale=1.0)
    assert narrow.transfer_cycles(4096) > wide.transfer_cycles(4096)


def one_channel_device(background_buffer_cycles=None):
    device = DramDevice(DramConfig(name="off", capacity_bytes=1 << 20, num_channels=1), 2.7)
    if background_buffer_cycles is not None:
        device.channels[0].background_buffer_cycles = background_buffer_cycles
    return device


def test_channel_queueing_delay_accumulates():
    device = one_channel_device()
    first = device.access(0, 0, 4096, TrafficCategory.HIT_DATA)
    second = device.access(0, 0, 64, TrafficCategory.HIT_DATA)
    assert first.queue_delay == 0
    assert second.queue_delay > 0
    timing = device.timing
    assert device.channels[0].total_busy_cycles == timing.transfer_cycles(4096) + timing.transfer_cycles(64)


def test_channel_idle_requests_have_no_queue_delay():
    device = one_channel_device()
    # A demand read completes at ``now + latency``.
    first = device.access(0, 0, 64, TrafficCategory.HIT_DATA)
    later = device.access(first.latency + 10_000, 0, 64, TrafficCategory.HIT_DATA)
    assert later.queue_delay == 0


def test_channel_background_traffic_is_buffered():
    device = one_channel_device(background_buffer_cycles=100_000)
    device.access(0, 0, 4096, TrafficCategory.REPLACEMENT, background=True)
    demand = device.access(0, 0, 64, TrafficCategory.HIT_DATA)
    # The buffered page move does not block the demand read.
    assert demand.queue_delay == 0


def test_channel_background_overflow_applies_backpressure():
    device = one_channel_device(background_buffer_cycles=10)
    device.access(0, 0, 1 << 16, TrafficCategory.REPLACEMENT, background=True)
    demand = device.access(0, 0, 64, TrafficCategory.HIT_DATA)
    assert demand.queue_delay > 0


def test_channel_background_drains_in_idle_gaps():
    device = one_channel_device(background_buffer_cycles=1 << 30)
    channel = device.channels[0]
    device.access(0, 0, 4096, TrafficCategory.REPLACEMENT, background=True)
    backlog = channel.background_backlog_cycles
    assert backlog > 0
    device.access(backlog + 10_000, 0, 64, TrafficCategory.HIT_DATA)
    assert channel.background_backlog_cycles == 0


def test_channel_rejects_negative_time():
    device = one_channel_device()
    with pytest.raises(ValueError):
        device.access(-1, 0, 64, TrafficCategory.HIT_DATA)


def test_device_routes_by_page_and_records_traffic():
    config = DramConfig(name="in-package", capacity_bytes=1 << 20, num_channels=4)
    device = DramDevice(config, 2.7, page_size=4096)
    result_a = device.access(0, 0, 64, TrafficCategory.HIT_DATA)
    result_b = device.access(0, 4096, 64, TrafficCategory.HIT_DATA)
    assert result_a.channel_id != result_b.channel_id
    assert device.traffic.bytes_for(TrafficCategory.HIT_DATA) == 128


def test_device_record_only_has_no_timing_effect():
    device = one_channel_device()
    device.record_only(4096, TrafficCategory.REPLACEMENT)
    assert device.traffic.bytes_for(TrafficCategory.REPLACEMENT) == 4096
    assert _channel_state(device.channels[0]) == _channel_state(one_channel_device().channels[0])


def test_device_utilization_bounded():
    config = DramConfig(name="off", capacity_bytes=1 << 20, num_channels=1)
    device = DramDevice(config, 2.7)
    for i in range(10):
        device.access(i, 0, 64, TrafficCategory.HIT_DATA)
    assert 0.0 <= device.utilization(10_000) <= 1.0


# ------------------------------------------------------ rejected accesses


#: Every field of a channel: its whole state.
_CHANNEL_FIELDS = (
    "channel_id",
    "background_buffer_cycles",
    "busy_until",
    "total_busy_cycles",
    "_background_backlog",
    "_last_row",
    "last_queue_delay",
)


def _channel_state(channel):
    return tuple(getattr(channel, name) for name in _CHANNEL_FIELDS)


def _device_state(device):
    return ([_channel_state(channel) for channel in device.channels], device.traffic.breakdown())


def _assert_rejected_before_any_state_change(dram, method, now, num_bytes):
    config = SystemConfig.scaled_default(num_cores=4)
    device = DramDevice(getattr(config, dram), config.core.freq_ghz)
    device.access_latency(0, 0, 4096, TrafficCategory.REPLACEMENT, background=True)
    assert device.channels[0].background_backlog_cycles > 0
    before = _device_state(device)
    with pytest.raises(ValueError):
        getattr(device, method)(now, 24_576, num_bytes, TrafficCategory.HIT_DATA)
    assert _device_state(device) == before


@pytest.mark.parametrize("method", ["access", "access_latency"])
@pytest.mark.parametrize("dram", ["in_package_dram", "off_package_dram"])
def test_device_rejects_negative_bytes_before_changing_state(dram, method):
    _assert_rejected_before_any_state_change(dram, method, now=50_000, num_bytes=-64)


@pytest.mark.parametrize("method", ["access", "access_latency"])
@pytest.mark.parametrize("dram", ["in_package_dram", "off_package_dram"])
def test_device_rejects_negative_time_before_changing_state(dram, method):
    _assert_rejected_before_any_state_change(dram, method, now=-1, num_bytes=64)


# ------------------------------------------- reference model of the access path
#
# ``access_latency``/``_drain_background`` below are the original multi-call
# channel implementation, copied unmodified, and ``record`` the original
# traffic accounting; the one-frame device path must match them exactly.


class _ReferenceTiming(DramTiming):
    def access_latency_cycles(self, row_hit: bool) -> int:
        """Device latency component for one access."""
        return self._row_hit_cycles if row_hit else self._row_miss_cycles


class _ReferenceChannel:
    def __init__(self, channel_id, timing, background_buffer_cycles=4096):
        self.channel_id = channel_id
        self.timing = timing
        self.background_buffer_cycles = background_buffer_cycles
        self.busy_until = 0
        self.total_busy_cycles = 0
        self.total_requests = 0
        self._background_backlog = 0
        self._last_row = -1
        self._row_hit_percent = 50
        self.last_queue_delay = 0
        self.last_transfer_cycles = 0
        self.last_completion_time = 0

    def _drain_background(self, now: int) -> None:
        """Use any idle time before ``now`` to drain buffered background work."""
        if self._background_backlog <= 0 or self.busy_until >= now:
            return
        idle = now - self.busy_until
        drained = min(idle, self._background_backlog)
        self.busy_until += drained
        self._background_backlog -= drained

    def access_latency(self, now: int, num_bytes: int, row: int = -1, background: bool = False) -> int:
        """Allocation-free :meth:`access`: returns the latency only.

        The queue-delay / transfer / completion details of the call are left
        in ``last_queue_delay`` / ``last_transfer_cycles`` /
        ``last_completion_time`` for callers that need them.
        """
        if now < 0:
            raise ValueError("time must be non-negative")
        transfer = self.timing.transfer_cycles(num_bytes)
        if row >= 0:
            row_hit = row == self._last_row
            self._last_row = row
        else:
            # Statistical approximation: alternate deterministically around
            # the configured fraction so behaviour stays reproducible.
            row_hit = (self.total_requests % 100) < self._row_hit_percent
        device_latency = self.timing.access_latency_cycles(row_hit)

        self._drain_background(now)
        self.total_busy_cycles += transfer
        self.total_requests += 1
        self.last_transfer_cycles = transfer

        if background:
            self._background_backlog += transfer
            overflow = self._background_backlog - self.background_buffer_cycles
            if overflow > 0:
                # The fill/writeback buffers are full: the excess applies
                # back-pressure and delays demand traffic like any transfer.
                self.busy_until = max(self.busy_until, now) + overflow
                self._background_backlog = self.background_buffer_cycles
            self.last_queue_delay = 0
            self.last_completion_time = max(now, self.busy_until) + device_latency + transfer
            return device_latency + transfer

        start = max(now, self.busy_until)
        queue_delay = start - now
        self.last_queue_delay = queue_delay
        self.last_completion_time = start + device_latency + transfer
        self.busy_until = start + transfer
        return queue_delay + device_latency + transfer


class _ReferenceTraffic(TrafficStats):
    def record(self, category: TrafficCategory, num_bytes: int) -> None:
        """Record ``num_bytes`` of traffic in ``category``."""
        if num_bytes < 0:
            raise ValueError(f"traffic bytes must be non-negative, got {num_bytes}")
        self._bytes[category] += num_bytes


class _ReferenceDevice:
    def __init__(self, config, cpu_freq_ghz, page_size=4096):
        timing = _ReferenceTiming(
            config.timing, cpu_freq_ghz, latency_scale=config.latency_scale, bandwidth_scale=config.bandwidth_scale
        )
        self.page_size = page_size
        self.channels = [_ReferenceChannel(i, timing) for i in range(config.num_channels)]
        self.traffic = _ReferenceTraffic(config.name)

    def access_latency(self, now, addr, num_bytes, category, background=False):
        channel = self.channels[(addr // self.page_size) % len(self.channels)]
        latency = channel.access_latency(now, num_bytes, row=addr // 8192, background=background)
        self.traffic.record(category, num_bytes)
        return latency


_SIZES = st.one_of(st.sampled_from([32, 64, 96, 128, 256, 4096]), st.integers(min_value=0, max_value=20_000))
_ADVANCES = st.one_of(
    st.just(0),  # dense bursts: back-to-back transfers overflow the background buffer
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=5_000, max_value=200_000),  # idle gaps drain the backlog
)
# Optionally move time to exactly one cycle before, at or after the target
# channel's busy edge, where every ``<``/``>`` of the timing model flips.
_SNAPS = st.one_of(st.none(), st.sampled_from([-1, 0, 1]))
_ACCESSES = st.tuples(
    _ADVANCES,
    _SNAPS,
    st.integers(min_value=0, max_value=(1 << 17) - 1),  # 16 rows over 4 channels
    _SIZES,
    st.sampled_from(list(TrafficCategory)),
    st.booleans(),
)
_BURST_THEN_IDLE = (
    [(0, None, 4096 * i, 4096, TrafficCategory.REPLACEMENT, True) for i in range(12)]
    + [(0, None, 64 * i, 64, TrafficCategory.HIT_DATA, False) for i in range(4)]
    + [(100_000, None, 8192, 96, TrafficCategory.MISS_DATA, False), (0, 1, 8192 + 64, 64, TrafficCategory.TAG, True)]
    # On one channel: a demand read; one cycle after it ends, a background
    # transfer that overflows the empty buffer on its own; a demand read one
    # cycle before the channel frees up; another one cycle after, with a
    # backlog to drain; a demand read queued behind it, then a background
    # transfer, which reports no queue delay.
    + [
        (0, None, 12288, 64, TrafficCategory.HIT_DATA, False),
        (0, 1, 12288, 12_000, TrafficCategory.REPLACEMENT, True),
        (0, -1, 12288 + 64, 64, TrafficCategory.HIT_DATA, False),
        (0, 1, 12288 + 128, 64, TrafficCategory.HIT_DATA, False),
        (0, None, 12288 + 192, 64, TrafficCategory.HIT_DATA, False),
        (0, None, 12288 + 256, 64, TrafficCategory.WRITEBACK, True),
    ]
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_ACCESSES, max_size=300))
@example(_BURST_THEN_IDLE)
def test_device_matches_reference_access_path(accesses):
    config = SystemConfig.scaled_default(num_cores=4)
    dram = config.in_package_dram
    device = DramDevice(dram, config.core.freq_ghz)
    reference = _ReferenceDevice(dram, config.core.freq_ghz)
    assert len(device.channels) > 1
    assert sorted(vars(device.channels[0])) == sorted(_CHANNEL_FIELDS)
    now = 0
    for advance, snap, addr, num_bytes, category, background in accesses:
        now += advance
        if snap is not None:
            now = max(now, device.channel_for(addr).busy_until + snap)
        got = device.access_latency(now, addr, num_bytes, category, background=background)
        expected = reference.access_latency(now, addr, num_bytes, category, background=background)
        assert got == expected
        for channel, ref in zip(device.channels, reference.channels):
            assert _channel_state(channel) == _channel_state(ref)
        assert device.traffic.breakdown() == reference.traffic.breakdown()
