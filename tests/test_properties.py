"""Property-based tests (hypothesis) for core data structures and invariants."""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.sram_cache import SramCache
from repro.core.frequency import FrequencySetMetadata
from repro.core.tag_buffer import TagBuffer, TagBufferFullError
from repro.dram.device import DramDevice
from repro.dramcache.footprint import FootprintPredictor
from repro.sim.config import CacheLevelConfig, DramConfig, TlbConfig
from repro.sim.stats import TrafficCategory, TrafficStats
from repro.vm.page_table import PageTable
from repro.vm.tlb import Tlb


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=1 << 20), st.booleans()), max_size=400))
def test_sram_cache_occupancy_and_counters(accesses):
    cache = SramCache("prop", CacheLevelConfig(size_bytes=4096, ways=4))
    for addr, is_write in accesses:
        cache.access(addr, is_write)
    assert cache.occupancy <= cache.capacity_lines
    assert cache.hits + cache.misses == len(accesses)
    # Every resident line must map to the set it is stored in.
    for line_addr in cache.resident_lines():
        assert cache.lookup(line_addr)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=512), st.booleans(), st.booleans()), max_size=300))
def test_tag_buffer_remap_entries_never_lost(operations):
    buffer = TagBuffer(num_entries=32, num_ways=4)
    expected_remaps = {}
    for page, cached, remap in operations:
        try:
            buffer.insert(page, cached, 0, remap)
        except TagBufferFullError:
            assert buffer.remap_count == len(buffer.remap_entries())
            continue
        # The running count must match a full scan after every operation.
        assert buffer.remap_count == len(buffer.remap_entries())
        if remap:
            expected_remaps[page] = cached
        elif page in expected_remaps:
            # A clean insert over an existing remap keeps the remap bit but
            # may update the mapping value.
            expected_remaps[page] = cached
    recorded = {page: cached for page, cached, _way in buffer.remap_entries()}
    assert recorded == expected_remaps
    assert buffer.occupancy <= buffer.num_entries
    buffer.clear_remap_bits()
    assert buffer.remap_count == len(buffer.remap_entries()) == 0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=500))
def test_frequency_counters_stay_in_range(pages):
    meta = FrequencySetMetadata(num_ways=4, num_candidates=5, counter_max=31)
    for page in pages:
        way = meta.find_cached(page)
        if way is not None:
            meta.increment(meta.cached[way])
        else:
            index = meta.find_candidate(page)
            if index is not None:
                meta.increment(meta.candidates[index])
            else:
                meta.install_candidate(page % 5, page, count=1)
    meta.check_invariants()
    for slot in meta.cached + meta.candidates:
        assert 0 <= slot.count <= 31


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1 << 16),
            st.integers(min_value=1, max_value=4096),
            st.integers(min_value=0, max_value=3),
            st.booleans(),
        ),
        max_size=200,
    )
)
def test_channel_time_never_goes_backwards(requests):
    device = DramDevice(DramConfig(name="off", capacity_bytes=1 << 20, num_channels=1), 2.7)
    channel = device.channels[0]
    now = 0
    previous_busy = 0
    previous_busy_until = 0
    for advance, num_bytes, row, background in requests:
        now += advance
        category = TrafficCategory.REPLACEMENT if background else TrafficCategory.HIT_DATA
        outcome = device.access(now, row * 8192, num_bytes, category, background=background)
        assert outcome.latency >= 0
        # Every transfer of at least one byte occupies the channel.
        assert channel.total_busy_cycles > previous_busy
        assert channel.busy_until >= previous_busy_until
        previous_busy = channel.total_busy_cycles
        previous_busy_until = channel.busy_until


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=200))
def test_footprint_prediction_bounded_by_page(lines):
    predictor = FootprintPredictor(page_size=4096, granularity_lines=4)
    predictor.on_fill(0)
    for line in lines:
        predictor.on_access(0, line * 64)
    assert 64 <= predictor.writeback_bytes(0) <= 4096
    predictor.on_evict(0)
    assert 256 <= predictor.predicted_fill_bytes() <= 4096


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(list(TrafficCategory)), st.integers(min_value=0, max_value=8192)), max_size=300))
def test_traffic_totals_are_consistent(records):
    traffic = TrafficStats("prop")
    for category, num_bytes in records:
        traffic.record(category, num_bytes)
    assert traffic.total_bytes == sum(num_bytes for _category, num_bytes in records)
    assert traffic.total_bytes == sum(traffic.breakdown().values())


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1 << 14), min_size=1, max_size=300), st.integers(min_value=1, max_value=8))
def test_lru_cache_matches_reference_model(addresses, ways):
    """The SRAM cache's LRU behaviour must match a simple reference model."""
    config = CacheLevelConfig(size_bytes=ways * 64, ways=ways)  # a single set
    cache = SramCache("ref", config)
    reference = OrderedDict()
    for addr in addresses:
        line = addr // 64
        hit = cache.access(addr, False).hit
        ref_hit = line in reference
        assert hit == ref_hit
        if ref_hit:
            reference.move_to_end(line)
        else:
            if len(reference) >= ways:
                reference.popitem(last=False)
            reference[line] = True


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["lookup", "fill", "refill", "invalidate", "invalidate_all"]), st.integers(0, 11)),
        max_size=300,
    ),
    st.integers(min_value=1, max_value=6),
)
def test_tlb_lru_matches_reference_model(operations, entries):
    """The TLB's hits, misses, occupancy and LRU order match a list model.

    The model keeps resident vpns least recently used first: a hit or a
    fill moves its vpn to the back, a fill of a vpn that is not resident
    into a full TLB drops the front, and invalidations remove in place.
    ``refill`` fills a vpn that is already resident (picked by index).
    """
    table = PageTable(page_size=4096)
    tlb = Tlb(0, TlbConfig(entries=entries))
    order = []
    hits = misses = 0
    for op, value in operations:
        if op == "refill":
            if not order:
                continue
            op, value = "fill", order[value % len(order)]
        vpn = value
        if op == "lookup":
            entry = tlb.lookup(vpn)
            if vpn in order:
                hits += 1
                order.remove(vpn)
                order.append(vpn)
                assert entry is table.entry_for_vpn(vpn)
            else:
                misses += 1
                assert entry is None
        elif op == "fill":
            pte = table.entry_for_vpn(vpn)
            assert tlb.fill(pte) is pte
            if vpn in order:
                order.remove(vpn)
            elif len(order) >= entries:
                del order[0]
            order.append(vpn)
        elif op == "invalidate":
            assert tlb.invalidate(vpn) == (vpn in order)
            if vpn in order:
                order.remove(vpn)
        else:
            assert tlb.invalidate_all() == len(order)
            order.clear()
        assert list(tlb._entries) == order
    assert (tlb.hits, tlb.misses, tlb.occupancy) == (hits, misses, len(order))
