"""Unit tests for the virtual-memory substrate (page table, TLB, reverse map)."""

import pytest

from repro.sim.config import TlbConfig
from repro.vm.page_table import PageTable
from repro.vm.physical_memory import FrameAllocator
from repro.vm.reverse_mapping import ReverseMapping
from repro.vm.shootdown import ShootdownCostModel
from repro.vm.tlb import Tlb


def test_translate_allocates_and_reuses():
    table = PageTable(page_size=4096)
    entry_a = table.translate(0x1234)
    entry_b = table.translate(0x1FFF)
    assert entry_a is entry_b
    assert table.mapped_pages() == 1


def test_identity_mapping():
    table = PageTable(page_size=4096)
    entry = table.translate(5 * 4096 + 12)
    assert entry.ppn == 5


def test_apply_mapping_updates_all_aliases():
    table = PageTable(page_size=4096)
    table.translate(7 * 4096)
    table.alias(vpn=100, target_vpn=7)
    updated = table.apply_mapping(7, cached=True, way=2)
    assert updated == 2
    assert table.entry_for_vpn(7).cached
    assert table.entry_for_vpn(100).cached
    assert table.entry_for_vpn(100).way == 2


def test_reverse_mapping_alias_count():
    rmap = ReverseMapping()
    rmap.add(10, 1)
    rmap.add(10, 2)
    assert rmap.alias_count(10) == 2
    rmap.remove(10, 1)
    assert set(rmap.vpns_for(10)) == {2}


def test_reverse_mapping_remove_prunes_empty_frames():
    """Removing a frame's last mapping must drop its entry entirely.

    Regression test: ``remove`` used to leave a permanently-empty set in the
    backing defaultdict for every frame ever touched, so a simulation with
    page churn leaked one set per retired frame.
    """
    rmap = ReverseMapping()
    for frame in range(100):
        rmap.add(frame, frame + 1000)
        rmap.remove(frame, frame + 1000)
    assert len(rmap) == 0
    assert rmap._map == {}  # no empty-set residue in the backing dict

    # Removing a never-added pair must not (re)create an entry either.
    rmap.remove(12345, 1)
    assert rmap._map == {}

    # Partial removal keeps the frame listed until the last alias goes.
    rmap.add(7, 1)
    rmap.add(7, 2)
    rmap.remove(7, 1)
    assert len(rmap) == 1
    assert set(rmap.vpns_for(7)) == {2}
    rmap.remove(7, 2)
    assert len(rmap) == 0
    assert rmap.alias_count(7) == 0


def test_frame_allocator_reuses_freed_frames():
    allocator = FrameAllocator()
    first = allocator.allocate()
    second = allocator.allocate()
    assert first != second
    allocator.free(first)
    assert allocator.allocate() == first


def test_tlb_hit_miss_and_capacity():
    table = PageTable(page_size=4096)
    tlb = Tlb(0, TlbConfig(entries=4))
    for vpn in range(6):
        assert tlb.lookup(vpn) is None
        tlb.fill(table.entry_for_vpn(vpn))
    # Capacity is 4, so the two oldest translations were evicted.
    assert tlb.occupancy == 4
    assert tlb.lookup(0) is None
    assert tlb.lookup(5) is not None


def test_tlb_lru_keeps_recently_used():
    table = PageTable(page_size=4096)
    tlb = Tlb(0, TlbConfig(entries=2))
    tlb.fill(table.entry_for_vpn(1))
    tlb.fill(table.entry_for_vpn(2))
    tlb.lookup(1)
    tlb.fill(table.entry_for_vpn(3))
    assert tlb.lookup(1) is not None
    assert tlb.lookup(2) is None


def test_tlb_shootdown_clears_entries():
    table = PageTable(page_size=4096)
    tlb = Tlb(0, TlbConfig(entries=8))
    for vpn in range(5):
        tlb.fill(table.entry_for_vpn(vpn))
    dropped = tlb.invalidate_all()
    assert dropped == 5
    assert tlb.occupancy == 0
    assert tlb.invalidations == 1


def test_tlb_entry_carries_mapping_bits():
    table = PageTable(page_size=4096)
    pte = table.entry_for_vpn(9)
    pte.cached = True
    pte.way = 3
    tlb = Tlb(0, TlbConfig(entries=8))
    entry = tlb.fill(pte)
    assert entry.cached and entry.way == 3
    # The TLB caches the PTE object itself, not a copy of its bits.
    assert entry is pte and tlb.lookup(9) is pte


def test_shootdown_costs_match_table3():
    model = ShootdownCostModel(num_cores=4, freq_ghz=2.7, initiator_us=4.0, slave_us=1.0)
    cost = model.shootdown(initiator_core=2)
    assert cost.per_core_cycles[2] == 10_800
    assert cost.per_core_cycles[0] == 2_700
    assert model.shootdowns == 1
    with pytest.raises(ValueError):
        model.shootdown(99)
