"""Unit tests for the virtual-memory substrate (page table, TLB, shootdown costs)."""

import pytest

from repro.sim.config import TlbConfig
from repro.vm.page_table import PageTable
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
    assert entry.vpn == 5


def test_apply_mapping_updates_the_pte_a_tlb_holds():
    """The update rewrites the one PTE object of the page, so a TLB holding
    it sees the new bits; a page never translated has no PTE to update."""
    table = PageTable(page_size=4096)
    tlb = Tlb(0, TlbConfig(entries=8))
    pte = tlb.fill(table.translate(7 * 4096))
    assert table.apply_mapping(7, cached=True, way=2) == 1
    assert tlb.lookup(7) is pte
    assert pte.cached and pte.way == 2
    assert table.apply_mapping(7, cached=False, way=0) == 1
    assert not pte.cached and pte.way == 0

    assert table.apply_mapping(100, cached=True, way=1) == 0
    assert table.mapped_pages() == 1
    assert not table.translate(100 * 4096).cached


def test_tlb_hit_miss_and_capacity():
    table = PageTable(page_size=4096)
    tlb = Tlb(0, TlbConfig(entries=4))
    for vpn in range(6):
        assert tlb.lookup(vpn) is None
        tlb.fill(table.translate(vpn * 4096))
    # Capacity is 4, so the two oldest translations were evicted.
    assert tlb.occupancy == 4
    assert tlb.lookup(0) is None
    assert tlb.lookup(5) is not None


def test_tlb_lru_keeps_recently_used():
    table = PageTable(page_size=4096)
    tlb = Tlb(0, TlbConfig(entries=2))
    tlb.fill(table.translate(4096))
    tlb.fill(table.translate(2 * 4096))
    tlb.lookup(1)
    tlb.fill(table.translate(3 * 4096))
    assert tlb.lookup(1) is not None
    assert tlb.lookup(2) is None


def test_tlb_shootdown_clears_entries():
    table = PageTable(page_size=4096)
    tlb = Tlb(0, TlbConfig(entries=8))
    for vpn in range(5):
        tlb.fill(table.translate(vpn * 4096))
    dropped = tlb.invalidate_all()
    assert dropped == 5
    assert tlb.occupancy == 0
    assert tlb.invalidations == 1


def test_tlb_entry_carries_mapping_bits():
    table = PageTable(page_size=4096)
    pte = table.translate(9 * 4096)
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
