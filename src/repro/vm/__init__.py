"""Virtual-memory substrate: page tables, TLBs and TLB shootdowns."""

from repro.vm.page_table import PageTable, PageTableEntry
from repro.vm.shootdown import ShootdownCostModel
from repro.vm.tlb import Tlb

__all__ = [
    "PageTable",
    "PageTableEntry",
    "ShootdownCostModel",
    "Tlb",
]
