"""Virtual-memory substrate: page tables, TLBs, frame allocation, reverse mapping."""

from repro.vm.page_table import PageTable, PageTableEntry
from repro.vm.physical_memory import FrameAllocator
from repro.vm.reverse_mapping import ReverseMapping
from repro.vm.shootdown import ShootdownCostModel
from repro.vm.tlb import Tlb

__all__ = [
    "PageTable",
    "PageTableEntry",
    "FrameAllocator",
    "ReverseMapping",
    "ShootdownCostModel",
    "Tlb",
]
