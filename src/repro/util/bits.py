"""Bit-manipulation helpers used by the cache and DRAM models.

All capacities, line sizes and page sizes in the simulator are powers of two,
so index/tag extraction is done with exact log2 arithmetic.  These helpers
raise ``ValueError`` early instead of silently mis-indexing.
"""

from __future__ import annotations


def is_power_of_two(value: int) -> bool:
    """Return True if ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def log2_exact(value: int) -> int:
    """Return log2 of ``value``, requiring it to be an exact power of two.

    Raises:
        ValueError: if ``value`` is not a positive power of two.
    """
    if not is_power_of_two(value):
        raise ValueError(f"expected a positive power of two, got {value}")
    return value.bit_length() - 1

