"""Size and time unit helpers.

The simulator works internally in CPU cycles and bytes.  These helpers keep
conversions between wall-clock units (ns, us, ms) and cycles in one place so
the latency parameters in :mod:`repro.sim.config` stay readable.
"""

from __future__ import annotations

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

GHZ_TO_HZ = 1_000_000_000


def cycles_from_ns(nanoseconds: float, freq_ghz: float) -> int:
    """Convert a latency in nanoseconds to CPU cycles at ``freq_ghz``."""
    if freq_ghz <= 0:
        raise ValueError(f"frequency must be positive, got {freq_ghz}")
    return int(round(nanoseconds * freq_ghz))


def cycles_from_us(microseconds: float, freq_ghz: float) -> int:
    """Convert a latency in microseconds to CPU cycles at ``freq_ghz``."""
    return cycles_from_ns(microseconds * 1000.0, freq_ghz)


def cycles_from_ms(milliseconds: float, freq_ghz: float) -> int:
    """Convert a latency in milliseconds to CPU cycles at ``freq_ghz``."""
    return cycles_from_ns(milliseconds * 1_000_000.0, freq_ghz)

