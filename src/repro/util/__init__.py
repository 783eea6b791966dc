"""Small shared utilities: bit math, unit helpers, deterministic RNG."""

from repro.util.bits import is_power_of_two, log2_exact
from repro.util.rng import DeterministicRng
from repro.util.units import GB, GHZ_TO_HZ, KB, MB, cycles_from_ns

__all__ = [
    "is_power_of_two",
    "log2_exact",
    "DeterministicRng",
    "KB",
    "MB",
    "GB",
    "GHZ_TO_HZ",
    "cycles_from_ns",
]
