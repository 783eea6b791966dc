"""CPU substrate: trace records and the per-core clock and accounting."""

from repro.cpu.core import CoreModel
from repro.cpu.trace import TraceRecord

__all__ = ["CoreModel", "TraceRecord"]
