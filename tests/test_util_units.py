"""Unit tests for repro.util.units."""

import pytest

from repro.util.units import (
    GB,
    KB,
    MB,
    cycles_from_ms,
    cycles_from_ns,
    cycles_from_us,
)


def test_size_constants():
    assert KB == 1024
    assert MB == 1024 * KB
    assert GB == 1024 * MB


def test_cycles_from_ns():
    assert cycles_from_ns(10, 2.7) == 27
    assert cycles_from_ns(0, 2.7) == 0


def test_cycles_from_us_and_ms():
    assert cycles_from_us(20, 2.7) == 54_000
    assert cycles_from_ms(1, 1.0) == 1_000_000


def test_cycles_rejects_bad_frequency():
    with pytest.raises(ValueError):
        cycles_from_ns(10, 0)

