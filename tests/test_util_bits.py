"""Unit tests for repro.util.bits."""

import pytest

from repro.util.bits import is_power_of_two, log2_exact


def test_is_power_of_two_accepts_powers():
    assert is_power_of_two(1)
    assert is_power_of_two(2)
    assert is_power_of_two(4096)
    assert is_power_of_two(1 << 40)


def test_is_power_of_two_rejects_non_powers():
    assert not is_power_of_two(0)
    assert not is_power_of_two(-4)
    assert not is_power_of_two(3)
    assert not is_power_of_two(4095)


def test_log2_exact_values():
    assert log2_exact(1) == 0
    assert log2_exact(64) == 6
    assert log2_exact(4096) == 12


def test_log2_exact_rejects_non_power():
    with pytest.raises(ValueError):
        log2_exact(96)

