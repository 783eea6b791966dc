"""Unit tests for the SRAM cache model and the DRAM-cache stores' LRU policy."""

import pytest

from repro.cache.replacement import LruPolicy
from repro.cache.sram_cache import SramCache
from repro.sim.config import CacheLevelConfig
from repro.util.rng import DeterministicRng


def make_cache(size=4096, ways=4):
    return SramCache("test", CacheLevelConfig(size_bytes=size, ways=ways))


def test_miss_then_hit():
    cache = make_cache()
    assert not cache.access(0x1000, False).hit
    assert cache.access(0x1000, False).hit
    assert cache.hits == 1 and cache.misses == 1


def test_same_line_different_offset_hits():
    cache = make_cache()
    cache.access(0x1000, False)
    assert cache.access(0x1020, False).hit


def test_dirty_eviction_reported():
    cache = make_cache(size=256, ways=1)  # 4 sets, direct mapped
    cache.access(0x0, True)
    result = cache.access(0x400, False)  # same set, evicts the dirty line
    assert result.eviction is not None
    assert result.eviction.dirty
    assert result.eviction.addr == 0x0


def test_clean_eviction_not_dirty():
    cache = make_cache(size=256, ways=1)
    cache.access(0x0, False)
    result = cache.access(0x400, False)
    assert result.eviction is not None
    assert not result.eviction.dirty


def test_lru_eviction_order():
    cache = make_cache(size=256, ways=2)  # 2 sets, 2 ways
    cache.access(0x0, False)
    cache.access(0x200, False)
    cache.access(0x0, False)  # touch line 0 so 0x200 is LRU
    result = cache.access(0x400, False)
    assert result.eviction.addr == 0x200


def test_occupancy_never_exceeds_capacity():
    cache = make_cache(size=1024, ways=4)
    for i in range(1000):
        cache.access(i * 64, i % 3 == 0)
    assert cache.occupancy <= cache.capacity_lines


def test_fill_does_not_count_as_demand():
    cache = make_cache()
    cache.fill(0x1000, dirty=True)
    assert cache.hits == 0 and cache.misses == 0
    assert cache.lookup(0x1000)


def test_invalidate_returns_dirty_line():
    cache = make_cache()
    cache.access(0x1000, True)
    evicted = cache.invalidate(0x1000)
    assert evicted is not None and evicted.dirty
    assert not cache.lookup(0x1000)
    assert cache.invalidate(0x1000) is None


def test_flush_page_removes_all_lines():
    cache = make_cache(size=16 * 1024, ways=8)
    for offset in range(0, 4096, 64):
        cache.access(0x2000 + offset if False else offset, True)
    dirty = cache.flush_page(0, 4096)
    assert len(dirty) > 0
    for offset in range(0, 4096, 64):
        assert not cache.lookup(offset)


def test_victims_and_counters_match_a_reference_model():
    """``access``/``fill`` against a list-per-set LRU model.

    Checks every hit flag and reported victim (address and dirty bit), the
    three counters and the ordered set contents.  The model keeps each set
    least recent first: a hit or a fill of a resident line moves it to the
    back, and a full set evicts the front.
    """
    config = CacheLevelConfig(size_bytes=4096, ways=4)
    cache = SramCache("test", config)
    sets = [[] for _ in range(config.num_sets)]
    hits = misses = evictions = dirty_evictions = 0
    rng = DeterministicRng(9)
    for step in range(3000):
        addr = rng.randint(0, 1 << 16)
        is_write = rng.chance(0.5)
        demand = step % 5 != 0  # every fifth operation is a fill
        line = addr >> 6
        entries = sets[line % config.num_sets]
        position = next((i for i, entry in enumerate(entries) if entry[0] == line), None)
        victim = None
        if position is not None:
            hits += demand
            entries[position][1] = entries[position][1] or is_write
            entries.append(entries.pop(position))
        else:
            misses += demand
            if len(entries) == config.ways:
                victim = entries.pop(0)
                evictions += 1
                dirty_evictions += victim[1]
            entries.append([line, is_write])
        if demand:
            result = cache.access(addr, is_write)
            assert result.hit == (position is not None)
            eviction = result.eviction
        else:
            eviction = cache.fill(addr, dirty=is_write)
        if victim is None:
            assert eviction is None
        else:
            assert (eviction.addr, eviction.dirty) == (victim[0] << 6, victim[1])
    assert evictions > 0 and dirty_evictions > 0
    assert (cache.hits, cache.misses, cache.dirty_evictions) == (hits, misses, dirty_evictions)
    assert [list(bucket.items()) for bucket in cache._sets] == [
        [tuple(entry) for entry in entries] for entries in sets
    ]


def test_miss_rate():
    cache = make_cache()
    cache.access(0, False)
    cache.access(0, False)
    assert cache.miss_rate == pytest.approx(0.5)


# --------------------------------------------------------------------------- replacement policies


def test_lru_policy_victim_is_least_recent():
    policy = LruPolicy(1, 4)
    for way in range(4):
        policy.on_fill(0, way)
    policy.on_access(0, 0)
    victim = policy.victim(0, [True] * 4)
    assert victim == 1


def test_lru_policy_prefers_invalid_way():
    policy = LruPolicy(1, 4)
    assert policy.victim(0, [True, False, True, True]) == 1

