"""Tests for the scheme-variant registry and scheme isolation.

Covers the three guarantees of the variant layer:

* every registered scheme and variant can be constructed and exercised in
  isolation — against the default no-op ``OsServices``, with no ``System`` —
  which is what makes variants safe to declare without new scheme code;
* the factory resolves variant names to base classes with the declared
  configuration overrides applied (and reports the variant name back);
* unknown names fail loudly, up front, with the available names listed —
  at config construction, at factory resolution, at campaign-spec
  normalisation and at the campaign CLI entry point.
"""

import pytest

from repro.campaign.spec import CampaignSpec, SweepGrid, normalize_scheme
from repro.dram.device import DramDevice
from repro.dramcache import variants
from repro.dramcache.factory import create_scheme
from repro.dramcache.variants import (
    BASE_SCHEMES,
    SchemeVariant,
    available_scheme_names,
    get_variant,
    register_variant,
    resolve_scheme,
)
from repro.memctrl.request import MemRequest
from repro.sim.config import SystemConfig
from repro.util.rng import DeterministicRng


def all_variants():
    """Every registered variant (name -> variant)."""
    return dict(variants._VARIANTS)


def unregister_variant(name):
    """Remove a variant a test registered at runtime."""
    variants._VARIANTS.pop(name, None)


def build_scheme(name):
    config = SystemConfig.tiny(scheme=name)
    in_dram = DramDevice(config.in_package_dram, config.core.freq_ghz)
    off_dram = DramDevice(config.off_package_dram, config.core.freq_ghz)
    return create_scheme(config, in_dram, off_dram, rng=DeterministicRng(7)), in_dram, off_dram


# --------------------------------------------------------------------------- registry


def test_registry_has_all_axes_covered():
    axes = {variant.axis for variant in all_variants().values()}
    assert {"tag-buffer", "sampling", "associativity", "page-size"} <= axes


def test_registry_has_at_least_six_variants():
    assert len(all_variants()) >= 6


def test_resolve_base_scheme_is_identity():
    for name in BASE_SCHEMES:
        assert resolve_scheme(name) == (name, {})


def test_resolve_variant_returns_base_and_overrides():
    assert resolve_scheme("banshee-tb4k") == ("banshee", {"tag_buffer_entries": 4096})
    assert resolve_scheme("unison-2kpage") == ("unison", {"page_size": 2048})


def test_resolve_unknown_name_lists_available():
    with pytest.raises(ValueError, match="available:.*banshee-tb4k"):
        resolve_scheme("banshee-bogus")


def test_available_names_cover_bases_and_variants():
    names = available_scheme_names()
    assert set(BASE_SCHEMES) <= set(names)
    assert names == sorted(BASE_SCHEMES) + sorted(all_variants())


def test_register_variant_runtime_extension():
    variant = SchemeVariant(
        name="banshee-tb32-test", base="banshee", overrides={"tag_buffer_entries": 32},
        axis="tag-buffer", description="runtime-registered test variant",
    )
    register_variant(variant)
    try:
        assert "banshee-tb32-test" in available_scheme_names()
        assert get_variant("banshee-tb32-test") is variant
        scheme, _in, _off = build_scheme("banshee-tb32-test")
        assert scheme.tag_buffers[0].num_entries == 32
    finally:
        unregister_variant("banshee-tb32-test")
    assert "banshee-tb32-test" not in available_scheme_names()


def test_register_variant_rejects_bad_declarations():
    with pytest.raises(ValueError, match="shadows a base scheme"):
        register_variant(SchemeVariant(name="banshee", base="banshee", overrides={}))
    with pytest.raises(ValueError, match="base must be one of"):
        SchemeVariant(name="x-y", base="nonsense", overrides={})
    with pytest.raises(ValueError, match="unknown DramCacheConfig fields"):
        SchemeVariant(name="x-y", base="banshee", overrides={"not_a_field": 1})
    with pytest.raises(ValueError, match="must not contain 'scheme'"):
        SchemeVariant(name="x-y", base="banshee", overrides={"scheme": "alloy"})
    with pytest.raises(ValueError, match="already registered"):
        register_variant(SchemeVariant(name="banshee-tb4k", base="banshee", overrides={}))


# --------------------------------------------------------------------------- config layer


def test_config_accepts_variant_names():
    config = SystemConfig.tiny(scheme="banshee-sample32")
    assert config.dram_cache.scheme == "banshee-sample32"


def test_config_rejects_unknown_names_with_list():
    with pytest.raises(ValueError, match="available:.*unison-2kpage"):
        SystemConfig.tiny(scheme="no-such-variant")


def test_config_folds_variant_overrides_at_construction():
    """The whole system must see the values the scheme simulates with."""
    config = SystemConfig.tiny(scheme="unison-2kpage")
    assert config.dram_cache.page_size == 2048
    assert config.dram_cache.base_scheme == "unison"
    config = SystemConfig.tiny(scheme="banshee-tb4k")
    assert config.dram_cache.tag_buffer_entries == 4096
    base = SystemConfig.tiny(scheme="banshee")
    assert base.dram_cache.base_scheme == "banshee"


def test_with_scheme_rejects_conflicting_variant_overrides():
    config = SystemConfig.tiny()
    with pytest.raises(ValueError, match="conflicts with variant"):
        config.with_scheme("unison-2kpage", page_size=8192)
    # Non-conflicting extra overrides compose with the variant's.
    combined = config.with_scheme("banshee-tb4k", sampling_coefficient=0.5)
    assert combined.dram_cache.tag_buffer_entries == 4096
    assert combined.dram_cache.sampling_coefficient == 0.5


def test_direct_construction_rejects_conflicting_variant_overrides():
    from repro.sim.config import DramCacheConfig

    with pytest.raises(ValueError, match="conflicts with variant"):
        DramCacheConfig(scheme="banshee-sample01", sampling_coefficient=0.5)
    # Re-folding an already-resolved config (dataclasses.replace) is fine.
    import dataclasses

    resolved = DramCacheConfig(scheme="banshee-tb4k")
    replaced = dataclasses.replace(resolved, num_candidates=3)
    assert replaced.tag_buffer_entries == 4096
    with pytest.raises(ValueError, match="conflicts with variant"):
        dataclasses.replace(resolved, tag_buffer_entries=128)


def test_with_scheme_switches_between_variants_of_one_axis():
    config = SystemConfig.tiny(scheme="unison-8kpage")
    assert config.dram_cache.page_size == 8192
    switched = config.with_scheme("unison-2kpage")
    assert switched.dram_cache.page_size == 2048
    back_to_base = switched.with_scheme("unison")
    assert back_to_base.dram_cache.page_size == 4096  # variant delta reverted


def test_with_scheme_rejects_unknown_names_despite_carried_base_scheme():
    """A typo'd variant must not silently build the old base scheme."""
    config = SystemConfig.tiny(scheme="banshee-tb4k")
    with pytest.raises(ValueError, match="available:"):
        config.with_scheme("banshee-tb8k")


def test_with_scheme_reverts_variant_delta_to_preset_value():
    """Leaving a variant restores the *preset's* value, not the class default.

    The tiny preset scales the tag buffer to 64 entries; a tb-variant
    round-trip must come back to 64, or a tag-buffer sensitivity sweep
    built with with_scheme would compare against a 16x-off baseline.
    """
    tiny = SystemConfig.tiny(scheme="banshee-tb128")
    assert tiny.with_scheme("banshee").dram_cache.tag_buffer_entries == 64
    scaled = SystemConfig.scaled_default(scheme="banshee-tb4k")
    assert scaled.with_scheme("banshee").dram_cache.tag_buffer_entries == 256


def test_variant_path_matches_explicit_override_path():
    """unison-2kpage must simulate identically to unison + page_size=2048.

    This pins variant resolution to config-construction time: workload,
    page table and TLBs are built from the same (folded) page size the
    scheme uses, so the two spellings of the same design point agree.
    """
    from repro.experiments.runner import run_simulation

    via_variant = run_simulation(
        SystemConfig.tiny(scheme="unison-2kpage"),
        workload_name="gcc", records_per_core=400, scale=0.05, seed=1,
    )
    via_override = run_simulation(
        SystemConfig.tiny(scheme="unison").with_scheme("unison", page_size=2048),
        workload_name="gcc", records_per_core=400, scale=0.05, seed=1,
    )
    expected = via_override.identity_dict()
    expected["scheme"] = "unison-2kpage"  # the only intended difference
    assert via_variant.identity_dict() == expected


# --------------------------------------------------------------------------- factory resolution


def test_factory_applies_variant_overrides():
    scheme, _in, _off = build_scheme("banshee-tb4k")
    assert scheme.name == "banshee-tb4k"
    assert scheme.tag_buffers[0].num_entries == 4096

    scheme, _in, _off = build_scheme("unison-2kpage")
    assert scheme.name == "unison-2kpage"
    assert scheme.page_size == 2048

    scheme, _in, _off = build_scheme("banshee-8way")
    assert scheme.partition_for(4096).ways == 8

    scheme, _in, _off = build_scheme("banshee-lru")
    assert scheme.policy == "lru"

    scheme, _in, _off = build_scheme("alloy-p10")
    assert scheme.fill_probability == pytest.approx(0.1)


def test_factory_rejects_unknown_variant():
    config = SystemConfig.tiny()
    object.__setattr__(config.dram_cache, "scheme", "banshee-bogus")
    object.__setattr__(config.dram_cache, "base_scheme", "")
    in_dram = DramDevice(config.in_package_dram, config.core.freq_ghz)
    off_dram = DramDevice(config.off_package_dram, config.core.freq_ghz)
    with pytest.raises(ValueError, match="available:"):
        create_scheme(config, in_dram, off_dram, rng=DeterministicRng(7))


def test_factory_builds_foreign_variant_from_base_scheme():
    """A config resolved in another process (base_scheme recorded, name not
    in this process's registry) must still build — spawn-based campaign
    workers depend on this."""
    config = SystemConfig.tiny(scheme="banshee-tb4k")
    object.__setattr__(config.dram_cache, "scheme", "banshee-tb9999")  # foreign name
    in_dram = DramDevice(config.in_package_dram, config.core.freq_ghz)
    off_dram = DramDevice(config.off_package_dram, config.core.freq_ghz)
    scheme = create_scheme(config, in_dram, off_dram, rng=DeterministicRng(7))
    assert scheme.name == "banshee-tb9999"
    assert scheme.tag_buffers[0].num_entries == 4096  # folded overrides survive


# --------------------------------------------------------------------------- scheme isolation


@pytest.mark.parametrize("name", available_scheme_names())
def test_every_scheme_and_variant_runs_in_isolation(name):
    """Exercise each scheme against the default no-op OsServices (no System).

    A few hundred demand accesses over a small page working set, a write
    mix, and explicit LLC writebacks — enough to drive hits, misses, fills,
    evictions and (for Banshee) replacements and tag-buffer traffic.
    """
    scheme, in_dram, off_dram = build_scheme(name)
    assert scheme.name == name

    now = 0
    for i in range(400):
        page = (i * 7) % 23
        addr = page * 4096 + (i % 64) * 64
        request = MemRequest(addr=addr, is_write=(i % 5 == 0), core_id=i % 2)
        result = scheme.access(now, request)
        assert result.latency >= 0
        assert result.served_by in ("in-package", "off-package")
        now += 10 + result.latency
    for i in range(40):
        addr = ((i * 3) % 23) * 4096
        wb = MemRequest(addr=addr, is_write=True, core_id=0, is_writeback=True)
        result = scheme.access(now, wb)
        assert result.latency == 0
        now += 10

    assert scheme.demand_accesses == 400
    assert 0.0 <= scheme.miss_rate <= 1.0
    summary = scheme.traffic_summary()
    assert set(summary) == {"in-package", "off-package"}
    # finalize must be safe without a System behind the OsServices.
    scheme.finalize(now)


# --------------------------------------------------------------------------- campaign / perf front doors


def test_normalize_scheme_validates_names_up_front():
    assert normalize_scheme("banshee-tb4k") == ("banshee-tb4k", "banshee-tb4k", {})
    with pytest.raises(ValueError, match="available:"):
        normalize_scheme("banshee-bogus")
    with pytest.raises(ValueError, match="available:"):
        normalize_scheme(("Label", "banshee-bogus"))


def test_campaign_spec_rejects_unknown_variant_before_expansion():
    with pytest.raises(ValueError, match="available:"):
        CampaignSpec(name="bad", grids=[SweepGrid(schemes=["banshee-bogus"])])


def test_campaign_cells_resolve_variants():
    spec = CampaignSpec(name="vars", grids=[SweepGrid(schemes=["banshee", "banshee-tb4k"])])
    cells = spec.cells()
    assert [cell.scheme for cell in cells] == ["banshee", "banshee-tb4k"]
    assert cells[1].config.dram_cache.scheme == "banshee-tb4k"


def test_campaign_cli_exits_cleanly_on_unknown_variant(tmp_path, capsys):
    from repro.campaign.cli import main

    store_dir = tmp_path / "store"
    rc = main(["run", "--store", str(store_dir), "--schemes", "banshee-bogus",
               "--workloads", "gcc", "--records", "100", "--preset", "tiny", "--quiet"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "available:" in err and "banshee-tb4k" in err
    assert not store_dir.exists()
