"""Tests for scheme selection, sensitivity points and scheme isolation.

A DRAM-cache configuration is one of the seven schemes plus
``DramCacheConfig`` overrides; campaign specs and figures name one as a
``(label, scheme, overrides)`` entry.  Covered here:

* every scheme and sensitivity point can be constructed and exercised in
  isolation — against the default no-op ``OsServices``, with no ``System``;
* the factory builds the scheme class with the overrides applied;
* unknown scheme names and override keys fail loudly, up front — at config
  construction, at campaign-spec normalisation and at the campaign CLI
  entry point, before a store is created;
* a spec entry with default-valued overrides shares the scheme's cell key
  (figure cells: ``tests/test_experiments.py``).
"""

import json

import pytest

from repro.campaign.cli import main as campaign_main
from repro.campaign.spec import CampaignSpec, SweepGrid, normalize_scheme
from repro.dram.device import DramDevice
from repro.dramcache.factory import _registry, create_scheme
from repro.memctrl.request import MemRequest
from repro.sim.config import SCHEMES, SystemConfig
from repro.util.rng import DeterministicRng

from conftest import CONFIGURATIONS, build_config


def build_scheme(name):
    config = build_config(name)
    in_dram = DramDevice(config.in_package_dram, config.core.freq_ghz)
    off_dram = DramDevice(config.off_package_dram, config.core.freq_ghz)
    return create_scheme(config, in_dram, off_dram, rng=DeterministicRng(7)), in_dram, off_dram


# --------------------------------------------------------------------------- scheme names


def test_schemes_are_the_factory_classes():
    assert SCHEMES == tuple(_registry())


def test_config_rejects_unknown_names_with_list():
    with pytest.raises(ValueError, match="available: nocache, cacheonly, alloy, unison, tdc, hma, banshee"):
        SystemConfig.tiny(scheme="no-such-variant")
    with pytest.raises(ValueError, match=r"\(label, scheme, overrides\)"):
        SystemConfig.tiny().with_scheme("banshee-tb4k")


# --------------------------------------------------------------------------- factory


def test_factory_applies_variant_overrides():
    scheme, _in, _off = build_scheme("banshee-tb4k")
    assert scheme.name == "banshee"
    assert scheme.tag_buffers[0].num_entries == 4096

    scheme, _in, _off = build_scheme("unison-2kpage")
    assert scheme.name == "unison"
    assert scheme.page_size == 2048

    scheme, _in, _off = build_scheme("banshee-8way")
    assert scheme.partition_for(4096).ways == 8

    scheme, _in, _off = build_scheme("banshee-lru")
    assert scheme.policy == "lru"

    scheme, _in, _off = build_scheme("alloy-p10")
    assert scheme.fill_probability == pytest.approx(0.1)


# --------------------------------------------------------------------------- scheme isolation


@pytest.mark.parametrize("name", CONFIGURATIONS)
def test_every_scheme_and_variant_runs_in_isolation(name):
    """Exercise each configuration against the default no-op OsServices (no System).

    A few hundred demand accesses over a small page working set, a write
    mix, and explicit LLC writebacks — enough to drive hits, misses, fills,
    evictions and (for Banshee) replacements and tag-buffer traffic.
    """
    scheme, in_dram, off_dram = build_scheme(name)
    assert scheme.name == CONFIGURATIONS[name][0]

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


# --------------------------------------------------------------------------- campaign front doors


def test_normalize_scheme_validates_names_up_front():
    assert normalize_scheme("banshee") == ("banshee", "banshee", {})
    entry = ("banshee-tb4k", "banshee", {"tag_buffer_entries": 4096})
    assert normalize_scheme(entry) == entry
    with pytest.raises(ValueError, match="available:"):
        normalize_scheme("banshee-tb4k")
    with pytest.raises(ValueError, match="available:"):
        normalize_scheme(("Label", "banshee-bogus"))
    with pytest.raises(ValueError, match="'tag_bufer_entries' are not DramCacheConfig fields"):
        normalize_scheme(("B", "banshee", {"tag_bufer_entries": 4}))
    with pytest.raises(ValueError, match="'scheme'"):
        normalize_scheme(("B", "banshee", {"scheme": "alloy"}))


def test_campaign_spec_rejects_unknown_variant_before_expansion():
    with pytest.raises(ValueError, match="available:"):
        CampaignSpec(name="bad", grids=[SweepGrid(schemes=["banshee-bogus"])])


def test_campaign_cells_resolve_variants():
    tb4k = ("banshee-tb4k", "banshee", {"tag_buffer_entries": 4096})
    spec = CampaignSpec(name="vars", grids=[SweepGrid(schemes=["banshee", tb4k])])
    cells = spec.cells()
    assert [(cell.label, cell.scheme) for cell in cells] == [("banshee", "banshee"), ("banshee-tb4k", "banshee")]
    assert [cell.config.dram_cache.tag_buffer_entries for cell in cells] == [64, 4096]
    assert cells[1].config == build_config("banshee-tb4k")


def test_campaign_cli_exits_cleanly_on_unknown_variant(tmp_path, capsys):
    store_dir = tmp_path / "store"
    rc = campaign_main(["run", "--store", str(store_dir), "--schemes", "banshee-tb4k",
                        "--workloads", "gcc", "--records", "100", "--preset", "tiny", "--quiet"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'banshee-tb4k'" in err and "available: " + ", ".join(SCHEMES) in err
    assert "(label, scheme, overrides)" in err
    assert not store_dir.exists()


@pytest.mark.parametrize("overrides, message", [
    ({"tag_bufer_entries": 4}, "not DramCacheConfig fields"),
    ({"ways": 3}, "divisible by DRAM cache associativity"),
], ids=["unknown-field", "invalid-ways"])
def test_campaign_cli_rejects_bad_overrides_before_creating_the_store(tmp_path, capsys,
                                                                     overrides, message):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"name": "bad", "grids": [{"schemes": [["B", "banshee", overrides]]}]}))
    store_dir = tmp_path / "store"
    rc = campaign_main(["run", "--store", str(store_dir), "--spec", str(spec_path),
                        "--records", "100", "--quiet"])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not store_dir.exists()


# --------------------------------------------------------------------------- one key per configuration


def test_spec_entry_with_default_overrides_shares_the_scheme_key():
    def key(entry):
        (cell,) = CampaignSpec(name="k", grids=[SweepGrid(schemes=[entry])]).cells()
        return cell.key()

    assert key(("A", "alloy", {"alloy_replacement_probability": 1.0})) == key("alloy")
