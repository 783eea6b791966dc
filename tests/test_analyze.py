"""Tests for repro.analyze: each rule on crafted good/bad fixtures, the
inline-suppression semantics, the CLI contract, and a self-check that the
shipped source tree is clean."""

import dataclasses
import json
import textwrap
from pathlib import Path

import pytest

import repro.analyze
from repro.analyze import DEFAULT_CONFIG, run_analysis
from repro.analyze.cli import main

REPO_ROOT = Path(repro.analyze.__file__).resolve().parents[3]


def analyze(tmp_path, source, rules, config=None, filename="fixture.py"):
    path = tmp_path / filename
    path.write_text(textwrap.dedent(source))
    return run_analysis([path], rules=rules, config=config)


# --------------------------------------------------------------------- hotpath-alloc


def test_hotpath_alloc_fires_on_allocating_hot_function(tmp_path):
    findings = analyze(
        tmp_path,
        """
        def process(record):  # repro: hotpath
            return [record.addr]
        """,
        rules=["hotpath-alloc"],
    )
    assert [f.rule for f in findings] == ["hotpath-alloc"]
    assert "list display" in findings[0].message
    assert findings[0].symbol == "fixture.process"


def test_hotpath_alloc_clean_on_mutating_hot_function(tmp_path):
    findings = analyze(
        tmp_path,
        """
        def process(state, record):  # repro: hotpath
            state.hits += 1
            state.latency = record.latency * 2
            return state.latency
        """,
        rules=["hotpath-alloc"],
    )
    assert findings == []


def test_hotpath_alloc_follows_call_graph(tmp_path):
    findings = analyze(
        tmp_path,
        """
        def helper(record):
            return {"addr": record.addr}

        def process(record):  # repro: hotpath
            return helper(record)
        """,
        rules=["hotpath-alloc"],
    )
    assert len(findings) == 1
    assert findings[0].symbol == "fixture.helper"
    assert "dict display" in findings[0].message


PROPERTY_FIXTURE = """
    from typing import List

    class Window:
        def __init__(self):
            self.samples = 0

        @property
        def history(self):
            return [self.samples]

    class Sampler:
        def __init__(self, window: Window, windows: List[Window]):
            self.window = window
            self.windows: List[Window] = list(windows)

        def draw(self):  # repro: hotpath
            {read}
    """


@pytest.mark.parametrize(
    "read",
    ["return self.window.{attr}", "for window in self.windows:\n                total = window.{attr}"],
    ids=["typed-attribute", "loop-over-typed-list"],
)
def test_hotpath_alloc_follows_property_reads(tmp_path, read):
    """Reading a ``@property`` runs its getter; reading a plain attribute runs nothing."""
    def findings_for(attr):
        source = PROPERTY_FIXTURE.replace("{read}", read.replace("{attr}", attr))
        return analyze(tmp_path, source, rules=["hotpath-alloc"])

    flagged = findings_for("history")
    assert [f.symbol for f in flagged] == ["fixture.Window.history"]
    assert "list display" in flagged[0].message
    assert findings_for("samples") == []


def test_hotpath_alloc_marker_scopes_to_loop_body(tmp_path):
    findings = analyze(
        tmp_path,
        """
        def run(items):
            setup = [1, 2, 3]
            total = 0
            for item in items:  # repro: hotpath
                junk = [item]
                total += item
            return total
        """,
        rules=["hotpath-alloc"],
    )
    # The prologue list is cold; only the loop-body allocation fires.
    assert len(findings) == 1
    assert "junk" not in findings[0].message  # message names the construct
    assert findings[0].line == 6


def test_hotpath_alloc_exempts_raise_paths(tmp_path):
    findings = analyze(
        tmp_path,
        """
        def process(record):  # repro: hotpath
            if record.addr < 0:
                raise ValueError(f"negative address {record.addr}")
            return record.addr
        """,
        rules=["hotpath-alloc"],
    )
    assert findings == []


def test_hotpath_alloc_flags_class_construction(tmp_path):
    findings = analyze(
        tmp_path,
        """
        class Outcome:
            __slots__ = ("addr",)

            def __init__(self, addr):
                self.addr = addr

        def process(record):  # repro: hotpath
            return Outcome(record.addr)
        """,
        rules=["hotpath-alloc"],
    )
    assert len(findings) == 1
    assert "constructs Outcome" in findings[0].message


# ---------------------------------------------------------------------- hotpath-attr


def test_hotpath_attr_flags_attribute_created_outside_init(tmp_path):
    findings = analyze(
        tmp_path,
        """
        class Counter:
            def __init__(self):
                self.count = 0

            def bump(self):  # repro: hotpath
                self.count += 1
                self.extra = 1
        """,
        rules=["hotpath-attr"],
    )
    assert [f.rule for f in findings] == ["hotpath-attr"]
    assert "self.extra" in findings[0].message


def test_hotpath_attr_clean_when_attributes_predeclared(tmp_path):
    findings = analyze(
        tmp_path,
        """
        class Counter:
            def __init__(self):
                self.count = 0
                self.extra = 0

            def bump(self):  # repro: hotpath
                self.count += 1
                self.extra = 1
        """,
        rules=["hotpath-attr"],
    )
    assert findings == []


TYPED_STORE_FIXTURE = """
    from typing import List

    class Counter:
        def __init__(self):
            self.count = 0

    class Channel:
        def __init__(self):
            self.busy_until = 0

    class Traffic(Counter):
        def __init__(self):
            super().__init__()
            self.total = 0

    class Device:
        def __init__(self, traffic: Traffic):
            self.channels: List[Channel] = [Channel() for _ in range(2)]
            self.traffic = traffic

        def access(self, addr, spare: Channel):  # repro: hotpath
            {store}
    """


@pytest.mark.parametrize(
    "store, declared, misspelled",
    [
        ("self.channels[addr % 2].{attr} = addr", "busy_until", "busy_untl"),
        ("channel = self.channels[addr % 2]\n            channel.{attr} = addr", "busy_until", "busy_untl"),
        ("for channel in self.channels:\n                channel.{attr} = addr", "busy_until", "busy_untl"),
        ("traffic = self.traffic\n            traffic.{attr} += addr", "total", "totl"),
        ("self.traffic.{attr} += addr", "count", "cuont"),
        ("spare.{attr} = addr", "busy_until", "busy_untl"),
    ],
    ids=[
        "typed-list-element",
        "local-from-typed-list",
        "loop-target",
        "typed-attribute-alias",
        "base-class-attribute",
        "annotated-parameter",
    ],
)
def test_hotpath_attr_checks_stores_on_typed_receivers(tmp_path, store, declared, misspelled):
    """A store on any receiver the call graph can type must name a declared attribute."""
    def findings_for(attr):
        source = TYPED_STORE_FIXTURE.replace("{store}", store.replace("{attr}", attr))
        return analyze(tmp_path, source, rules=["hotpath-attr"])

    flagged = findings_for(misspelled)
    assert [(f.rule, f.symbol) for f in flagged] == [("hotpath-attr", "fixture.Device.access")]
    assert f".{misspelled} outside " in flagged[0].message
    assert findings_for(declared) == []


# --------------------------------------------------------------------- hotpath-slots


def test_hotpath_slots_flags_slotless_hot_class(tmp_path):
    findings = analyze(
        tmp_path,
        """
        class Rec:
            def __init__(self, addr):
                self.addr = addr

        def process(addr):  # repro: hotpath
            return Rec(addr)
        """,
        rules=["hotpath-slots"],
    )
    assert [f.rule for f in findings] == ["hotpath-slots"]
    assert "Rec" in findings[0].message


def test_hotpath_slots_clean_with_slots_declared(tmp_path):
    findings = analyze(
        tmp_path,
        """
        class Rec:
            __slots__ = ("addr",)

            def __init__(self, addr):
                self.addr = addr

        def process(addr):  # repro: hotpath
            return Rec(addr)
        """,
        rules=["hotpath-slots"],
    )
    assert findings == []


# ---------------------------------------------------------------------- determinism

#: Scope the determinism rule at the fixture's bare-stem module name.
_SIM_CONFIG = dataclasses.replace(DEFAULT_CONFIG, determinism_packages=("simfix",))


def test_determinism_flags_banned_constructs(tmp_path):
    findings = analyze(
        tmp_path,
        """
        import glob
        import random
        import time

        import numpy as np

        def wall():
            return time.time()

        def draw():
            return random.random()

        def unseeded():
            return np.random.default_rng()

        def legacy():
            return np.random.rand()

        def hash_order(values):
            for item in set(values):
                yield item

        def listing(pattern):
            return glob.glob(pattern)
        """,
        rules=["determinism"],
        config=_SIM_CONFIG,
        filename="simfix.py",
    )
    messages = " ".join(f.message for f in findings)
    assert len(findings) == 6
    assert all(f.rule == "determinism" for f in findings)
    assert "wall clock" in messages
    assert "process-global stdlib RNG" in messages
    assert "entropy-seeded" in messages
    assert "legacy global RNG" in messages
    assert "hash order" in messages
    assert "unspecified order" in messages


def test_determinism_clean_on_seeded_and_sorted(tmp_path):
    findings = analyze(
        tmp_path,
        """
        import glob

        import numpy as np

        def seeded(seed):
            return np.random.default_rng(seed)

        def listing(pattern):
            return sorted(glob.glob(pattern))

        def ordered(values):
            for item in sorted(set(values)):
                yield item
        """,
        rules=["determinism"],
        config=_SIM_CONFIG,
        filename="simfix.py",
    )
    assert findings == []


def test_determinism_out_of_scope_module_is_exempt(tmp_path):
    findings = analyze(
        tmp_path,
        """
        import time

        def stamp():
            return time.time()
        """,
        rules=["determinism"],
        config=_SIM_CONFIG,
        filename="obsfix.py",
    )
    assert findings == []


# ------------------------------------------------------------------- serde-symmetry


def test_serde_symmetry_flags_asymmetric_pairs(tmp_path):
    findings = analyze(
        tmp_path,
        """
        class Snapshot:
            def to_dict(self):
                return {"hits": self.hits, "misses": self.misses}

            @classmethod
            def from_dict(cls, data):
                obj = cls()
                obj.hits = data["hits"]
                obj.total = data["total"]
                return obj
        """,
        rules=["serde-symmetry"],
    )
    messages = sorted(f.message for f in findings)
    assert len(findings) == 2
    assert "writes key 'misses'" in messages[1]
    assert "consumes key 'total'" in messages[0]


def test_serde_symmetry_clean_on_matched_pair(tmp_path):
    findings = analyze(
        tmp_path,
        """
        class Snapshot:
            def to_dict(self):
                return {"hits": self.hits, "misses": self.misses}

            @classmethod
            def from_dict(cls, data):
                obj = cls()
                obj.hits = data["hits"]
                obj.misses = data["misses"]
                return obj
        """,
        rules=["serde-symmetry"],
    )
    assert findings == []


# --------------------------------------------------------------------- event-schema


def test_event_schema_flags_undeclared_event_name(tmp_path):
    findings = analyze(
        tmp_path,
        """
        EVENT_TYPES = frozenset({"run_start", "run_end"})

        def announce(log):
            log.emit("run_start", workload="gcc")
            log.emit("run_strat", workload="gcc")
        """,
        rules=["event-schema"],
    )
    assert len(findings) == 1
    assert "run_strat" in findings[0].message


# ------------------------------------------------------------------- variant-fields


def test_variant_fields_flags_unknown_override(tmp_path):
    (tmp_path / "configdef.py").write_text(
        textwrap.dedent(
            """
            class DramCacheConfig:
                page_size: int = 4096
                ways: int = 8
            """
        )
    )
    (tmp_path / "variants.py").write_text(
        textwrap.dedent(
            """
            def _builtin(name, base, axis, description, **overrides):
                pass

            class SchemeVariant:
                def __init__(self, name, overrides):
                    pass

            _builtin(name="small", base="banshee", axis="cache", description="d", ways=4)
            _builtin(name="typo", base="banshee", axis="cache", description="d", waysz=4)
            SchemeVariant(name="big", overrides={"page_size": 8192})
            SchemeVariant(name="typo2", overrides={"pagesize": 8192})
            """
        )
    )
    findings = run_analysis([tmp_path], rules=["variant-fields"])
    messages = sorted(f.message for f in findings)
    assert len(findings) == 2
    assert "'pagesize'" in messages[0]
    assert "'waysz'" in messages[1]


# ----------------------------------------------------------------------- suppression


@pytest.mark.parametrize(
    "allow",
    [
        "# repro: allow[hotpath-alloc]",  # exact rule
        "# repro: allow[hotpath]",        # prefix covers hotpath-*
        "# repro: allow[*]",              # wildcard
    ],
)
def test_inline_allow_suppresses_on_same_line(tmp_path, allow):
    findings = analyze(
        tmp_path,
        f"""
        def process(record):  # repro: hotpath
            return [record.addr]  {allow}
        """,
        rules=["hotpath-alloc"],
    )
    assert findings == []


def test_inline_allow_suppresses_from_line_above(tmp_path):
    findings = analyze(
        tmp_path,
        """
        def process(record):  # repro: hotpath
            # repro: allow[hotpath-alloc]
            return [record.addr]
        """,
        rules=["hotpath-alloc"],
    )
    assert findings == []


def test_inline_allow_for_other_rule_does_not_suppress(tmp_path):
    findings = analyze(
        tmp_path,
        """
        def process(record):  # repro: hotpath
            return [record.addr]  # repro: allow[determinism]
        """,
        rules=["hotpath-alloc"],
    )
    assert len(findings) == 1


# ------------------------------------------------------------------------------- CLI


def test_cli_exit_codes_and_json_output(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def process(record):  # repro: hotpath\n    return [record.addr]\n")
    good = tmp_path / "good.py"
    good.write_text("def process(record):  # repro: hotpath\n    return record.addr\n")

    assert main([str(good)]) == 0
    capsys.readouterr()

    assert main([str(bad), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["findings"]) == 1
    finding = payload["findings"][0]
    assert finding["rule"] == "hotpath-alloc"
    assert finding["symbol"] == "bad.process"

    assert main([str(bad), "--rule", "no-such-rule"]) == 2
    assert "unknown rules" in capsys.readouterr().err


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in (
        "determinism",
        "event-schema",
        "hotpath-alloc",
        "hotpath-attr",
        "hotpath-slots",
        "serde-symmetry",
        "variant-fields",
    ):
        assert rule in out


# ------------------------------------------------------------------------ self-check


def test_shipped_tree_is_clean_against_committed_baseline(monkeypatch, capsys):
    """The gate CI runs must pass on the tree as committed: no findings at all.

    Intentional exceptions carry ``# repro: allow[rule]`` inline; there is no
    baseline file to grandfather findings into.
    """
    monkeypatch.chdir(REPO_ROOT)
    assert main(["src/repro"]) == 0
    assert "0 findings" in capsys.readouterr().out
