"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q`` from the repository root.

They run the real benchmark with a tiny budget (one pass per workload), so
the whole file takes about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import cells, run
from perfbench.spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "0.01", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def report(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def digest(completed: subprocess.CompletedProcess) -> str:
    lines = [line.split()[1] for line in completed.stdout.splitlines()
             if line.strip().startswith("digest")]
    assert len(lines) == 1, completed.stdout
    return lines[0]


def test_declared_metrics_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_emits_every_metric_and_tracing_is_read_only(workload):
    plain = bench("--workload", workload, "--trace", "0")
    traced = bench("--workload", workload, "--trace", "1")
    for completed, declared in ((plain, run.END_TO_END), (traced, run.PER_LAYER)):
        result = report(completed)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {name: metric["unit"] for name, metric in result["metrics"].items()} == declared
    assert all(metric["value"] > 0 for metric in report(plain)["metrics"].values())
    assert digest(plain) == digest(traced)


def test_injected_cell_error_is_counted_and_the_run_finishes():
    result = report(bench("--workload", "reproduce", "--trace", "0", "--inject-fault"))
    assert result["failed"] == 1
    assert not result["correct"]
    assert result["attempted"] > result["failed"]


def test_refuses_to_run_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = bench("--workload", "hit-path", "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_self_time_never_exceeds_span_time():
    spec = dataclasses.replace(cells.SIM_WORKLOADS["miss-write"], records_per_core=400)
    tracer = Tracer()
    tracer.install(cells.sim_targets())
    try:
        cells.run_round(spec, seed=3, span=tracer.span)
    finally:
        tracer.remove()
    assert {layer for layer, _parent in tracer.edges} >= {
        "cell", "setup", "sim", "sim.system", "vm", "cache", "memctrl", "dramcache", "dram"}
    for (layer, parent), (calls, total, self_s) in tracer.edges.items():
        assert calls > 0
        assert 0.0 <= self_s <= total, (layer, parent)
    # Self times partition the root span.
    root_total = tracer.layer("cell")[1]
    assert sum(edge[2] for edge in tracer.edges.values()) == pytest.approx(root_total)


def test_nested_spans_subtract_child_time():
    class Layer:
        def outer(self):
            time.sleep(0.01)
            self.inner()

        def inner(self):
            time.sleep(0.02)

    originals = dict(Layer.__dict__)
    tracer = Tracer()
    tracer.install([(Layer, "outer", "outer"), (Layer, "inner", "inner")])
    try:
        Layer().outer()
    finally:
        tracer.remove()
    assert Layer.__dict__["outer"] is originals["outer"]
    assert Layer.__dict__["inner"] is originals["inner"]
    outer_calls, outer_total, outer_self = tracer.layer("outer")
    inner_calls, inner_total, inner_self = tracer.layer("inner")
    assert (outer_calls, inner_calls) == (1, 1)
    assert set(tracer.edges) == {("outer", None), ("inner", "outer")}
    assert inner_self == inner_total
    assert outer_self == pytest.approx(outer_total - inner_total)
    assert 0.0 < outer_self < outer_total
