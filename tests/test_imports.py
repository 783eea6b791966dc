"""Importing the simulator loads none of the machinery built around it."""

import os
import pathlib
import subprocess
import sys

#: Modules that only campaigns, figures and telemetry need.
MACHINERY = (
    "repro.experiments.figures",
    "repro.experiments.report",
    "repro.campaign",
    "repro.obs.export_chrome",
    "repro.obs.snapshot",
    "repro.obs.timeline",
)


def test_simulator_import_loads_no_machinery():
    """A fresh interpreter that imports the engine and the system has none
    of the machinery in ``sys.modules``: package ``__init__``s re-export
    nothing that would drag it in."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    code = (
        "import sys\n"
        "import repro.sim.engine, repro.sim.system\n"
        f"print(sorted(name for name in {MACHINERY!r} if name in sys.modules))\n"
    )
    output = subprocess.check_output(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, text=True
    )
    assert output.strip() == "[]"


def test_analyzer_import_loads_no_simulator():
    """The static analyzer only parses source text: importing its CLI loads
    neither numpy nor any ``repro.sim`` module (``repro/__init__.py``
    imports nothing)."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    code = (
        "import sys\n"
        "import repro.analyze.cli\n"
        "print(sorted(name for name in sys.modules\n"
        "             if name.split('.')[0] == 'numpy' or name.startswith('repro.sim')))\n"
    )
    output = subprocess.check_output(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, text=True
    )
    assert output.strip() == "[]"
