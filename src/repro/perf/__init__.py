"""Record-generation timing for the repository benchmark.

Speed is measured with ``python3 perfbench/run.py`` (workloads and bounds in
``BENCHMARK.json``, method in ``perfbench/README.md``).  The benchmark
imports :func:`repro.perf.harness.measure_generation` to split a round's
wall time into record generation and simulation; nothing else lives here.
"""
