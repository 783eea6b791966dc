"""repro — a reproduction of Banshee: Bandwidth-Efficient DRAM Caching
Via Software/Hardware Cooperation (Yu et al., MICRO 2017).

The package provides:

* a trace-driven multicore memory-system simulator (:mod:`repro.sim`,
  :mod:`repro.dram`, :mod:`repro.cache`, :mod:`repro.vm`, :mod:`repro.cpu`),
* the Banshee DRAM-cache design (:mod:`repro.core`) and the baselines it is
  compared against (:mod:`repro.dramcache`),
* the workload generators of the paper's evaluation (:mod:`repro.workloads`),
* an experiment harness that regenerates every table and figure
  (:mod:`repro.experiments`),
* and a parallel, resumable campaign subsystem with a persistent result
  store and a ``python -m repro.campaign`` CLI (:mod:`repro.campaign`).

This module imports nothing, so ``import repro.<anything>`` loads only what
that module needs.  Quickstart::

    from repro.experiments.runner import run_simulation
    from repro.sim.config import SystemConfig

    config = SystemConfig.scaled_default(scheme="banshee")
    result = run_simulation(config, workload_name="pagerank", records_per_core=20_000)
    print(result.summary())
"""
