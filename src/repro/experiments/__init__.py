"""Experiment harness: run simulations and rebuild the paper's figures.

The package exports nothing; import from its modules:
:mod:`repro.experiments.runner` (``run_simulation``, ``ResultCache``),
:mod:`repro.experiments.figures` (one function per table and figure),
:mod:`repro.experiments.defaults` and :mod:`repro.experiments.report`.
"""
