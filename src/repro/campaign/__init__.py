"""Parallel, resumable experiment campaigns with a persistent result store.

The campaign subsystem turns the (scheme x workload x parameter x seed)
matrices behind the paper's figures into first-class objects:

* :class:`~repro.campaign.spec.CampaignSpec` / :class:`~repro.campaign.spec.SweepGrid`
  declare a sweep and expand it into simulation cells;
* :class:`~repro.campaign.supervisor.SupervisedExecutor` (the parallel
  path) fans cells out across long-lived, directly-managed worker
  processes with leases, retry/backoff, quarantine and mid-cell snapshot
  resume; :class:`~repro.campaign.executor.SerialExecutor` is the serial
  reference path;
* :class:`~repro.campaign.store.ResultStore` persists every result on disk
  under content-hashed keys, making campaigns resumable and letting the
  figure functions in :mod:`repro.experiments.figures` rebuild reports
  without re-simulating;
* :mod:`repro.campaign.export` and the ``python -m repro.campaign`` CLI
  (:mod:`repro.campaign.cli`) turn stores into CSV/JSON tables.
"""

from repro.campaign.driver import CampaignReport, run_campaign
from repro.campaign.executor import CellOutcome, SerialExecutor, execute_cell
from repro.campaign.export import export_csv, export_json, result_rows
from repro.campaign.spec import CampaignCell, CampaignSpec, SweepGrid
from repro.campaign.store import ResultStore
from repro.campaign.supervisor import (
    CampaignInterrupted,
    SupervisedExecutor,
    SupervisorConfig,
)

__all__ = [
    "CampaignCell",
    "CampaignInterrupted",
    "CampaignReport",
    "CampaignSpec",
    "CellOutcome",
    "ResultStore",
    "SerialExecutor",
    "SupervisedExecutor",
    "SupervisorConfig",
    "SweepGrid",
    "execute_cell",
    "export_csv",
    "export_json",
    "result_rows",
    "run_campaign",
]
