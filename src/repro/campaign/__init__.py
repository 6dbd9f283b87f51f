"""The campaign subsystem: persistent, resumable paper-scale sweeps.

Layers (each its own module):

* :mod:`repro.campaign.spec` — declarative parameter grids expanded
  into content-addressed jobs (the fingerprint contract);
* :mod:`repro.campaign.store` — the SQLite-backed run store with the
  ``pending → claimed → done/failed`` job lifecycle;
* :mod:`repro.campaign.runner` — the worker pool executing open jobs
  through the experiment registry;
* :mod:`repro.campaign.report` — deterministic JSON export and ASCII
  re-rendering of stored results (Figure 1 panels, claim tables).

CLI: ``python -m repro campaign init|run|status|reset|export``.
"""

from repro.campaign.report import (
    export_campaign,
    merged_metrics,
    render_results,
    render_status,
    result_payload,
    store_all_ok,
    watch_status,
)
from repro.campaign.runner import run_campaign
from repro.campaign.spec import CampaignSpec, Job, job_fingerprint
from repro.campaign.store import CampaignStore, JobRecord

__all__ = [
    "CampaignSpec",
    "CampaignStore",
    "Job",
    "JobRecord",
    "export_campaign",
    "job_fingerprint",
    "merged_metrics",
    "render_results",
    "render_status",
    "result_payload",
    "run_campaign",
    "store_all_ok",
    "watch_status",
]
