"""Parallel experiment campaigns: declarative grids, a result store, resume.

The campaign layer turns the single-shot
:func:`~repro.experiments.runner.run_comparison` into a scalable evaluation
engine:

* :mod:`repro.campaign.spec` — :class:`CampaignSpec` describes a grid of
  scenarios x DPM setups x seeds x overrides, loadable from JSON/TOML files
  or built in Python; the grid expands to hashable :class:`JobSpec` cells.
* :mod:`repro.campaign.executor` — :func:`run_campaign` fans the grid out
  over a ``multiprocessing`` pool in shared-baseline cells, with
  deterministic per-job seeds, per-job timeouts and graceful failure capture.
* :mod:`repro.campaign.store` — :class:`ResultStore`, a content-addressed
  JSON store keyed by the job hash; caching plus ``--resume``.
* :mod:`repro.campaign.aggregate` — reduces stored records back into
  :class:`~repro.analysis.metrics.ScenarioMetrics` rows and renders the
  campaign report/status.

The ``repro-dpm campaign`` CLI subcommand (run/status/report) is the
command-line face of this package.
"""

from repro.campaign.aggregate import (
    aggregate_records,
    campaign_status,
    record_metrics,
    render_campaign_report,
    render_status,
)
from repro.campaign.executor import (
    CampaignSummary,
    preflight_campaign,
    run_campaign,
)
from repro.campaign.spec import (
    CampaignSpec,
    JobSpec,
    PAPER_SCENARIO_DEFS,
    build_scenario,
    build_setup,
    canonical_json,
    job_hash,
    normalize_scenario,
    normalize_setup,
)
from repro.campaign.store import ResultStore

__all__ = [
    "CampaignSpec",
    "CampaignSummary",
    "JobSpec",
    "PAPER_SCENARIO_DEFS",
    "ResultStore",
    "aggregate_records",
    "build_scenario",
    "build_setup",
    "campaign_status",
    "canonical_json",
    "job_hash",
    "normalize_scenario",
    "normalize_setup",
    "preflight_campaign",
    "record_metrics",
    "render_campaign_report",
    "render_status",
    "run_campaign",
]
