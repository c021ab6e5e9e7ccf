"""Golden rows of the campaign path: ``single_ip``/``multi_ip`` grid entries.

``tests/golden/scenario_metrics.json`` pins the six paper rows as the CLI
and the registry run them.  This file pins the other way a user reaches
the simulator: a campaign grid entry, turned into a runnable platform by
:func:`repro.campaign.spec.build_scenario` (with and without a grid seed)
and run through :func:`repro.experiments.runner.run_comparison`.  It also
pins the SHA-256 of the sorted job ids of ``examples/specs/paper_grid.json``,
so a change to the normalised scenario dictionaries (and with it every
stored result's content address) fails here.

Regenerate (only for a change meant to alter results or job hashes) with::

    PYTHONPATH=src python tests/campaign/test_campaign_rows.py
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.campaign import CampaignSpec
from repro.campaign.spec import build_scenario, build_setup
from repro.experiments import run_comparison

ROOT = Path(__file__).resolve().parent.parent.parent
GOLDEN_PATH = ROOT / "tests" / "golden" / "campaign_rows.json"
GRID_PATH = ROOT / "examples" / "specs" / "paper_grid.json"

#: The two custom rows of the paper grid, at the canonical seed and seed 2.
ROWS = [(name, seed) for name in ("hot-low-batt", "mixed-13") for seed in (None, 2)]
#: ScenarioMetrics fields that are host timings, not simulated results.
HOST_TIMED = ("wall_clock_s", "kilocycles_per_second")


def _hexify(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _hexify(item) for key, item in value.items()}
    return value


def _row_key(name, seed):
    return f"{name}/seed={'canonical' if seed is None else seed}"


def job_ids_sha256() -> str:
    """SHA-256 of the newline-joined sorted job ids of the paper grid."""
    ids = sorted(job.job_id for job in CampaignSpec.from_file(GRID_PATH).jobs())
    return hashlib.sha256("\n".join(ids).encode("ascii")).hexdigest()


def row_fingerprint(name, seed):
    """Every simulated ScenarioMetrics field of one grid row, floats as hex."""
    spec = CampaignSpec.from_file(GRID_PATH)
    entry = next(scenario for scenario in spec.scenarios if scenario["name"] == name)
    metrics = run_comparison(
        build_scenario(entry, seed=seed),
        dpm=build_setup({"name": "paper"}),
        baseline=build_setup(spec.baseline),
    )
    return {
        key: _hexify(value)
        for key, value in dataclasses.asdict(metrics).items()
        if key not in HOST_TIMED
    }


def _load_golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_paper_grid_job_ids_match_golden():
    assert job_ids_sha256() == _load_golden()["paper_grid_job_ids_sha256"]


@pytest.mark.parametrize("name,seed", ROWS, ids=[_row_key(*row) for row in ROWS])
def test_campaign_row_matches_golden(name, seed):
    assert row_fingerprint(name, seed) == _load_golden()["rows"][_row_key(name, seed)]


if __name__ == "__main__":
    figures = {
        "paper_grid_job_ids_sha256": job_ids_sha256(),
        "rows": {_row_key(name, seed): row_fingerprint(name, seed) for name, seed in ROWS},
    }
    GOLDEN_PATH.write_text(json.dumps(figures, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
