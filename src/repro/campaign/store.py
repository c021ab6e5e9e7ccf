"""Content-addressed result store for campaigns.

A campaign directory looks like::

    <campaign-dir>/
        campaign.json           # the normalized spec that produced the grid
        records/
            <job_id>.json       # one result record per executed job
        traces/
            <job_id>.<ext>      # per-job event traces (campaign run --trace)

Each record file is named after :attr:`~repro.campaign.spec.JobSpec.job_id`
(the hash of the job description), which makes the store *content-addressed*:
re-running a campaign looks up every job by hash and only executes the ones
with no stored ``ok`` record — that is all ``--resume`` is.  Records are
written atomically (temp file + ``os.replace``) so an interrupted campaign
never leaves a truncated record behind.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Set, Union

from repro.errors import CampaignError

__all__ = ["ResultStore"]

_MANIFEST = "campaign.json"
_RECORDS = "records"
_BASELINES = "baselines"
_TRACES = "traces"


class ResultStore:
    """Per-campaign persistence: one JSON record per job, keyed by job hash.

    Baseline runs are stored separately under ``baselines/<key>.json`` keyed
    by :attr:`~repro.campaign.spec.JobSpec.baseline_key` — the hash of
    (scenario, baseline setup, seed, accuracy mode) — so every job of a grid
    cell shares one baseline simulation instead of re-running it per job.
    """

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.root = Path(root)
        self.records_dir = self.root / _RECORDS
        self.baselines_dir = self.root / _BASELINES
        self.traces_dir = self.root / _TRACES
        # The directories are created lazily by the write paths, so read-only
        # commands (status/report) on a mistyped path have no side effects.

    # -- manifest -------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        """Location of the normalized campaign spec."""
        return self.root / _MANIFEST

    def write_manifest(self, spec_dict: Mapping[str, Any]) -> None:
        """Persist the normalized campaign spec next to the records."""
        self.root.mkdir(parents=True, exist_ok=True)
        self._write_atomic(self.manifest_path, dict(spec_dict))

    def read_manifest(self) -> Dict[str, Any]:
        """Load the campaign spec stored by a previous run."""
        if not self.manifest_path.is_file():
            raise CampaignError(
                f"no campaign manifest in {self.root} (run the campaign first)"
            )
        try:
            with open(self.manifest_path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except json.JSONDecodeError as error:
            raise CampaignError(
                f"corrupt campaign manifest {self.manifest_path}: {error}"
            ) from None

    # -- records --------------------------------------------------------
    def put(self, record: Mapping[str, Any]) -> None:
        """Store one result record (overwrites any previous record of the job)."""
        job_id = record.get("job_id")
        if not isinstance(job_id, str) or not job_id:
            raise CampaignError("result records need a non-empty 'job_id'")
        self.records_dir.mkdir(parents=True, exist_ok=True)
        self._write_atomic(self.records_dir / f"{job_id}.json", dict(record))

    def get(self, job_id: str) -> Optional[Dict[str, Any]]:
        """Load the record of ``job_id``, or ``None`` when absent/corrupt."""
        path = self.records_dir / f"{job_id}.json"
        if not path.is_file():
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None

    def __contains__(self, job_id: str) -> bool:
        return (self.records_dir / f"{job_id}.json").is_file()

    def __len__(self) -> int:
        return sum(1 for _ in self.records_dir.glob("*.json"))

    def job_ids(self, status: Optional[str] = None) -> Set[str]:
        """Stored job ids, optionally restricted to one record status."""
        if status is None:
            return {path.stem for path in self.records_dir.glob("*.json")}
        return {record["job_id"] for record in self.records(status=status)}

    def records(self, status: Optional[str] = None) -> List[Dict[str, Any]]:
        """All stored records (sorted by job id for deterministic output)."""
        result = []
        for record in self._iter_records():
            if status is None or record.get("status") == status:
                result.append(record)
        result.sort(key=lambda record: record.get("job_id", ""))
        return result

    def _iter_records(self) -> Iterator[Dict[str, Any]]:
        for path in sorted(self.records_dir.glob("*.json")):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    record = json.load(handle)
            except (OSError, json.JSONDecodeError):
                continue  # unparsable: campaign_status reports it as corrupt
            if isinstance(record, dict):
                yield record

    # -- shared baselines ------------------------------------------------
    def put_baseline(self, key: str, record: Mapping[str, Any]) -> None:
        """Store the figures of one shared baseline run."""
        if not isinstance(key, str) or not key:
            raise CampaignError("baseline records need a non-empty key")
        self.baselines_dir.mkdir(parents=True, exist_ok=True)
        self._write_atomic(self.baselines_dir / f"{key}.json", dict(record))

    def get_baseline(self, key: str) -> Optional[Dict[str, Any]]:
        """Load a shared baseline record, or ``None`` when absent/corrupt."""
        path = self.baselines_dir / f"{key}.json"
        if not path.is_file():
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        return record if isinstance(record, dict) else None

    def baseline_keys(self) -> Set[str]:
        """Keys of all stored shared baselines."""
        if not self.baselines_dir.is_dir():
            return set()
        return {path.stem for path in self.baselines_dir.glob("*.json")}

    # -- internals ------------------------------------------------------
    @staticmethod
    def _write_atomic(path: Path, payload: Dict[str, Any]) -> None:
        tmp = path.with_suffix(path.suffix + f".tmp{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
