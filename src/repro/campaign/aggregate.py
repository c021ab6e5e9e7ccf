"""Reduce stored campaign records back into the analysis layer.

The executor persists plain dictionaries; this module turns them back into
:class:`~repro.analysis.metrics.ScenarioMetrics` rows so every existing
renderer (:mod:`repro.analysis.report`, :mod:`repro.analysis.export`)
works on campaign output unchanged:

* :func:`record_metrics` — one stored record → one ``ScenarioMetrics``;
* :func:`aggregate_records` — mean over seeds/overrides, grouped by
  ``(scenario, setup)``, i.e. one row per grid cell family;
* :func:`render_campaign_report` — the text report printed by
  ``repro-dpm campaign report``;
* :func:`campaign_status` — done/failed/missing/corrupt counts for
  ``repro-dpm campaign status``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.metrics import ScenarioMetrics
from repro.analysis.report import format_table
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore
from repro.errors import CampaignError

__all__ = [
    "record_metrics",
    "aggregate_records",
    "render_campaign_report",
    "campaign_status",
    "render_status",
]

_MEANED_FIELDS = (
    "energy_saving_pct",
    "temperature_reduction_pct",
    "average_delay_overhead_pct",
    "dpm_energy_j",
    "baseline_energy_j",
    "dpm_average_rise_c",
    "baseline_average_rise_c",
    "simulated_time_s",
    "bus_occupancy_pct",
    "bus_average_wait_us",
)


def record_metrics(record: Mapping[str, Any]) -> ScenarioMetrics:
    """Rebuild the :class:`ScenarioMetrics` of one stored ``ok`` record."""
    if record.get("status") != "ok":
        raise CampaignError(
            f"record {record.get('job_id', '?')} has status "
            f"{record.get('status')!r}, not 'ok'"
        )
    metrics = dict(record["metrics"])
    return ScenarioMetrics(
        scenario=metrics.pop("scenario", record.get("scenario", "?")),
        energy_saving_pct=metrics.pop("energy_saving_pct"),
        temperature_reduction_pct=metrics.pop("temperature_reduction_pct"),
        average_delay_overhead_pct=metrics.pop("average_delay_overhead_pct"),
        dpm_energy_j=metrics.pop("dpm_energy_j", 0.0),
        baseline_energy_j=metrics.pop("baseline_energy_j", 0.0),
        dpm_average_rise_c=metrics.pop("dpm_average_rise_c", 0.0),
        baseline_average_rise_c=metrics.pop("baseline_average_rise_c", 0.0),
        tasks_executed=int(metrics.pop("tasks_executed", 0)),
        simulated_time_s=metrics.pop("simulated_time_s", 0.0),
        wall_clock_s=metrics.pop("wall_clock_s", 0.0),
        kilocycles_per_second=metrics.pop("kilocycles_per_second", 0.0),
        bus_occupancy_pct=metrics.pop("bus_occupancy_pct", 0.0),
        bus_transfer_count=int(metrics.pop("bus_transfer_count", 0)),
        bus_words_transferred=int(metrics.pop("bus_words_transferred", 0)),
        bus_average_wait_us=metrics.pop("bus_average_wait_us", 0.0),
        bus_cancelled_count=int(metrics.pop("bus_cancelled_count", 0)),
        per_ip={name: dict(stats) for name, stats in record.get("per_ip", {}).items()},
        extra={key: value for key, value in metrics.items() if isinstance(value, (int, float))},
    )


def aggregate_records(records: Sequence[Mapping[str, Any]]) -> List[ScenarioMetrics]:
    """Mean-aggregate ``ok`` records into one row per ``(scenario, setup)``.

    The row is labelled ``"<scenario>/<setup>"`` and its ``extra`` carries the
    number of jobs averaged, so reports stay honest about sample sizes.
    """
    groups: Dict[Tuple[str, str], List[ScenarioMetrics]] = {}
    order: List[Tuple[str, str]] = []
    for record in records:
        if record.get("status") != "ok":
            continue
        key = (str(record.get("scenario", "?")), str(record.get("setup", "?")))
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(record_metrics(record))
    order.sort()
    rows: List[ScenarioMetrics] = []
    for key in order:
        members = groups[key]
        count = len(members)
        means = {
            name: sum(getattr(member, name) for member in members) / count
            for name in _MEANED_FIELDS
        }
        rows.append(
            ScenarioMetrics(
                scenario=f"{key[0]}/{key[1]}",
                energy_saving_pct=means["energy_saving_pct"],
                temperature_reduction_pct=means["temperature_reduction_pct"],
                average_delay_overhead_pct=means["average_delay_overhead_pct"],
                dpm_energy_j=means["dpm_energy_j"],
                baseline_energy_j=means["baseline_energy_j"],
                dpm_average_rise_c=means["dpm_average_rise_c"],
                baseline_average_rise_c=means["baseline_average_rise_c"],
                tasks_executed=sum(member.tasks_executed for member in members),
                simulated_time_s=means["simulated_time_s"],
                bus_occupancy_pct=means["bus_occupancy_pct"],
                bus_average_wait_us=means["bus_average_wait_us"],
                bus_transfer_count=sum(m.bus_transfer_count for m in members),
                bus_words_transferred=sum(m.bus_words_transferred for m in members),
                bus_cancelled_count=sum(m.bus_cancelled_count for m in members),
                extra={"jobs": float(count)},
            )
        )
    return rows


def render_campaign_report(
    records: Sequence[Mapping[str, Any]],
    title: str = "Campaign report",
) -> str:
    """Text report: per-job rows, failures, and the aggregate table."""
    ok = [record for record in records if record.get("status") == "ok"]
    failed = [record for record in records if record.get("status") != "ok"]
    sections: List[str] = []
    if ok:
        job_rows = []
        for record in sorted(ok, key=lambda r: str(r.get("label", ""))):
            metrics = record["metrics"]
            job_rows.append(
                [
                    record.get("label", record.get("job_id", "?")),
                    f"{metrics['energy_saving_pct']:.1f}",
                    f"{metrics['temperature_reduction_pct']:.1f}",
                    f"{metrics['average_delay_overhead_pct']:.1f}",
                    str(int(metrics.get("tasks_executed", 0))),
                ]
            )
        sections.append(
            format_table(
                ["job", "saving (%)", "temp. red. (%)", "delay (%)", "tasks"],
                job_rows,
                title=f"{title} — per job",
            )
        )
        aggregate_rows = [
            [
                row.scenario,
                f"{row.energy_saving_pct:.1f}",
                f"{row.temperature_reduction_pct:.1f}",
                f"{row.average_delay_overhead_pct:.1f}",
                str(int(row.extra.get("jobs", 0))),
            ]
            for row in aggregate_records(records)
        ]
        sections.append(
            format_table(
                ["scenario/setup", "saving (%)", "temp. red. (%)", "delay (%)", "jobs"],
                aggregate_rows,
                title=f"{title} — aggregate (mean over seeds)",
            )
        )
    else:
        sections.append(f"{title}: no successful jobs stored")
    if failed:
        failure_rows = [
            [
                record.get("label", record.get("job_id", "?")),
                str(record.get("status", "?")),
                str(record.get("error", {}).get("message", ""))[:60],
            ]
            for record in sorted(failed, key=lambda r: str(r.get("label", "")))
        ]
        sections.append(
            format_table(["job", "status", "error"], failure_rows, title="Failures")
        )
    return "\n\n".join(sections)


def campaign_status(
    store: ResultStore,
    spec: Optional[CampaignSpec] = None,
) -> Dict[str, Any]:
    """Progress of a campaign directory against its (stored) spec."""
    if spec is None:
        spec = CampaignSpec.from_dict(store.read_manifest())
    jobs = spec.jobs()
    stored = {record["job_id"]: record for record in store.records()}
    # A record file that does not parse is corrupt, not missing: it is named
    # here, and --resume re-runs it like a missing job.
    files = store.job_ids()
    counts = {"ok": 0, "error": 0, "timeout": 0, "missing": 0, "corrupt": 0}
    missing: List[str] = []
    corrupt: List[str] = []
    for job in jobs:
        record = stored.get(job.job_id)
        if record is None and job.job_id in files:
            counts["corrupt"] += 1
            corrupt.append(str(store.records_dir / f"{job.job_id}.json"))
        elif record is None:
            counts["missing"] += 1
            missing.append(job.label)
        else:
            status = str(record.get("status", "error"))
            counts[status] = counts.get(status, 0) + 1
    return {
        "campaign": spec.name,
        "total_jobs": len(jobs),
        "counts": counts,
        "missing": missing,
        "corrupt": corrupt,
        "directory": str(store.root),
    }


def render_status(status: Mapping[str, Any]) -> str:
    """Human-readable status block for the CLI."""
    counts = status["counts"]
    lines = [
        f"Campaign {status['campaign']!r} in {status['directory']}",
        f"  jobs:    {status['total_jobs']}",
        f"  ok:      {counts.get('ok', 0)}",
        f"  error:   {counts.get('error', 0)}",
        f"  timeout: {counts.get('timeout', 0)}",
        f"  missing: {counts.get('missing', 0)}",
        f"  corrupt: {counts.get('corrupt', 0)}",
    ]
    if status["missing"]:
        preview = ", ".join(status["missing"][:6])
        suffix = ", ..." if len(status["missing"]) > 6 else ""
        lines.append(f"  pending: {preview}{suffix}")
    lines += [f"  corrupt record: {path}" for path in status["corrupt"]]
    return "\n".join(lines)
