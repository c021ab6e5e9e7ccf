"""Campaign execution: fan the job grid out over a worker pool.

The executor is deliberately simple and robust:

* every job is *pure data* (see :mod:`repro.campaign.spec`), so it pickles
  cleanly into a ``multiprocessing`` pool and its hash is stable;
* the worker (:func:`execute_job`) never raises — failures and per-job
  timeouts are captured as ``error`` / ``timeout`` records so one broken
  grid cell cannot take down a thousand-job campaign;
* the parent process writes each record to the
  :class:`~repro.campaign.store.ResultStore` as soon as it arrives, which
  makes interrupting a campaign safe: a later ``--resume`` run executes only
  the jobs with no stored ``ok`` record.

``workers=1`` runs in-process (no pool), which is the easiest mode to debug
and what the tests use for determinism checks; ``workers=N`` uses
``multiprocessing.Pool`` with ``imap_unordered`` so slow jobs do not hold
back the rest of the grid.
"""

from __future__ import annotations

import os
import signal
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Union

from repro.campaign.spec import CampaignSpec, JobSpec, build_scenario, build_setup
from repro.campaign.store import ResultStore
from repro.errors import CampaignError

__all__ = [
    "CampaignSummary",
    "execute_baseline",
    "execute_job",
    "preflight_campaign",
    "run_campaign",
]


@dataclass
class CampaignSummary:
    """What one ``run_campaign`` invocation did."""

    campaign: str
    total_jobs: int
    executed: int = 0
    skipped: int = 0
    ok: int = 0
    errors: int = 0
    timeouts: int = 0
    baseline_runs: int = 0
    baseline_reused: int = 0
    wall_clock_s: float = 0.0
    records: List[Dict[str, Any]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        """Flat dictionary view (used by the CLI and benchmarks)."""
        return {
            "campaign": self.campaign,
            "total_jobs": self.total_jobs,
            "executed": self.executed,
            "skipped": self.skipped,
            "ok": self.ok,
            "errors": self.errors,
            "timeouts": self.timeouts,
            "baseline_runs": self.baseline_runs,
            "baseline_reused": self.baseline_reused,
            "wall_clock_s": self.wall_clock_s,
        }


class _JobTimeout(Exception):
    """Internal: the per-job alarm fired."""


def _run_with_timeout(func: Callable[[], Any], timeout_s: Optional[float]) -> Any:
    """Run ``func`` under a SIGALRM-based timeout (no-op where unsupported).

    The handler raises wherever the interpreter happens to be; when that is
    a context that swallows exceptions (a GC callback, a ``__del__``), the
    job runs on to completion, so a fired alarm is re-raised afterwards.
    """
    if not timeout_s or not hasattr(signal, "SIGALRM"):
        return func()
    fired = False

    def _alarm(_signum, _frame):
        nonlocal fired
        fired = True
        raise _JobTimeout()

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        result = func()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    if fired:
        raise _JobTimeout()
    return result


def execute_baseline(job_dict: Mapping[str, Any], timeout_s: Optional[float] = None) -> Dict[str, Any]:
    """Run one shared baseline and return its record (never raises).

    The record carries ``baseline_key``, ``status`` and (on success) the
    plain :class:`~repro.experiments.runner.BaselineFigures` dictionary that
    :func:`execute_job` consumes instead of re-simulating the baseline.
    """
    from repro.experiments.runner import run_baseline

    job = JobSpec.from_dict(job_dict)
    record: Dict[str, Any] = {
        "baseline_key": job.baseline_key,
        "scenario": job.scenario["name"],
        "baseline": job.baseline["name"],
        "seed": job.seed,
        "accuracy": job.accuracy,
        "worker_pid": os.getpid(),
    }
    wall_start = time.perf_counter()  # repro-lint: allow[DET-WALLCLOCK]
    try:
        scenario = build_scenario(job.scenario, seed=job.seed)
        figures = _run_with_timeout(
            lambda: run_baseline(
                scenario, build_setup(job.baseline), accuracy=job.accuracy
            ),
            timeout_s,
        )
    except _JobTimeout:
        record["status"] = "timeout"
    except Exception as error:  # noqa: BLE001 - jobs fall back to own baselines
        record["status"] = "error"
        record["error"] = {"type": type(error).__name__, "message": str(error)}
    else:
        record["status"] = "ok"
        record["figures"] = figures.as_dict()
    record["wall_clock_s"] = time.perf_counter() - wall_start  # repro-lint: allow[DET-WALLCLOCK]
    return record


def execute_job(
    job_dict: Mapping[str, Any],
    timeout_s: Optional[float] = None,
    baseline_figures: Optional[Mapping[str, Any]] = None,
    trace: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Run one campaign job and return its result record (never raises).

    The record always carries ``job_id``, ``job``, ``status`` and ``label``;
    successful jobs add ``metrics`` and ``per_ip``, failed jobs add ``error``.
    ``baseline_figures`` (a stored shared-baseline dictionary) skips the
    baseline simulation; runs are deterministic, so the result is identical.

    ``trace`` is an optional ``{"format": ..., "path": ...}`` mapping: the
    job's DPM run is traced to that file and successful records carry the
    path under ``"trace"``.  Tracing lives outside :class:`JobSpec`, so the
    job hash — and with it ``--resume`` — is unaffected.
    """
    from repro.experiments.runner import BaselineFigures, run_comparison

    job = JobSpec.from_dict(job_dict)
    record: Dict[str, Any] = {
        "job_id": job.job_id,
        "job": job.to_dict(),
        "label": job.label,
        "scenario": job.scenario["name"],
        "setup": job.setup["name"],
        "seed": job.seed,
        "accuracy": job.accuracy,
        "worker_pid": os.getpid(),
    }
    figures = None
    if baseline_figures is not None:
        try:
            figures = BaselineFigures.from_dict(baseline_figures)
            record["baseline_key"] = job.baseline_key
        except (KeyError, TypeError, ValueError):
            figures = None  # corrupt cache entry: recompute the baseline
    trace_request: Any = False
    if trace is not None:
        from repro.obs import TraceRequest

        trace_request = TraceRequest(format=trace["format"], path=trace["path"])
    wall_start = time.perf_counter()  # repro-lint: allow[DET-WALLCLOCK]
    try:
        scenario = build_scenario(job.scenario, seed=job.seed)
        metrics = _run_with_timeout(
            lambda: run_comparison(
                scenario,
                dpm=build_setup(job.setup),
                baseline=build_setup(job.baseline),
                accuracy=job.accuracy,
                baseline_figures=figures,
                trace=trace_request,
            ),
            timeout_s,
        )
    except _JobTimeout:
        record["status"] = "timeout"
        record["error"] = {
            "type": "JobTimeout",
            "message": f"job exceeded the {timeout_s:g} s timeout",
        }
    except Exception as error:  # noqa: BLE001 - one bad cell must not kill the pool
        record["status"] = "error"
        record["error"] = {
            "type": type(error).__name__,
            "message": str(error),
            "traceback": traceback.format_exc(),
        }
    else:
        record["status"] = "ok"
        record["metrics"] = metrics.as_dict()
        record["per_ip"] = metrics.per_ip
        if trace is not None:
            record["trace"] = str(trace["path"])
    record["wall_clock_s"] = time.perf_counter() - wall_start  # repro-lint: allow[DET-WALLCLOCK]
    return record


def preflight_campaign(spec: CampaignSpec) -> List[str]:
    """Reach-lint every distinct resolved platform scenario of a campaign.

    Campaign grids can reference hand-written platform spec files; a typo'd
    rule table or a policy that can never fire burns the whole grid's CPU
    budget before anyone looks at a result.  This walks the campaign's jobs,
    lints each distinct ``kind: "platform"`` scenario with the trajectory
    envelope attached (``lint_spec(reach=True)``) and raises
    :class:`~repro.errors.CampaignError` on the first platform with
    error-severity findings.  Returns one summary line per linted platform
    (name, finding counts) for the CLI to print.  Paper scenarios
    (``single_ip``/``multi_ip``) are library-built and not linted here.
    """
    from repro.lint import Severity, lint_spec
    from repro.platform.serialize import spec_hash
    from repro.platform.spec import PlatformSpec

    lines: List[str] = []
    seen: set = set()
    for job in spec.jobs():
        scenario = job.scenario
        if scenario.get("kind") != "platform":
            continue
        platform = PlatformSpec.from_dict(scenario["spec"])
        digest = spec_hash(platform)
        if digest in seen:
            continue
        seen.add(digest)
        report = lint_spec(platform, reach=True)
        errors = report.errors
        if errors:
            details = "; ".join(
                f"{finding.code} at {finding.path}: {finding.message}"
                for finding in errors[:3]
            )
            more = f" (+{len(errors) - 3} more)" if len(errors) > 3 else ""
            raise CampaignError(
                f"preflight: platform scenario {platform.name!r} has "
                f"{len(errors)} error-severity lint finding(s): "
                f"{details}{more} — fix the spec or pass --no-preflight"
            )
        lines.append(
            f"preflight ok: {platform.name} "
            f"({report.count(Severity.WARN)} warning(s), "
            f"{report.count(Severity.INFO)} info)"
        )
    return lines


def _execute_job_star(payload) -> Dict[str, Any]:
    """Pool adapter: unpack ``(job_dict, timeout_s, baseline_figures, trace)``."""
    job_dict, timeout_s, baseline_figures, trace = payload
    return execute_job(job_dict, timeout_s, baseline_figures, trace)


def _execute_baseline_star(payload) -> Dict[str, Any]:
    """Pool adapter: unpack ``(job_dict, timeout_s)``."""
    job_dict, timeout_s = payload
    return execute_baseline(job_dict, timeout_s)


def run_campaign(
    spec: CampaignSpec,
    directory: Union[str, os.PathLike],
    workers: int = 1,
    resume: bool = False,
    job_timeout_s: Optional[float] = None,
    progress: Optional[Callable[[Dict[str, Any]], None]] = None,
    trace_format: Optional[str] = None,
    preflight: bool = True,
) -> CampaignSummary:
    """Execute a campaign grid, persisting every result to ``directory``.

    Parameters
    ----------
    spec:
        The campaign to run.
    directory:
        Campaign directory; created if missing.  Holds the manifest and the
        content-addressed result records.
    workers:
        Pool size.  ``1`` runs in-process; ``N > 1`` fans out over a
        ``multiprocessing`` pool.
    resume:
        When true, jobs whose hash already has an ``ok`` record in the store
        are skipped, so only missing/changed/failed jobs execute.
    job_timeout_s:
        Per-job wall-clock timeout (overrides ``spec.job_timeout_s``).
    progress:
        Optional callback invoked with each record as it is stored.
    trace_format:
        When set (``"jsonl"`` or ``"perfetto"``), every executed job's DPM
        run is traced to ``<directory>/traces/<job_id>.<ext>`` and its
        record carries the path.  Job hashes are unaffected, so ``--resume``
        still matches records produced without tracing (and vice versa).
    preflight:
        When true (the default), every distinct ``kind: "platform"``
        scenario is reach-linted (:func:`preflight_campaign`) *before* any
        job runs; error-severity findings abort the campaign with a
        :class:`~repro.errors.CampaignError` instead of burning the grid's
        CPU budget on a broken spec.
    """
    if workers < 1:
        raise CampaignError("workers must be >= 1")
    if preflight:
        preflight_campaign(spec)
    timeout_s = job_timeout_s if job_timeout_s is not None else spec.job_timeout_s
    store = ResultStore(directory)
    store.write_manifest(spec.to_dict())
    job_trace: Callable[[JobSpec], Optional[Dict[str, Any]]] = lambda job: None
    if trace_format is not None:
        from repro.obs import TRACE_EXTENSIONS

        if trace_format not in ("jsonl", "perfetto"):
            raise CampaignError(
                f"campaign tracing supports jsonl/perfetto, not {trace_format!r}"
            )
        store.traces_dir.mkdir(parents=True, exist_ok=True)
        extension = TRACE_EXTENSIONS[trace_format]

        def job_trace(job: JobSpec) -> Optional[Dict[str, Any]]:
            return {
                "format": trace_format,
                "path": str(store.traces_dir / f"{job.job_id}.{extension}"),
            }
    jobs = spec.jobs()
    summary = CampaignSummary(campaign=spec.name, total_jobs=len(jobs))
    done = store.job_ids(status="ok") if resume else set()
    pending: List[JobSpec] = []
    for job in jobs:
        record = store.get(job.job_id) if job.job_id in done else None
        if record is not None:
            summary.skipped += 1
            summary.records.append(record)
        else:
            pending.append(job)

    wall_start = time.perf_counter()  # repro-lint: allow[DET-WALLCLOCK]

    # ------------------------------------------------------------------
    # Shared baselines: one run per (scenario, baseline, seed, accuracy)
    # cell instead of one per job.  Missing cells are computed first (through
    # the same pool), stored, and handed to the jobs as plain figures; a
    # failed baseline cell simply makes its jobs recompute their own.
    # ------------------------------------------------------------------
    baseline_jobs: Dict[str, JobSpec] = {}
    for job in pending:
        key = job.baseline_key
        if key not in baseline_jobs:
            baseline_jobs[key] = job
    cached_figures: Dict[str, Dict[str, Any]] = {}
    missing: List[JobSpec] = []
    for key, job in baseline_jobs.items():
        stored = store.get_baseline(key)
        if stored is not None and stored.get("status") == "ok" and "figures" in stored:
            cached_figures[key] = stored["figures"]
            summary.baseline_reused += 1
        else:
            missing.append(job)

    def consume_baseline(record: Dict[str, Any]) -> None:
        key = record.get("baseline_key", "")
        store.put_baseline(key, record)
        summary.baseline_runs += 1
        if record.get("status") == "ok" and "figures" in record:
            cached_figures[key] = record["figures"]

    def consume(record: Dict[str, Any]) -> None:
        store.put(record)
        summary.records.append(record)
        summary.executed += 1
        status = record.get("status")
        if status == "ok":
            summary.ok += 1
        elif status == "timeout":
            summary.timeouts += 1
        else:
            summary.errors += 1
        if progress is not None:
            progress(record)

    if workers == 1 or len(pending) <= 1:
        for job in missing:
            consume_baseline(execute_baseline(job.to_dict(), timeout_s))
        for job in pending:
            consume(execute_job(job.to_dict(), timeout_s,
                                cached_figures.get(job.baseline_key), job_trace(job)))
    else:
        import multiprocessing

        with multiprocessing.Pool(processes=min(workers, len(pending))) as pool:
            try:
                if missing:
                    baseline_payloads = [(job.to_dict(), timeout_s) for job in missing]
                    for record in pool.imap_unordered(_execute_baseline_star, baseline_payloads):
                        consume_baseline(record)
                payloads = [
                    (job.to_dict(), timeout_s, cached_figures.get(job.baseline_key),
                     job_trace(job))
                    for job in pending
                ]
                for record in pool.imap_unordered(_execute_job_star, payloads):
                    consume(record)
            except KeyboardInterrupt:
                # Everything already consumed is safely in the store; drop
                # the rest so a later --resume run picks the missing jobs up.
                pool.terminate()
                raise
    summary.wall_clock_s = time.perf_counter() - wall_start  # repro-lint: allow[DET-WALLCLOCK]
    summary.records.sort(key=lambda record: record.get("job_id", ""))
    return summary
