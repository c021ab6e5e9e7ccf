"""Campaign execution: fan the job grid out over a worker pool.

The executor is deliberately simple and robust:

* every job is *pure data* (see :mod:`repro.campaign.spec`), so it pickles
  cleanly into a ``multiprocessing`` pool and its hash is stable;
* the unit of work is a *cell*: the pending jobs that share one
  ``baseline_key``.  One task (:func:`execute_cell`) runs the cell's
  baseline when the store has none, then the cell's jobs with those
  figures, so a cell costs one pickle round trip and its worker resolves
  and compiles the scenario once.  Where whole cells would leave workers
  idle (fewer cells than workers, or a ragged last round), the executor
  keeps the two-pass schedule instead: every missing baseline as its own
  task, then one task per job;
* the workers (:func:`execute_baseline`, :func:`execute_job`) never raise —
  failures and per-job timeouts are captured as ``error`` / ``timeout``
  records so one broken grid cell cannot take down a thousand-job campaign;
* the parent process writes each record to the
  :class:`~repro.campaign.store.ResultStore` as soon as its task returns,
  which makes interrupting a campaign safe: only the cells in flight are
  lost, and a later ``--resume`` run executes only the jobs with no stored
  ``ok`` record.

``workers=1`` runs the tasks in-process (no pool), which is the easiest mode
to debug and what the tests use for determinism checks; ``workers=N``
feeds them to a ``multiprocessing.Pool`` with ``imap_unordered`` so slow
cells do not hold back the rest of the grid.
"""

from __future__ import annotations

import heapq
import os
import signal
import time
import traceback
from dataclasses import dataclass, field
from types import FrameType
from typing import (
    TYPE_CHECKING, Any, Callable, Collection, Dict, List, Mapping, NoReturn, Optional, Sequence, Tuple,
    Union,
)

from repro.campaign.spec import CampaignSpec, JobSpec, build_scenario, build_setup
from repro.campaign.store import ResultStore
from repro.errors import CampaignError
from repro.platform.spec import PlatformSpec

if TYPE_CHECKING:  # pragma: no cover - annotation only; the pool is imported lazily
    import multiprocessing.pool

__all__ = [
    "CampaignSummary",
    "execute_cell",
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

    def _alarm(_signum: int, _frame: Optional[FrameType]) -> NoReturn:
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


def _ignore_sigint() -> None:
    """Pool initializer: a worker ignores Ctrl-C, so the parent's
    ``pool.terminate()`` is the only stop (and no worker prints a
    ``KeyboardInterrupt`` traceback).  The per-job SIGALRM is untouched."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _worker_pool(processes: int) -> "multiprocessing.pool.Pool":
    """The campaign's worker pool."""
    import multiprocessing

    return multiprocessing.Pool(processes=processes, initializer=_ignore_sigint)


def _resolve(job: JobSpec) -> Union[PlatformSpec, Exception]:
    """The job's scenario spec, or the exception that resolving it raised.

    Each run of the job's cell re-raises that exception inside its own
    error capture, so the failure lands in every record of the cell as any
    run failure does.
    """
    try:
        return build_scenario(job.scenario, seed=job.seed)
    except Exception as error:  # noqa: BLE001 - each run records the failure itself
        return error


def execute_baseline(
    job: JobSpec, scenario: Union[PlatformSpec, Exception], timeout_s: Optional[float]
) -> Dict[str, Any]:
    """Run one shared baseline and return its record (never raises).

    ``scenario`` is the job's resolved scenario (see :func:`_resolve`).  The
    record carries ``baseline_key``, ``status`` and (on success) the plain
    :class:`~repro.experiments.runner.BaselineFigures` dictionary that
    :func:`execute_job` consumes instead of re-simulating the baseline.
    """
    from repro.experiments.runner import run_baseline

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
        if isinstance(scenario, Exception):
            raise scenario
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
    job: JobSpec,
    scenario: Union[PlatformSpec, Exception],
    timeout_s: Optional[float],
    baseline_figures: Optional[Mapping[str, Any]],
    trace: Optional[Mapping[str, Any]],
) -> Dict[str, Any]:
    """Run one campaign job and return its result record (never raises).

    ``scenario`` is the job's resolved scenario (see :func:`_resolve`).  The
    record always carries ``job_id``, ``job``, ``status`` and ``label``;
    successful jobs add ``metrics`` and ``per_ip``, failed jobs add ``error``.
    ``baseline_figures`` (a stored shared-baseline dictionary) skips the
    baseline simulation; runs are deterministic, so the result is identical.

    ``trace`` is an optional ``{"format": ..., "path": ...}`` mapping: the
    job's DPM run is traced to that file and successful records carry the
    path under ``"trace"``.  Tracing lives outside :class:`JobSpec`, so the
    job hash — and with it ``--resume`` — is unaffected.
    """
    from repro.experiments.runner import BaselineFigures, run_comparison

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
        if isinstance(scenario, Exception):
            raise scenario
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
    budget before anyone looks at a result.  This walks the campaign's
    scenarios with each override applied (the only grid axes that change a
    platform scenario, so the job grid is never expanded), lints each
    distinct ``kind: "platform"`` scenario with the trajectory envelope
    attached (``lint_spec(reach=True)``) and raises
    :class:`~repro.errors.CampaignError` on the first platform with
    error-severity findings.  Returns one summary line per linted platform
    (name, finding counts) for the CLI to print.  Paper scenarios
    (``single_ip``/``multi_ip``) are library-built and not linted here.
    """
    from repro.lint import Severity, lint_spec
    from repro.platform.serialize import spec_hash

    lines: List[str] = []
    seen: set = set()
    for scenario in spec.merged_scenarios():
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


@dataclass(frozen=True)
class _CellTask:
    """One task: a cell's baseline run (``None`` when the figures are known
    before the task starts) and the jobs that use its figures."""

    key: str
    baseline: Optional[JobSpec]
    jobs: Tuple[JobSpec, ...]


def _plan_cells(
    pending: Sequence[JobSpec], stored: Collection[str], workers: int
) -> Tuple[List[_CellTask], List[_CellTask]]:
    """Split the pending jobs into two passes of tasks, in grid order.

    Whole cells are one task each (baseline unless ``stored`` holds the
    cell's key, then the cell's jobs) and run in the second pass alone.
    When whole cells would pack onto ``workers`` worse than single runs do
    (few cells, or a last round that leaves workers idle), the plan is
    instead a first pass of baseline-only tasks and a second pass of one
    task per job.  The two plans' makespans are compared in runs, counting
    every run as equal; a tie goes to whole cells, which save a round trip
    and a scenario compile per run.
    """
    cells: Dict[str, List[JobSpec]] = {}
    for job in pending:
        cells.setdefault(job.baseline_key, []).append(job)
    whole = [
        _CellTask(key, None if key in stored else jobs[0], tuple(jobs))
        for key, jobs in cells.items()
    ]
    finish = [0] * workers  # list scheduling: each task goes to the first free worker
    for task in whole:
        heapq.heapreplace(finish, finish[0] + len(task.jobs) + (task.baseline is not None))
    baselines = [_CellTask(task.key, task.baseline, ()) for task in whole
                 if task.baseline is not None]
    if max(finish) <= -(-len(baselines) // workers) - (-len(pending) // workers):
        return [], whole
    return baselines, [_CellTask(job.baseline_key, None, (job,)) for job in pending]


def execute_cell(
    cell: Tuple[
        Optional[Mapping[str, Any]],
        Sequence[Tuple[Mapping[str, Any], Optional[Mapping[str, Any]]]],
        Optional[float],
        Optional[Mapping[str, Any]],
    ],
) -> Tuple[Optional[Dict[str, Any]], List[Dict[str, Any]]]:
    """Run one cell task and return its records (never raises).

    ``cell`` is ``(baseline, jobs, timeout_s, baseline_figures)``.
    ``baseline``, when not ``None``, is the job dictionary whose shared
    baseline runs first; its figures (none when it failed, so the jobs
    recompute their own) replace ``baseline_figures``.  ``jobs`` pairs each
    job dictionary with its trace request (see :func:`execute_job`).
    Returns the baseline record (``None`` when no baseline ran) and the job
    records in order.  The cell's runs share one scenario and seed, so the
    scenario spec is resolved once, outside every record's ``wall_clock_s``.
    """
    baseline, jobs, timeout_s, baseline_figures = cell
    specs = [JobSpec.from_dict(job) for job, _ in jobs]
    first = JobSpec.from_dict(baseline) if baseline is not None else specs[0]
    scenario = _resolve(first)
    record: Optional[Dict[str, Any]] = None
    if baseline is not None:
        record = execute_baseline(first, scenario, timeout_s)
        baseline_figures = record.get("figures")
    return record, [
        execute_job(job, scenario, timeout_s, baseline_figures, trace)
        for job, (_, trace) in zip(specs, jobs)
    ]


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
        When set (``"jsonl"``, ``"perfetto"`` or ``"vcd"``), every executed
        job's DPM run is traced to ``<directory>/traces/<job_id>.<ext>`` and
        its record carries the path.  Job hashes are unaffected, so ``--resume``
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

        if trace_format not in TRACE_EXTENSIONS:
            raise CampaignError(f"unknown trace format {trace_format!r}")
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
    # cell instead of one per job.  Each cell's task runs its missing
    # baseline and hands the figures to the cell's jobs; the parent stores
    # them so a resumed campaign reuses them.  A failed baseline simply
    # makes its jobs recompute their own.
    # ------------------------------------------------------------------
    figures: Dict[str, Optional[Dict[str, Any]]] = {}
    for key in dict.fromkeys(job.baseline_key for job in pending):
        stored = store.get_baseline(key)
        if stored is not None and stored.get("status") == "ok" and "figures" in stored:
            figures[key] = stored["figures"]
    summary.baseline_reused = len(figures)
    pool_size = min(workers, len(pending))

    def payload(task: _CellTask) -> Tuple[Any, ...]:
        return (
            None if task.baseline is None else task.baseline.to_dict(),
            [(job.to_dict(), job_trace(job)) for job in task.jobs],
            timeout_s,
            figures.get(task.key),
        )

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

    def run_passes(imap: Callable[..., Any]) -> None:
        # A pass's payloads are built when it starts, so the second pass
        # carries the figures of the baselines the first one stored.
        for tasks in _plan_cells(pending, figures, max(pool_size, 1)):
            for baseline, records in imap(execute_cell, [payload(task) for task in tasks]):
                if baseline is not None:
                    store.put_baseline(baseline["baseline_key"], baseline)
                    summary.baseline_runs += 1
                    figures[baseline["baseline_key"]] = baseline.get("figures")
                for record in records:
                    consume(record)

    if pool_size <= 1:
        run_passes(map)
    else:
        with _worker_pool(pool_size) as pool:
            try:
                run_passes(pool.imap_unordered)
            except KeyboardInterrupt:
                # Everything already consumed is safely in the store; drop
                # the cells in flight so a later --resume run picks them up.
                pool.terminate()
                raise
    summary.wall_clock_s = time.perf_counter() - wall_start  # repro-lint: allow[DET-WALLCLOCK]
    summary.records.sort(key=lambda record: record.get("job_id", ""))
    return summary
