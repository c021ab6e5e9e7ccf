"""The four benchmark workloads.

Each workload generates its inputs from the workload seed and runs them
through the program's public API as a closed loop of identical *units*: the
next unit starts when the previous one returns.  A unit reports what it did
as a :class:`UnitResult` — the operations it attempted and failed, the work
behind each throughput metric, the deterministic counters the per-layer
report derives its counts from, and a digest of every simulated result.
Every unit of one run must produce the same digest.

* ``campaign-grid`` — a ``paper_grid``-shaped campaign into a fresh store,
  read back and rendered as the campaign report.
* ``soc-busy`` — one long-horizon 4-IP GEM platform derived from paper row B
  with all IPs busy and a shared bus loaded past half occupancy.
* ``soc-idle`` — one long-horizon duty-cycle platform shaped like
  ``iot-duty-cycle``, with idle gaps spanning tens of sample windows.
* ``verify`` — differential fuzzing with the default oracle set plus
  trajectory-aware lint over every registered platform and example spec.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import common

#: Upper bound on campaign pool size (the host's usable CPUs, at most this).
MAX_WORKERS = 4


def pool_workers() -> int:
    """Campaign pool size: the CPUs this process may run on, capped."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - not Linux
        usable = os.cpu_count() or 1
    return max(1, min(MAX_WORKERS, usable))


@dataclass
class UnitResult:
    """What one unit of a workload did."""

    digest: str = ""
    attempted: int = 0
    failed: int = 0
    #: ok top-level operations (campaign jobs, platform runs, fuzz runs + linted specs)
    jobs: int = 0
    #: simulated ON1 kilocycles per host second of each whole simulating call
    #: (campaign job, ``run_scenario`` run, fuzz batch).  Like every rate here
    #: it is at nominal host speed (``common.timed``).
    sim_rates: List[float] = field(default_factory=list)
    #: differential runs per second of each ``run_fuzz`` batch, and their raw time
    fuzz_rates: List[float] = field(default_factory=list)
    fuzz_s: float = 0.0
    #: linted specs per second of each lint sweep
    lint_rates: List[float] = field(default_factory=list)
    #: deterministic per-unit counters (identical on every unit of a run)
    counts: Dict[str, float] = field(default_factory=dict)
    #: host-time figures of the unit (vary run to run)
    times: Dict[str, float] = field(default_factory=dict)
    #: the Table-2 rows this unit reproduced, when it ran them
    table2: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: one line per failed operation, printed on standard error
    problems: List[str] = field(default_factory=list)


def table2_err_pp(rows: Dict[str, Dict[str, float]]) -> float:
    """Mean |reproduced - paper| in percentage points over 3 columns x 6 rows."""
    from repro.analysis.report import PAPER_TABLE2

    errors = [
        abs(rows[name][column] - paper[column])
        for name, paper in PAPER_TABLE2.items()
        for column in paper
    ]
    return sum(errors) / len(errors)


def paper_table2() -> Dict[str, Dict[str, float]]:
    """The six Table-2 rows under the paper setup and canonical seeds."""
    from repro.analysis.report import PAPER_TABLE2
    from repro.experiments.runner import run_comparison

    rows = {}
    for name, paper in PAPER_TABLE2.items():
        metrics = run_comparison(name).as_dict()
        rows[name] = {column: metrics[column] for column in paper}
    return rows


# ----------------------------------------------------------------------
# campaign-grid
# ----------------------------------------------------------------------
#: Scenario entries of ``examples/specs/paper_grid.json``: the six paper rows
#: plus the two custom rows.
GRID_SCENARIOS: List[Any] = [
    "A1", "A2", "A3", "A4", "B", "C",
    {"kind": "single_ip", "name": "hot-low-batt", "battery": "low",
     "temperature": "high", "task_count": 24},
    {"kind": "multi_ip", "name": "mixed-13", "battery": "medium",
     "temperature": "low", "high_activity_ips": [1, 3], "task_count": 16},
]
GRID_SETUPS = ["paper", "greedy-sleep"]
#: Seeds drawn from the workload seed, on top of the canonical seed (null).
GRID_DRAWN_SEEDS = 7
#: Metrics of a campaign record that are host timings, not simulated results.
HOST_TIMED_KEYS = ("wall_clock_s", "kilocycles_per_second")


def _record_view(record: Dict[str, Any]) -> Dict[str, Any]:
    """The simulated content of a campaign record (host timings dropped)."""
    metrics = {
        key: value
        for key, value in record.get("metrics", {}).items()
        if key not in HOST_TIMED_KEYS
    }
    return {
        "job_id": record.get("job_id"),
        "status": record.get("status"),
        "metrics": {key: repr(value) for key, value in metrics.items()},
        "per_ip": {
            ip: {key: repr(value) for key, value in figures.items()}
            for ip, figures in record.get("per_ip", {}).items()
        },
    }


class CampaignGrid:
    name = "campaign-grid"

    def __init__(self, seed: int) -> None:
        from repro.campaign import CampaignSpec

        rng = random.Random(seed)
        seeds: List[Optional[int]] = [None]
        seeds += [rng.randrange(1, 1 << 20) for _ in range(GRID_DRAWN_SEEDS)]
        self.workers = pool_workers()
        self.spec = CampaignSpec(
            name=f"bench-grid-{seed}",
            scenarios=list(GRID_SCENARIOS),
            setups=list(GRID_SETUPS),
            seeds=seeds,
            baseline="always-on",
        )
        self.warm_spec = CampaignSpec(
            name="bench-grid-warmup",
            scenarios=list(GRID_SCENARIOS),
            setups=list(GRID_SETUPS),
            seeds=[None],
            baseline="always-on",
        )

    def warmup(self) -> UnitResult:
        return self._run(self.warm_spec, self.workers)

    def unit(self, in_process: bool = False) -> UnitResult:
        return self._run(self.spec, 1 if in_process else self.workers)

    def _run(self, spec, workers: int) -> UnitResult:
        from repro.analysis.report import PAPER_TABLE2
        from repro.campaign import ResultStore, render_campaign_report, run_campaign

        directory = tempfile.mkdtemp(prefix="grid-")
        try:
            summary, run_s, scale = common.timed(
                lambda: run_campaign(spec, directory, workers=workers))
            report_start = time.perf_counter()
            store = ResultStore(directory)
            records = store.records()
            report = render_campaign_report(records)
            end = time.perf_counter()
            baselines = [store.get_baseline(key) for key in sorted(store.baseline_keys())]
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        records.sort(key=lambda record: record.get("job_id", ""))
        ok = [record for record in records if record.get("status") == "ok"]
        result = UnitResult(attempted=summary.total_jobs)
        result.failed = summary.total_jobs - len(ok)
        result.problems = [
            f"job {record.get('label')}: {record.get('status')}: "
            f"{record.get('error', {}).get('message', '')}"
            for record in records if record.get("status") != "ok"
        ]
        if len(records) != summary.total_jobs:
            result.problems.append(f"{len(records)} of {summary.total_jobs} records read back")
        result.jobs = len(ok)
        kcycles = job_s = 0.0
        for record in ok:
            metrics = record["metrics"]
            kcycles += metrics["kilocycles_per_second"] * metrics["wall_clock_s"]
            job_s += record["wall_clock_s"]
            if (record["scenario"] in PAPER_TABLE2 and record.get("setup") == "paper"
                    and record.get("seed") is None):
                result.table2[record["scenario"]] = {
                    column: metrics[column]
                    for column in ("energy_saving_pct", "temperature_reduction_pct",
                                   "average_delay_overhead_pct")
                }
        if ok:
            result.sim_rates.append(kcycles / job_s * scale)
        result.digest = common.digest({
            "records": [_record_view(record) for record in records],
            "ok": summary.ok,
            "baseline_runs": summary.baseline_runs,
            "report": report,
        })
        jobs = max(1, len(ok))
        result.counts.update({
            "campaign.jobs": float(len(records)),
            "campaign.store_puts": float(len(records) + len(baselines)),
            "campaign.baseline_runs": float(summary.baseline_runs),
            "campaign.baseline_reuse_frac": (jobs - summary.baseline_runs) / jobs,
        })
        busy = sum(record["wall_clock_s"] for record in records)
        busy += sum(baseline.get("wall_clock_s", 0.0) for baseline in baselines if baseline)
        result.times.update({
            "campaign.wall_s": summary.wall_clock_s,
            "campaign.run_s": run_s,
            "campaign.report_s": end - report_start,
            "campaign.worker_busy_s": busy,
            "campaign.workers": float(workers),
        })
        return result


class PoolHooks:
    """Light timers around the campaign pool and store, for pool-level figures.

    Installed only in the traced run's timed configuration; they wrap
    ``multiprocessing.Pool`` construction and ``ResultStore.put`` /
    ``put_baseline`` with two clock reads each.
    """

    def __init__(self) -> None:
        self.pool_start_s = 0.0
        self.store_put_s = 0.0
        self._undo: List[Callable[[], None]] = []

    def install(self) -> None:
        import multiprocessing

        from repro.campaign.store import ResultStore

        hooks = self
        original_pool = multiprocessing.Pool

        def timed_pool(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original_pool(*args, **kwargs)
            finally:
                hooks.pool_start_s += time.perf_counter() - start

        multiprocessing.Pool = timed_pool
        self._undo.append(lambda: setattr(multiprocessing, "Pool", original_pool))
        for attr in ("put", "put_baseline"):
            original = getattr(ResultStore, attr)

            def timed_put(*args, _original=original, **kwargs):
                start = time.perf_counter()
                try:
                    return _original(*args, **kwargs)
                finally:
                    hooks.store_put_s += time.perf_counter() - start

            setattr(ResultStore, attr, timed_put)
            self._undo.append(
                lambda _attr=attr, _original=original: setattr(ResultStore, _attr, _original)
            )

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()


# ----------------------------------------------------------------------
# soc-busy / soc-idle
# ----------------------------------------------------------------------
def busy_platform(seed: int, tasks: int):
    """Paper row B with all four IPs busy and a shared bus past half occupancy."""
    from repro.platform.spec import (
        BatteryDef, BusDef, GemDef, IpDef, PlatformSpec, ThermalDef, WorkloadDef,
    )

    rng = random.Random(seed)
    ips = [
        IpDef(
            name=f"ip{index}",
            workload=WorkloadDef(
                kind="high_activity", task_count=tasks, seed=rng.randrange(1 << 30),
                name=f"ip{index}-busy",
            ),
            static_priority=index,
            bus_words_per_task=rng.randrange(28_000, 40_000),
        )
        for index in range(1, 5)
    ]
    return PlatformSpec(
        name="soc-busy",
        description="paper row B, all IPs busy, contended shared bus",
        ips=ips,
        battery=BatteryDef(condition="low"),
        thermal=ThermalDef(condition="low"),
        gem=GemDef(enabled=True),
        bus=BusDef(enabled=True),
        max_time_ms=tasks * 10.0,
    ).validate()


def idle_platform(seed: int, tasks: int):
    """An ``iot-duty-cycle``-shaped node whose idle gaps span tens of sample windows."""
    from repro.platform.spec import (
        BatteryDef, IpDef, PlatformSpec, PolicyDef, PsmDef, WorkloadDef,
    )

    rng = random.Random(seed)
    return PlatformSpec(
        name="soc-idle",
        description="duty-cycle sensor node: short tasks, long seeded idle gaps",
        ips=[
            IpDef(
                name="sensor",
                workload=WorkloadDef(
                    kind="random", task_count=tasks, seed=rng.randrange(1 << 30),
                    cycles_min=4_000, cycles_max=16_000,
                    idle_min_us=40_000.0, idle_max_us=120_000.0,
                    priorities=["low", "medium"],
                ),
                psm=PsmDef(wakeup_latency_us={"SL1": 40.0}),
            )
        ],
        battery=BatteryDef(condition="low"),
        policy=PolicyDef(name="paper", allow_off=True),
        max_time_ms=tasks * 200.0,
        sample_interval_us=2_000.0,
    ).validate()


def soc_counts(soc, end_time) -> Dict[str, float]:
    """The counters one simulated SoC exposes, as flat per-run figures."""
    kernel = soc.simulator.kernel.stats
    counts = {
        "sim.activations": float(kernel.process_activations),
        "sim.delta_cycles": float(kernel.delta_cycles),
        "sim.timed_notifications": float(kernel.timed_notifications),
        "sim.time_advances": float(kernel.time_advances),
        "power.transitions": float(sum(psm.transition_count for psm in soc.psms)),
        "dpm.lem_decisions": float(sum(len(lem.decisions) for lem in soc.lems)),
        "dpm.lem_deferrals": float(sum(lem.deferral_count for lem in soc.lems)),
        "dpm.sleep_decisions": float(sum(lem.sleep_decisions for lem in soc.lems)),
        "soc.sample_windows": float(int(end_time) // int(soc.config.sample_interval)),
        "soc.bus.transfers": 0.0,
        "soc.bus.cancelled": 0.0,
        "soc.bus.busy_fs": 0.0,
        "soc.bus.wait_fs": 0.0,
        "soc.bus.grants": 0.0,
        "soc.bus.simulated_fs": 0.0,
    }
    bus = soc.bus
    if bus is not None:
        counts["soc.bus.transfers"] = float(bus.stats.transfer_count)
        counts["soc.bus.cancelled"] = float(bus.stats.cancelled_count)
        counts["soc.bus.busy_fs"] = float(int(bus.stats.busy_time))
        counts["soc.bus.wait_fs"] = float(int(bus.stats.total_wait_time))
        counts["soc.bus.grants"] = float(bus.stats.grant_count)
        counts["soc.bus.simulated_fs"] = float(int(end_time))
    return counts


def soc_state(soc, end_time) -> Dict[str, Any]:
    """Everything one simulated SoC produced that a speed-up must not change."""
    bus = soc.bus
    return {
        "end_fs": int(end_time),
        "energy": repr(soc.total_energy_j()),
        "ip_energy": [repr(instance.ip.energy_account.total_j) for instance in soc.instances],
        "transitions": [instance.psm.transition_counts for instance in soc.instances],
        "kernel": soc.simulator.kernel.stats.as_dict(),
        "lem": [
            [len(lem.decisions), lem.deferral_count, lem.sleep_decisions] for lem in soc.lems
        ],
        "bus": None if bus is None else {
            "transfers": bus.stats.transfer_count,
            "grants": bus.stats.grant_count,
            "cancelled": bus.stats.cancelled_count,
            "words": bus.stats.words_transferred,
            "busy_fs": int(bus.stats.busy_time),
            "wait_fs": int(bus.stats.total_wait_time),
        },
        "temperature": [repr(soc.thermal.average_rise_c), repr(soc.thermal.peak_c)],
        "completed": soc.all_done,
    }


class SocRun:
    """One long-horizon platform, simulated whole per unit."""

    name = ""
    tasks = 0
    warmup_tasks = 0
    make_platform: Callable[[int, int], Any]

    def __init__(self, seed: int) -> None:
        self.spec = type(self).make_platform(seed, self.tasks)
        self.warm_spec = type(self).make_platform(common.DEFAULT_SEED, self.warmup_tasks)

    def warmup(self) -> UnitResult:
        return self._run(self.warm_spec)

    def unit(self, in_process: bool = True) -> UnitResult:
        return self._run(self.spec)

    def _run(self, spec) -> UnitResult:
        from repro.experiments.runner import run_scenario

        artifacts, elapsed, scale = common.timed(lambda: run_scenario(spec, None, trace=False))
        soc = artifacts.soc
        result = UnitResult(attempted=1)
        result.failed = 0 if artifacts.all_tasks_completed else 1
        result.jobs = 1 - result.failed
        if result.failed:
            result.problems.append(f"{spec.name}: not every task completed")
        result.sim_rates.append(artifacts.cycles_simulated() / 1e3 / elapsed * scale)
        result.counts = soc_counts(soc, artifacts.end_time)
        result.digest = common.digest(soc_state(soc, artifacts.end_time))
        return result


class SocBusy(SocRun):
    name = "soc-busy"
    tasks = 1000
    warmup_tasks = 60
    make_platform = staticmethod(busy_platform)


class SocIdle(SocRun):
    name = "soc-idle"
    tasks = 700
    warmup_tasks = 40
    make_platform = staticmethod(idle_platform)


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------
def lint_targets():
    """Every registered platform plus every platform spec under ``examples/specs``."""
    from repro.platform.registry import platform_by_name, platform_names
    from repro.platform.serialize import load_spec_dict
    from repro.platform.spec import PlatformSpec

    specs = [platform_by_name(name) for name in platform_names()]
    for path in sorted((common.ROOT / "examples" / "specs").glob("*")):
        data = load_spec_dict(str(path))
        if "ips" in data:  # campaign specs have no IPs and are not linted
            specs.append(PlatformSpec.from_dict(data))
    return specs


def pin_fuzz_inputs() -> None:
    """Make Hypothesis' generated platforms depend on the fuzz seed alone.

    Hypothesis mixes literal constants mined from every imported non-library
    module into its draws, so the platforms one seed generates would change
    with any constant edited under ``src/`` and with which modules a process
    happened to import first.  The benchmark turns that mining off, keeping
    the inputs (and the digests pinned in ``reference.json``) fixed.
    """
    from hypothesis.internal.conjecture import providers
    from hypothesis.internal.constants_ast import Constants

    empty = Constants()
    providers._get_local_constants = lambda: empty
    providers.CONSTANTS_CACHE.cache.clear()


def location_free(text: str) -> str:
    """``text`` with the checkout's path replaced, so digests match in any checkout.

    An oracle that skips says why, and the reason for the native backend's
    absence quotes the path of the module it failed to import from.
    """
    return text.replace(str(common.ROOT), "<checkout>")


def stratified_fuzz_seeds(seed: int, batches: int) -> List[int]:
    """One vetted fuzz seed per cost stratum of the pool, chosen by ``seed``.

    The pool (``fuzz_pool.json``) holds Hypothesis seeds on which every
    oracle agrees, with their measured cost.  Taking one seed from each of
    ``batches`` equal cost strata keeps the cost mix of a unit alike across
    workload seeds, so throughput differences between seeds stay small.
    """
    pool = sorted(common.load_json("fuzz_pool.json")["green"], key=lambda entry: entry["cost_s"])
    rng = random.Random(seed)
    size = len(pool) // batches
    return [pool[index * size + rng.randrange(size)]["seed"] for index in range(batches)]


class Verify:
    """Differential fuzz batches plus reach-lint sweeps."""

    name = "verify"
    batches = 12
    sweeps = 6

    def __init__(self, seed: int, batches: Optional[int] = None,
                 sweeps: Optional[int] = None) -> None:
        pin_fuzz_inputs()
        self.batches = batches or type(self).batches
        self.sweeps = sweeps or type(self).sweeps
        self.fuzz_seeds = stratified_fuzz_seeds(seed, self.batches)
        self.examples = common.load_json("fuzz_pool.json")["examples"]
        self.specs = lint_targets()
        self.warm_seeds = stratified_fuzz_seeds(common.DEFAULT_SEED, 2)

    def warmup(self) -> UnitResult:
        return self._run(self.warm_seeds, 1)

    def unit(self, in_process: bool = True) -> UnitResult:
        return self._run(self.fuzz_seeds, self.sweeps)

    def _run(self, fuzz_seeds: List[int], sweeps: int) -> UnitResult:
        import repro.lint
        from repro.experiments import differential
        from repro.fuzz import harness

        result = UnitResult()
        outcomes: List[Any] = []
        simulated = [0.0, 0.0]  # kcycles, host seconds of the current batch
        fuzz_runs = 0
        lint_specs = 0
        original_run_scenario = differential.run_scenario
        original_run_differential = harness.run_differential

        def counted_run_scenario(*args, **kwargs):
            start = time.perf_counter()
            artifacts = original_run_scenario(*args, **kwargs)
            simulated[0] += artifacts.cycles_simulated() / 1e3
            simulated[1] += time.perf_counter() - start
            return artifacts

        def captured_run_differential(*args, **kwargs):
            outcome = original_run_differential(*args, **kwargs)
            outcomes.append(outcome)
            return outcome

        differential.run_scenario = counted_run_scenario
        harness.run_differential = captured_run_differential
        try:
            for fuzz_seed in fuzz_seeds:
                simulated[:] = [0.0, 0.0]
                report, elapsed, scale = common.timed(
                    lambda: harness.run_fuzz(examples=self.examples, seed=fuzz_seed))
                result.fuzz_s += elapsed
                result.fuzz_rates.append(report.runs / elapsed * scale)
                result.sim_rates.append(simulated[0] / simulated[1] * scale)
                fuzz_runs += report.runs
        finally:
            differential.run_scenario = original_run_scenario
            harness.run_differential = original_run_differential
        sweep_findings = []
        for _ in range(sweeps):
            reports, elapsed, scale = common.timed(
                lambda: [repro.lint.lint_spec(spec, reach=True) for spec in self.specs])
            result.lint_rates.append(len(reports) / elapsed * scale)
            lint_specs += len(reports)
            sweep_findings.append([
                [report.subject, [[f.code, f.severity.value, f.path] for f in report.findings]]
                for report in reports
            ])
        findings = sweep_findings[0]
        result.attempted = fuzz_runs + lint_specs
        result.failed = sum(1 for outcome in outcomes if not outcome.ok)
        result.problems = [
            f"fuzz spec {outcome.spec_hash}: "
            + "; ".join(f"{v.oracle}: {v.detail}" for v in outcome.failures)
            for outcome in outcomes if not outcome.ok
        ]
        # a sweep that disagrees with the first counts its specs as failed
        disagreeing = sum(1 for other in sweep_findings if other != findings)
        result.failed += disagreeing * len(self.specs)
        if disagreeing:
            result.problems.append(f"{disagreeing} lint sweeps disagree with the first")
        result.jobs = result.attempted - result.failed
        verdicts = [verdict for outcome in outcomes for verdict in outcome.verdicts]
        skips = sum(1 for verdict in verdicts if verdict.status == "skip")
        result.counts = {
            "fuzz.runs": float(fuzz_runs),
            "experiments.verdicts": float(len(verdicts)),
            "experiments.skips": float(skips),
        }
        result.digest = common.digest({
            "runs": fuzz_runs,
            "results": [
                [outcome.spec_hash,
                 [[v.oracle, v.status, location_free(v.detail)] for v in outcome.verdicts]]
                for outcome in outcomes
            ],
            "lint": findings,
        })
        return result


#: The fixed-input verify unit (one fuzz batch, two lint sweeps) every other
#: workload repeats after its main loop, so ``examples_per_s`` and
#: ``lint_specs_per_s`` exist on every workload.  Repeating one small unit
#: gives many like samples for the medians.
PROBE_SEED = 1


def make_probe() -> Verify:
    return Verify(PROBE_SEED, batches=1, sweeps=2)


WORKLOADS: Dict[str, Callable[[int], Any]] = {
    "campaign-grid": CampaignGrid,
    "soc-busy": SocBusy,
    "soc-idle": SocIdle,
    "verify": Verify,
}
