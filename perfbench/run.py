"""repro-dpm benchmark: one workload, timed end to end or traced per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload soc-busy --seed 3 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics untraced, at nominal host
speed (see ``perfbench/README.md``); ``--trace 1`` adds a traced run and
reports the per-layer metrics instead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The benchmark
exits with code 2, printing no result, when the checkout has no program
sources.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from statistics import median
from typing import Any, Callable, Dict, List, Optional

import common

#: share of ``--seconds`` given to the main loop; the rest runs the verify probe
MAIN_SHARE = 0.75
#: fresh-interpreter set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 5
#: why operations failed, printed on standard error after the run
PROBLEMS: List[str] = []


class Tally:
    """Sums of the unit results of one loop, plus the correctness checks."""

    def __init__(self, reference: Optional[str] = None) -> None:
        self.units = 0
        self.wall_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        #: ok operations per wall second of each unit
        self.job_rates: List[float] = []
        self.sim_rates: List[float] = []
        self.fuzz_rates: List[float] = []
        self.fuzz_s = 0.0
        self.lint_rates: List[float] = []
        #: host-speed factor of each unit (see ``common.timed``)
        self.scales: List[float] = []
        self.first: Any = None
        self.times: Dict[str, float] = {}
        #: digest the first unit must reproduce (None: no reference for it)
        self.reference = reference

    def add(self, result, wall_s: float, scale: float) -> None:
        expected = self.reference if self.first is None else self.first.digest
        if self.first is None:
            self.first = result
        if expected is not None and result.digest != expected:
            self.mismatches += 1
            PROBLEMS.append(f"unit {self.units + 1}: digest {result.digest[:16]} "
                            f"!= expected {expected[:16]}")
        PROBLEMS.extend(f"unit {self.units + 1}: {line}" for line in result.problems)
        self.units += 1
        self.wall_s += wall_s
        self.attempted += result.attempted
        self.failed += result.failed
        self.scales.append(scale)
        self.job_rates.append(result.jobs / wall_s * scale)
        self.sim_rates += result.sim_rates
        self.fuzz_rates += result.fuzz_rates
        self.fuzz_s += result.fuzz_s
        self.lint_rates += result.lint_rates
        for key, value in result.times.items():
            self.times[key] = self.times.get(key, 0.0) + value

    def run(self, unit: Callable[[], Any], budget_s: float) -> "Tally":
        """Closed loop: run ``unit`` until ``budget_s`` has elapsed (at least once).

        Units report their rates at nominal host speed already; the unit's
        own wall time is brought there with the factor ``common.timed`` gives.
        """
        deadline = time.perf_counter() + budget_s
        while True:
            result, wall_s, scale = common.timed(unit)
            self.add(result, wall_s, scale)
            if time.perf_counter() >= deadline:
                return self

    @property
    def bad(self) -> int:
        return self.failed + self.mismatches


def peak_rss_mb() -> float:
    """Peak RSS of this process or any waited-for child (pool workers), MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def setup_command(workload: str, seed: int, importtime: bool = False) -> List[str]:
    command = [sys.executable]
    if importtime:
        command += ["-X", "importtime"]
    command += [str(common.BENCH_DIR / "run.py"), "--setup-child",
                "--workload", workload, "--seed", str(seed)]
    return command


def time_setup(workload: str, seed: int) -> float:
    """Fresh interpreter -> imports, inputs generated, one warm-up unit done.

    Returned at nominal host speed, like every host-time metric.
    """
    def until_ready() -> float:
        start = time.perf_counter()
        with subprocess.Popen(setup_command(workload, seed), stdout=subprocess.PIPE,
                              cwd=common.ROOT, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe of {workload} failed (exit {child.returncode})")
        return elapsed

    elapsed, _, scale = common.timed(until_ready)
    return elapsed / scale


def import_breakdown(workload: str, seed: int) -> Dict[str, float]:
    """Self import time per top-level package, from ``python -X importtime``."""
    completed = subprocess.run(setup_command(workload, seed, importtime=True),
                               cwd=common.ROOT, capture_output=True, text=True, check=True)
    totals: Dict[str, float] = {}
    for line in completed.stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        package = fields[2].strip().split(".")[0]
        totals[package] = totals.get(package, 0.0) + int(fields[0]) / 1e6
    return totals


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ----------------------------------------------------------------------
def measure(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    from workloads import WORKLOADS, make_probe, paper_table2, table2_err_pp

    reference = common.load_json("reference.json")
    expected = reference.get(name, {})
    workload = WORKLOADS[name](seed)
    deadline = time.perf_counter() + seconds
    warm = Tally(expected.get("warmup", "missing")).run(workload.warmup, 0.0)
    main = Tally(expected.get("default_seed_unit") if seed == common.DEFAULT_SEED else None)
    main.run(workload.unit, 0.0)
    # The first unit reaches the workload's peak; later units repeat it.
    rss = peak_rss_mb()
    tallies = [warm, main]
    rates = main
    if name == "verify":
        main.run(workload.unit, deadline - time.perf_counter())
    else:
        # Probe units interleave with main units, so both sample the same
        # stretch of host time; the probe gets a (1 - MAIN_SHARE) share of it.
        probe = make_probe()
        tallies.append(Tally(reference["probe"]["warmup"]).run(probe.warmup, 0.0))
        rates = Tally(reference["probe"]["unit"])
        tallies.append(rates)
        while time.perf_counter() < deadline or not rates.units:
            if rates.wall_s < main.wall_s * (1 - MAIN_SHARE) / MAIN_SHARE:
                rates.run(probe.unit, 0.0)
            else:
                main.run(workload.unit, 0.0)

    direct = paper_table2()
    rows = main.first.table2 or direct
    table2_failed = int(rows != direct)
    if table2_failed:
        PROBLEMS.append("campaign paper rows differ from a direct run_comparison")
    setups = [time_setup(name, seed) for _ in range(SETUP_REPEATS)]

    attempted = sum(t.attempted for t in tallies) + len(direct)
    failed = sum(t.bad for t in tallies) + table2_failed
    metrics = {
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (rss, "MiB"),
        "jobs_per_s": (median(main.job_rates), "1/s"),
        "sim_kcycles_per_s": (median(main.sim_rates), "kcycle/s"),
        "examples_per_s": (median(rates.fuzz_rates), "1/s"),
        "lint_specs_per_s": (median(rates.lint_rates), "1/s"),
        "table2_err_pp": (table2_err_pp(rows), "pp"),
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "detail": {"units": main.units, "setups_s": setups,
                       "host_scale": median(main.scales)}}


# ----------------------------------------------------------------------
# --trace 1: per-layer metrics
# ----------------------------------------------------------------------
def trace(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    from tracing import ORACLES, PACKAGES, Tracer
    from workloads import WORKLOADS, PoolHooks

    reference = common.load_json("reference.json")
    expected = reference.get(name, {})
    workload = WORKLOADS[name](seed)
    start = time.perf_counter()
    warm = Tally(expected.get("warmup", "missing")).run(workload.warmup, 0.0)
    warmup_s = time.perf_counter() - start
    tallies = [warm]

    pooled = None
    if name == "campaign-grid":
        # Pool-level figures come from the timed configuration (a worker pool).
        hooks = PoolHooks()
        hooks.install()
        try:
            pooled = Tally().run(workload.unit, seconds * 0.3)
        finally:
            hooks.remove()
        tallies.append(pooled)
    # The traced run executes in-process; its untraced twin is the overhead base.
    base = Tally().run(lambda: workload.unit(in_process=True), seconds * 0.2)
    tallies.append(base)

    tracer = Tracer()
    tracer.install()
    traced = Tally()
    tracer.outer.enable()
    try:
        traced.run(lambda: workload.unit(in_process=True), seconds * 0.4)
    finally:
        tracer.outer.disable()
        tracer.remove()
    tallies.append(traced)
    # Pool, in-process and traced runs must all simulate the same results.
    configurations_apart = len({t.first.digest for t in tallies[1:]}) - 1
    traced.mismatches += configurations_apart
    if configurations_apart:
        PROBLEMS.append("pool, in-process and traced runs simulate different results")

    imports = import_breakdown(name, seed)
    units = traced.units
    per = lambda value: value / units  # noqa: E731 - per traced unit
    outer = Tracer.self_times(tracer.outer)
    inner = Tracer.self_times(tracer.inner)
    self_s = {key: outer.get(key, 0.0) + inner.get(key, 0.0) for key in set(outer) | set(inner)}
    counts = dict(traced.first.counts)
    counts.update({key: per(value) for key, value in tracer.counts.items()})
    count = lambda key: counts.get(key, 0.0)  # noqa: E731
    deepcopies = sum(Tracer.call_count(profile, "/copy.py", "deepcopy")
                     for profile in (tracer.outer, tracer.inner))
    simulate_s = tracer.total("simulate")

    metrics: Dict[str, Any] = {
        "import.repro_s": (imports.get("repro", 0.0), "s"),
        "import.numpy_s": (imports.get("numpy", 0.0), "s"),
        "import.hypothesis_s": (imports.get("hypothesis", 0.0), "s"),
        "warmup_s": (warmup_s, "s"),
        "phase.resolve_s": (per(tracer.total("resolve")), "s"),
        "phase.build_s": (per(tracer.total("build")), "s"),
        "phase.simulate_s": (per(simulate_s), "s"),
        "phase.reduce_s": (per(tracer.total("reduce")), "s"),
        "platform.deepcopy_calls": (per(deepcopies), "count"),
        "soc.sample_windows": (count("soc.sample_windows"), "count"),
        "soc.bus.transfers": (count("soc.bus.transfers"), "count"),
        "soc.bus.occupancy_pct": (
            100.0 * ratio(count("soc.bus.busy_fs"), count("soc.bus.simulated_fs")), "%"),
        "soc.bus.wait_us_mean": (
            ratio(count("soc.bus.wait_fs"), count("soc.bus.grants")) / 1e9, "us"),
        "soc.bus.cancelled": (count("soc.bus.cancelled"), "count"),
        "sim.activations": (count("sim.activations"), "count"),
        "sim.delta_cycles": (count("sim.delta_cycles"), "count"),
        "sim.timed_notifications": (count("sim.timed_notifications"), "count"),
        "sim.time_advances": (count("sim.time_advances"), "count"),
        "sim.self_us_per_activation": (
            1e6 * ratio(per(self_s.get("sim", 0.0)), count("sim.activations")), "us"),
        "power.transitions": (count("power.transitions"), "count"),
        "dpm.lem_decisions": (count("dpm.lem_decisions"), "count"),
        "dpm.lem_deferrals": (count("dpm.lem_deferrals"), "count"),
        "dpm.deferrals_per_decision": (
            ratio(count("dpm.lem_deferrals"), count("dpm.lem_decisions")), "ratio"),
        "dpm.sleep_decisions": (count("dpm.sleep_decisions"), "count"),
        "fuzz.runs": (count("fuzz.runs"), "count"),
        "fuzz.generate_s": (per(traced.fuzz_s - tracer.total("differential")), "s"),
        "lint.reach_s": (per(tracer.total("lint.reach")), "s"),
        "experiments.oracle_skip_frac": (
            ratio(count("experiments.skips"), count("experiments.verdicts")), "ratio"),
    }
    for package in PACKAGES:
        metrics[f"{package}.self_s"] = (per(self_s.get(package, 0.0)), "s")
    for bucket in ("hypothesis", "stdlib", "builtins", "other"):
        metrics[f"{bucket}.self_s"] = (per(self_s.get(bucket, 0.0)), "s")
    for oracle in ORACLES:
        metrics[f"experiments.oracle_s.{oracle}"] = (per(tracer.total(f"oracle.{oracle}")), "s")

    campaign = {key: 0.0 for key in (
        "pool_start_s", "result_wait_s", "worker_busy_frac", "store_put_s", "report_s")}
    if pooled is not None:
        n = pooled.units
        times = pooled.times
        pool_wall = times["campaign.wall_s"] - hooks.pool_start_s
        campaign.update({
            "pool_start_s": hooks.pool_start_s / n,
            "store_put_s": hooks.store_put_s / n,
            "result_wait_s": (pool_wall - hooks.store_put_s) / n,
            "worker_busy_frac": ratio(times["campaign.worker_busy_s"],
                                      times["campaign.workers"] / n * pool_wall),
            "report_s": times["campaign.report_s"] / n,
        })
    for key, value in campaign.items():
        metrics[f"campaign.{key}"] = (value, "ratio" if key.endswith("frac") else "s")
    metrics["campaign.store_puts"] = (count("campaign.store_puts"), "count")
    metrics["campaign.baseline_runs"] = (count("campaign.baseline_runs"), "count")
    metrics["campaign.baseline_reuse_frac"] = (count("campaign.baseline_reuse_frac"), "ratio")

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.bad for t in tallies)
    metrics["failed_frac"] = (ratio(failed, attempted), "ratio")
    metrics["ops_attempted"] = (float(attempted), "count")
    metrics["trace.overhead_frac"] = (
        ratio(traced.wall_s / traced.units, base.wall_s / base.units) - 1.0, "ratio")
    metrics["trace.simulate_attributed_frac"] = (ratio(sum(inner.values()), simulate_s), "ratio")
    metrics["host.reference_ms"] = (
        1e3 * common.NOMINAL_REFERENCE_S * median(base.scales), "ms")

    common.write_json(common.OUT / f"trace-{name}-seed{seed}.json", {
        "workload": name, "seed": seed, "traced_units": units,
        "metrics": {key: value for key, (value, _) in metrics.items()},
        **tracer.dump(),
    })
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "detail": {"traced_units": units, "base_units": base.units}}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["campaign-grid", "soc-busy", "soc-idle", "verify"])
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        common.prepare_environment()
    except common.MissingProgram as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.setup_child:
        from workloads import WORKLOADS

        WORKLOADS[args.workload](args.seed).warmup()
        print("ready", flush=True)
        return 0

    run = trace if args.trace else measure
    outcome = run(args.workload, args.seed, args.seconds)
    metrics = {
        key: {"value": float(value), "unit": unit}
        for key, (value, unit) in outcome["metrics"].items()
    }
    print(json.dumps({"workload": args.workload, "seed": args.seed, **outcome["detail"]}),
          file=sys.stderr)
    for line in PROBLEMS[:20]:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
