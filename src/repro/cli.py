"""Command-line interface: ``repro-dpm`` (or ``python -m repro``).

Subcommands
-----------

``table2``
    Reproduce the paper's Table 2 (all rows or a subset) and print the
    measured values next to the paper's.
``scenario``
    Run a single scenario under a chosen DPM setup and print the detailed
    per-IP results.
``rules``
    Print the Table-1 rule table, evaluate it for one input combination, or
    trace a first-match decision (``--explain P B T [BUS]``, ``--spec`` to
    use a platform's custom table).
``sweep``
    Run the battery x temperature condition sweep.
``speed``
    Measure the simulation speed (the paper's Kcycle/s figure).
``breakeven``
    Print the break-even times of the default IP characterisation.
``campaign``
    Run, inspect or report a parallel experiment campaign described by a
    JSON/TOML spec file (see :mod:`repro.campaign`).
``platform``
    Validate, inspect, diff, list or run declarative platform specs —
    user-defined SoCs as JSON/TOML files (see :mod:`repro.platform`).
``lint``
    Static analysis of platform specs (rule-table structure, PSM
    reachability, policy knobs, bus saturation, workload feasibility) and,
    with ``--self``, the determinism self-check over the library's own
    sources (see :mod:`repro.lint`).  Exit 0 clean / 1 findings / 2 bad
    input.

Run-style subcommands (``scenario``, ``platform run``) accept
``--trace [FORMAT]``/``--trace-format``/``--trace-out`` to record a
structured event trace of the DPM run (see :mod:`repro.obs`);
``campaign run --trace`` stores one trace per job next to the records.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import __version__
from repro.analysis.report import format_table, render_comparison
from repro.battery.status import BatteryLevel
from repro.dpm.controller import DpmSetup
from repro.dpm.rules import paper_rule_table
from repro.power.breakeven import BreakEvenAnalyzer
from repro.power.characterization import default_characterization
from repro.power.transitions import default_transition_table
from repro.sim.simtime import ms
from repro.soc.bus import BusLevel
from repro.soc.task import TaskPriority
from repro.thermal.level import TemperatureLevel

__all__ = ["main", "build_parser"]

_SETUPS = {
    "paper": DpmSetup.paper,
    "always-on": DpmSetup.always_on,
    "greedy-sleep": DpmSetup.greedy_sleep,
    "oracle": DpmSetup.oracle,
    "fixed-timeout": lambda: DpmSetup.fixed_timeout(ms(2)),
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-dpm",
        description=(
            "Reproduction of 'SystemC Analysis of a New Dynamic Power Management "
            "Architecture' (DATE 2005): ACPI-style PSMs, local/global energy "
            "managers, battery and thermal models on a discrete-event kernel."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command")

    def add_accuracy_flag(sub) -> None:
        sub.add_argument(
            "--accuracy",
            choices=["exact", "fast"],
            default="exact",
            help="accuracy mode: 'exact' (bit-identical reference) or 'fast' "
            "(toleranced fast math; see README 'Accuracy modes')",
        )

    def add_backend_flag(sub) -> None:
        sub.add_argument(
            "--backend",
            choices=["python", "native", "auto"],
            default=None,
            help="simulation kernel backend: 'python' (pure Python), 'native' "
            "(compiled event heap; falls back to python with a notice when "
            "the extension is not built) or 'auto' (native when available); "
            "default: the REPRO_SIM_BACKEND environment variable, else python",
        )

    def add_trace_flags(sub) -> None:
        sub.add_argument(
            "--trace",
            nargs="?",
            const="jsonl",
            default=None,
            choices=["jsonl", "perfetto", "vcd"],
            metavar="FORMAT",
            help="trace the DPM run (jsonl, perfetto or vcd; bare --trace "
            "means jsonl); overrides the spec's trace section",
        )
        sub.add_argument(
            "--trace-format",
            choices=["jsonl", "perfetto", "vcd"],
            default=None,
            help="trace format (implies --trace; wins over --trace FORMAT)",
        )
        sub.add_argument(
            "--trace-out",
            default=None,
            metavar="FILE",
            help="trace output file (default: <scenario>_trace.<ext>)",
        )

    table2 = subparsers.add_parser("table2", help="reproduce the paper's Table 2")
    table2.add_argument(
        "scenarios",
        nargs="*",
        help="subset of rows to run (A1 A2 A3 A4 B C); default: all",
    )
    table2.add_argument(
        "--setup",
        choices=sorted(_SETUPS),
        default="paper",
        help="DPM configuration to evaluate against the always-on baseline",
    )
    add_accuracy_flag(table2)

    scenario = subparsers.add_parser("scenario", help="run one scenario in detail")
    scenario.add_argument(
        "name", help="scenario id (A1..A4, B, C) or a registered platform name"
    )
    scenario.add_argument(
        "--setup", choices=sorted(_SETUPS), default=None,
        help="DPM setup to evaluate (default: the platform's policy, else 'paper')",
    )
    add_accuracy_flag(scenario)
    add_backend_flag(scenario)
    add_trace_flags(scenario)

    rules = subparsers.add_parser("rules", help="print or query the Table-1 rules")
    rules.add_argument("--priority", choices=[p.value for p in TaskPriority])
    rules.add_argument("--battery", choices=[b.value for b in BatteryLevel])
    rules.add_argument("--temperature", choices=[t.value for t in TemperatureLevel])
    rules.add_argument("--bus", choices=[b.value for b in BusLevel],
                       help="bus occupation level (default: low)")
    rules.add_argument(
        "--explain", nargs="+", metavar="LEVEL",
        help="first-match trace for PRIORITY BATTERY TEMPERATURE [BUS]: "
             "print which rule matched and why every earlier rule was skipped",
    )
    rules.add_argument(
        "--spec", metavar="SPEC",
        help="spec file or registered platform name whose rule table to use "
             "(default: the paper's Table 1)",
    )

    lint = subparsers.add_parser(
        "lint",
        help="static analysis of platform specs (rules/psm/policy/bus/workload)",
    )
    lint.add_argument(
        "specs", nargs="*", metavar="SPEC",
        help="spec files or registered platform names "
             "(default: every registered platform)",
    )
    lint.add_argument(
        "--self", dest="self_check", action="store_true",
        help="run the determinism AST lint over the installed repro package",
    )
    lint.add_argument(
        "--strict", action="store_true",
        help="exit 1 on info-level findings too",
    )
    lint.add_argument(
        "--reach", action="store_true",
        help="attach the trajectory reachability envelope: uncovered rules "
             "the dynamics can never reach downgrade to info, and "
             "trajectory-dead rules/thresholds are reported",
    )

    reach = subparsers.add_parser(
        "reach",
        help="interval abstract interpretation of a platform's trajectory: "
             "reachable battery/thermal/bus levels with entry-time bounds",
    )
    reach.add_argument(
        "spec", metavar="SPEC",
        help="spec file or registered platform name",
    )

    sweep = subparsers.add_parser("sweep", help="battery x temperature condition sweep")
    sweep.add_argument("--tasks", type=int, default=20, help="tasks per scenario")

    speed = subparsers.add_parser("speed", help="measure simulation speed (Kcycle/s)")
    add_accuracy_flag(speed)
    add_backend_flag(speed)

    subparsers.add_parser("breakeven", help="break-even times of the default IP")

    report = subparsers.add_parser(
        "report", help="write a markdown reproduction report (Table 2 + breakdowns)"
    )
    report.add_argument("scenarios", nargs="*", help="subset of rows; default: all")
    report.add_argument("-o", "--output", default=None, help="output file (default: stdout)")
    report.add_argument("--with-speed", action="store_true", help="include the Kcycle/s figure")

    campaign = subparsers.add_parser(
        "campaign", help="run/inspect/report a parallel experiment campaign"
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command")

    campaign_run = campaign_sub.add_parser(
        "run", help="execute a campaign grid described by a JSON/TOML spec file"
    )
    campaign_run.add_argument("spec", help="campaign spec file (.json or .toml)")
    campaign_run.add_argument(
        "--dir", dest="directory", default=None,
        help="campaign directory (default: campaigns/<name>)",
    )
    campaign_run.add_argument(
        "--workers", type=int, default=1, help="worker processes (default: 1)"
    )
    campaign_run.add_argument(
        "--resume", action="store_true",
        help="skip jobs that already have a stored result",
    )
    campaign_run.add_argument(
        "--timeout", type=float, default=None, help="per-job timeout in seconds"
    )
    campaign_run.add_argument(
        "--quiet", action="store_true", help="do not print per-job progress lines"
    )
    campaign_run.add_argument(
        "--accuracy",
        choices=["exact", "fast"],
        default=None,
        help="override the spec's accuracy mode for every job",
    )
    campaign_run.add_argument(
        "--trace",
        nargs="?",
        const="jsonl",
        default=None,
        choices=["jsonl", "perfetto"],
        metavar="FORMAT",
        help="trace every job's DPM run; per-job files land in the campaign "
        "directory's traces/ folder (bare --trace means jsonl)",
    )
    campaign_run.add_argument(
        "--no-preflight", action="store_true",
        help="skip the reach-lint preflight of the grid's platform specs "
        "(by default, error-severity findings abort before any job runs)",
    )

    campaign_status_p = campaign_sub.add_parser(
        "status", help="show done/failed/missing/corrupt jobs of a campaign directory"
    )
    campaign_status_p.add_argument("directory", help="campaign directory")

    campaign_report = campaign_sub.add_parser(
        "report", help="render the aggregate report of a campaign directory"
    )
    campaign_report.add_argument("directory", help="campaign directory")
    campaign_report.add_argument(
        "-o", "--output", default=None, help="output file (default: stdout)"
    )

    platform = subparsers.add_parser(
        "platform", help="validate/show/run declarative platform specs"
    )
    platform_sub = platform.add_subparsers(dest="platform_command")

    def add_spec_source(sub, required: bool = True) -> None:
        group = sub.add_mutually_exclusive_group(required=required)
        group.add_argument(
            "--spec", default=None, metavar="FILE",
            help="platform spec file (.json or .toml)",
        )
        group.add_argument(
            "--name", default=None,
            help="name of a registered platform (A1..C or custom)",
        )

    platform_validate = platform_sub.add_parser(
        "validate", help="validate spec files (platform or campaign; exit 1 on errors)"
    )
    platform_validate.add_argument(
        "specs", nargs="+", metavar="FILE", help="spec files (.json or .toml)"
    )

    platform_show = platform_sub.add_parser(
        "show", help="print a human-readable summary of one platform"
    )
    add_spec_source(platform_show)
    platform_show.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the canonical JSON spec instead of the summary",
    )

    platform_run = platform_sub.add_parser(
        "run", help="run one platform end-to-end (DPM vs baseline) and print metrics"
    )
    add_spec_source(platform_run)
    platform_run.add_argument(
        "--setup", choices=sorted(_SETUPS), default=None,
        help="DPM setup to evaluate (default: the spec's policy, else 'paper')",
    )
    add_accuracy_flag(platform_run)
    add_backend_flag(platform_run)
    add_trace_flags(platform_run)

    platform_diff = platform_sub.add_parser(
        "diff", help="compare two platform specs field by field (exit 1 when they differ)"
    )
    platform_diff.add_argument(
        "spec_a", metavar="SPEC_A",
        help="first spec: a .json/.toml file or a registered platform name",
    )
    platform_diff.add_argument(
        "spec_b", metavar="SPEC_B",
        help="second spec: a .json/.toml file or a registered platform name",
    )

    platform_sub.add_parser("list", help="list the registered platform names")

    fuzz = subparsers.add_parser(
        "fuzz", help="differential fuzzing: generated platforms vs cross-axis oracles"
    )
    fuzz_sub = fuzz.add_subparsers(dest="fuzz_command")

    def add_oracle_flag(sub) -> None:
        sub.add_argument(
            "--oracles", default=None, metavar="NAMES",
            help="comma-separated oracle subset (exact_vs_fast, backend_parity, "
            "bus_timing, policy, structural); default: all",
        )

    fuzz_run = fuzz_sub.add_parser(
        "run", help="fuzz generated platforms through the differential oracles"
    )
    fuzz_run.add_argument(
        "--examples", type=int, default=100, metavar="N",
        help="number of generated platforms (default 100)",
    )
    fuzz_run.add_argument(
        "--seed", type=int, default=0,
        help="generation seed; the whole run (examples, shrinking, saved "
        "failure) is reproducible from it (default 0)",
    )
    fuzz_run.add_argument(
        "--corpus", default=None, metavar="DIR",
        help="corpus directory for shrunk failures "
        "(default tests/fuzz/corpus; 'none' disables saving)",
    )
    add_oracle_flag(fuzz_run)
    add_backend_flag(fuzz_run)

    fuzz_replay = fuzz_sub.add_parser(
        "replay", help="replay corpus entries (spec files, directories or hash prefixes)"
    )
    fuzz_replay.add_argument(
        "targets", nargs="*", metavar="TARGET",
        help="spec file, directory, or corpus hash prefix "
        "(default: the whole tests/fuzz/corpus directory)",
    )
    fuzz_replay.add_argument(
        "--corpus", default=None, metavar="DIR",
        help="corpus directory hash prefixes resolve against "
        "(default tests/fuzz/corpus)",
    )
    add_oracle_flag(fuzz_replay)
    add_backend_flag(fuzz_replay)

    fuzz_minimize = fuzz_sub.add_parser(
        "minimize", help="delta-debug a failing spec down to a minimal repro"
    )
    fuzz_minimize.add_argument(
        "spec", metavar="FILE", help="platform spec file that currently fails an oracle"
    )
    fuzz_minimize.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the minimized spec here (default: print its JSON)",
    )
    add_oracle_flag(fuzz_minimize)
    add_backend_flag(fuzz_minimize)

    return parser


def _cmd_table2(args) -> int:
    from repro.experiments.table2 import reproduce_table2

    results = reproduce_table2(
        args.scenarios or None, dpm=_SETUPS[args.setup](), accuracy=args.accuracy
    )
    print(render_comparison(results))
    return 0


def _cmd_scenario(args) -> int:
    from repro.experiments.runner import _as_scenario

    return _run_platform(args, _as_scenario(args.name))


def _run_platform(args, spec) -> int:
    """Body of ``scenario NAME`` and ``platform run``: one detailed comparison."""
    from repro.experiments.runner import run_comparison

    # None defers to the platform's own policy (when it declares one).
    setup = None if args.setup is None else _SETUPS[args.setup]()
    request = _trace_request(args, spec)
    metrics = run_comparison(
        spec, dpm=setup, accuracy=args.accuracy,
        trace=request if request is not None else False,
        backend=args.backend,
    )
    setup_name = args.setup or _default_setup_name(spec)
    _print_comparison(spec, setup_name, args.accuracy, metrics,
                      backend_note=_backend_note(args.backend))
    if request is not None:
        print(f"\ntrace written to {request.resolve_path(spec.name)}")
    return 0


def _trace_request(args, spec):
    """The effective trace request of one CLI run (None when untraced).

    Explicit ``--trace``/``--trace-format`` flags win; without them the
    platform spec's ``trace:`` section applies.
    """
    from repro.obs import TraceRequest

    fmt = getattr(args, "trace_format", None) or getattr(args, "trace", None)
    if fmt is not None:
        return TraceRequest(format=fmt, path=getattr(args, "trace_out", None))
    request = TraceRequest.from_trace_def(spec.trace)
    out = getattr(args, "trace_out", None)
    if request is not None and out is not None:
        request = TraceRequest(format=request.format, path=out,
                               events=request.events)
    return request


def _default_setup_name(spec) -> str:
    return spec.policy.name if spec.policy is not None else "paper"


def _backend_note(requested) -> str:
    """Human-readable resolved backend, e.g. ``python`` or
    ``python (requested native: extension not built ...)``."""
    from repro.sim.native import resolve_backend

    return resolve_backend(requested).describe()


def _print_comparison(spec, setup_name: str, accuracy: str, metrics,
                      backend_note: str = "python") -> None:
    description = spec.description or (
        f"platform {spec.name!r} ({len(spec.ips)} IPs"
        f"{', GEM' if spec.gem.enabled else ''})"
    )
    print(f"Scenario {spec.name}: {description}")
    print(f"DPM setup: {setup_name} (accuracy: {accuracy}, backend: {backend_note})\n")
    rows = [
        ["energy saving (%)", f"{metrics.energy_saving_pct:.1f}"],
        ["temperature reduction (%)", f"{metrics.temperature_reduction_pct:.1f}"],
        ["average delay overhead (%)", f"{metrics.average_delay_overhead_pct:.1f}"],
        ["tasks executed", str(metrics.tasks_executed)],
        ["simulated time (ms)", f"{metrics.simulated_time_s * 1e3:.1f}"],
        ["DPM energy (mJ)", f"{metrics.dpm_energy_j * 1e3:.2f}"],
        ["baseline energy (mJ)", f"{metrics.baseline_energy_j * 1e3:.2f}"],
    ]
    if metrics.has_bus_figures:
        rows.extend([
            ["bus occupancy (%)", f"{metrics.bus_occupancy_pct:.1f}"],
            ["bus transfers", str(metrics.bus_transfer_count)],
            ["bus words moved", str(metrics.bus_words_transferred)],
            ["bus average wait (us)", f"{metrics.bus_average_wait_us:.1f}"],
        ])
        if metrics.bus_cancelled_count:
            rows.append(["bus cancelled requests", str(metrics.bus_cancelled_count)])
    print(format_table(["metric", "value"], rows))
    if metrics.per_ip:
        print("\nPer IP:")
        ip_rows = [
            [name, int(stats["tasks"]), f"{stats['energy_j'] * 1e3:.2f}",
             f"{stats['mean_delay_overhead_pct']:.0f}", int(stats["transitions"])]
            for name, stats in sorted(metrics.per_ip.items())
        ]
        print(format_table(["IP", "tasks", "energy (mJ)", "delay (%)", "transitions"], ip_rows))


def _cmd_rules(args) -> int:
    if args.spec:
        from repro.lint import spec_rule_table

        table = spec_rule_table(_load_spec_or_name(args.spec))
        if table is None:
            print(f"error: {args.spec} uses a non-rule-based policy",
                  file=sys.stderr)
            return 2
    else:
        table = paper_rule_table()
    if args.explain is not None:
        return _explain_rules(table, args.explain)
    if args.priority and args.battery and args.temperature:
        state = table.select_levels(
            TaskPriority(args.priority),
            BatteryLevel(args.battery),
            TemperatureLevel(args.temperature),
            bus=BusLevel(args.bus) if args.bus else BusLevel.LOW,
        )
        rendering = (
            f"priority={args.priority}, battery={args.battery}, "
            f"temperature={args.temperature}"
        )
        if args.bus:
            rendering += f", bus={args.bus}"
        print(f"{rendering} -> {state}")
        return 0
    if args.priority or args.battery or args.temperature:
        print("error: --priority, --battery and --temperature must be given together",
              file=sys.stderr)
        return 2
    print(table.describe())
    return 0


def _explain_rules(table, levels: List[str]) -> int:
    """First-match trace: ``rules --explain PRIORITY BATTERY TEMP [BUS]``."""
    from repro.dpm.levels import RuleContext

    if not 3 <= len(levels) <= 4:
        print("error: --explain takes PRIORITY BATTERY TEMPERATURE [BUS]",
              file=sys.stderr)
        return 2
    try:
        context = RuleContext(
            TaskPriority(levels[0]),
            BatteryLevel(levels[1]),
            TemperatureLevel(levels[2]),
            bus=BusLevel(levels[3]) if len(levels) == 4 else BusLevel.LOW,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    trace = table.explain(context)
    for step in trace:
        print(step.describe())
    winner = trace[-1] if trace and trace[-1].matched else None
    if winner is None:
        print(f"\nno rule matches ({context.describe()})")
        return 1
    print(
        f"\n{context.describe()} -> {winner.rule.state} "
        f"(rule {winner.index}, {len(trace) - 1} earlier rule(s) skipped)"
    )
    return 0


def _cmd_lint(args) -> int:
    from repro.errors import ReproError
    from repro.lint import lint_spec, selfcheck
    from repro.platform import (
        PlatformSpec,
        load_spec_dict,
        platform_by_name,
        platform_names,
    )

    reports = []
    bad_input = 0
    if args.self_check:
        reports.append(selfcheck())
    if args.specs:
        import os

        for target in args.specs:
            try:
                if os.path.exists(target) or target.endswith((".json", ".toml")):
                    data = load_spec_dict(target)
                    if "scenarios" in data or "setups" in data:
                        print(f"{target}: campaign spec, nothing to lint")
                        continue
                    spec = PlatformSpec.from_dict(data)
                else:
                    spec = platform_by_name(target)
            except (ReproError, OSError) as error:
                bad_input += 1
                print(f"error: {target}: {error}", file=sys.stderr)
                continue
            reports.append(lint_spec(spec, reach=args.reach))
    elif not args.self_check:
        for name in platform_names():
            reports.append(lint_spec(platform_by_name(name), reach=args.reach))
    for report in reports:
        print(report.describe())
    if bad_input:
        return 2
    return 0 if all(r.is_clean(strict=args.strict) for r in reports) else 1


def _cmd_reach(args) -> int:
    import os

    from repro.errors import ReproError
    from repro.lint import build_model, compute_reach
    from repro.platform import PlatformSpec, load_spec_dict, platform_by_name

    target = args.spec
    try:
        if os.path.exists(target) or target.endswith((".json", ".toml")):
            spec = PlatformSpec.from_dict(load_spec_dict(target))
        else:
            spec = platform_by_name(target)
        result = compute_reach(build_model(spec))
    except (ReproError, OSError) as error:
        print(f"error: {target}: {error}", file=sys.stderr)
        return 2
    print(result.describe())
    return 0


def _cmd_sweep(args) -> int:
    from repro.experiments.sweep import condition_sweep

    results = condition_sweep(task_count=args.tasks)
    rows = [
        [metrics.scenario, f"{metrics.energy_saving_pct:.1f}",
         f"{metrics.temperature_reduction_pct:.1f}",
         f"{metrics.average_delay_overhead_pct:.1f}"]
        for metrics in results
    ]
    print(
        format_table(
            ["battery/temperature", "energy saving (%)", "temp. reduction (%)", "delay (%)"],
            rows,
            title="Condition sweep (paper DPM vs always-on)",
        )
    )
    return 0


def _cmd_speed(args) -> int:
    from repro.experiments.table2 import simulation_speed, simulation_speed_report

    print(f"backend: {_backend_note(args.backend)} (accuracy: {args.accuracy})")
    print(simulation_speed_report(
        simulation_speed(accuracy=args.accuracy, backend=args.backend)
    ))
    return 0


def _cmd_breakeven(_args) -> int:
    characterization = default_characterization()
    transitions = default_transition_table(
        reference_power_w=characterization.active_power_w(
            characterization.operating_points.fastest.state
        )
    )
    analyzer = BreakEvenAnalyzer(characterization, transitions)
    rows = [
        [str(entry.state),
         f"{entry.round_trip_latency.seconds * 1e6:.0f}",
         f"{entry.round_trip_energy_j * 1e6:.2f}",
         "-" if entry.break_even is None else f"{entry.break_even.seconds * 1e6:.0f}"]
        for entry in analyzer.entries
    ]
    print(format_table(["state", "round trip (us)", "round trip (uJ)", "break-even (us)"], rows))
    return 0


def _cmd_report(args) -> int:
    from repro.analysis.export import markdown_report
    from repro.experiments.table2 import reproduce_table2

    results = reproduce_table2(args.scenarios or None)
    # Each row's DPM run already timed itself: no scenario runs again for speed.
    speeds = (
        {metrics.scenario: metrics.kilocycles_per_second for metrics in results}
        if args.with_speed else None
    )
    text = markdown_report(results, speeds=speeds)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_campaign(args) -> int:
    from repro.errors import ReproError

    try:
        return _cmd_campaign_inner(args)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print(
            "\ninterrupted — finished jobs are stored; "
            "re-run with --resume to complete the campaign",
            file=sys.stderr,
        )
        return 130


def _cmd_campaign_inner(args) -> int:
    import os

    from repro.campaign import (
        CampaignSpec,
        ResultStore,
        campaign_status,
        preflight_campaign,
        render_campaign_report,
        render_status,
        run_campaign,
    )

    if args.campaign_command is None:
        print("error: campaign needs a subcommand (run, status or report)", file=sys.stderr)
        return 2
    if args.campaign_command == "run":
        spec = CampaignSpec.from_file(args.spec)
        if args.accuracy is not None:
            spec.accuracy = args.accuracy
        directory = args.directory or os.path.join("campaigns", spec.name)
        if not args.no_preflight:
            # Lint here (not inside run_campaign) so the per-platform
            # summary lines are printed; errors raise CampaignError and
            # surface through the standard error path with exit code 2.
            for line in preflight_campaign(spec):
                if not args.quiet:
                    print(line)
        progress = None
        if not args.quiet:
            def progress(record):
                print(f"[{record['status']:>7}] {record['label']} "
                      f"({record['wall_clock_s']:.2f} s)")
        summary = run_campaign(
            spec,
            directory,
            workers=args.workers,
            resume=args.resume,
            job_timeout_s=args.timeout,
            progress=progress,
            trace_format=args.trace,
            preflight=False,
        )
        print(
            f"campaign {summary.campaign!r}: {summary.total_jobs} jobs, "
            f"{summary.executed} executed ({summary.ok} ok, {summary.errors} errors, "
            f"{summary.timeouts} timeouts), {summary.skipped} skipped, "
            f"{summary.wall_clock_s:.2f} s"
        )
        print(f"results stored in {directory}")
        failed = summary.errors + summary.timeouts
        return 1 if failed else 0
    store = ResultStore(args.directory)
    if args.campaign_command == "status":
        status = campaign_status(store)
        print(render_status(status))
        return 0 if status["counts"]["missing"] == status["counts"]["corrupt"] == 0 else 1
    # report
    spec = CampaignSpec.from_dict(store.read_manifest())
    # Only the current grid: a re-used directory may hold records of grid
    # cells that a later spec edit removed, which must not skew the means.
    current_ids = {job.job_id for job in spec.jobs()}
    stored = store.records()
    records = [record for record in stored if record.get("job_id") in current_ids]
    stale = len(stored) - len(records)
    if stale:
        print(f"note: ignoring {stale} stored record(s) no longer in the campaign grid",
              file=sys.stderr)
    text = render_campaign_report(records, title=f"Campaign {spec.name!r}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_platform(args) -> int:
    from repro.errors import ReproError

    try:
        return _cmd_platform_inner(args)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _load_platform_arg(args):
    """Resolve the --spec/--name pair into a validated PlatformSpec."""
    from repro.platform import load_platform, platform_by_name

    if args.spec is not None:
        return load_platform(args.spec)
    return platform_by_name(args.name)


def _cmd_platform_inner(args) -> int:
    if args.platform_command is None:
        print("error: platform needs a subcommand (validate, show, run, diff or list)",
              file=sys.stderr)
        return 2
    if args.platform_command == "validate":
        return _cmd_platform_validate(args)
    if args.platform_command == "diff":
        return _cmd_platform_diff(args)
    if args.platform_command == "list":
        from repro.platform import PAPER_PLATFORM_NAMES, platform_by_name, platform_names

        rows = []
        for name in platform_names():
            spec = platform_by_name(name)
            origin = "built-in" if name in PAPER_PLATFORM_NAMES else "registered"
            rows.append([name, str(len(spec.ips)), origin, spec.description])
        print(format_table(["platform", "IPs", "origin", "description"], rows))
        return 0
    spec = _load_platform_arg(args)
    if args.platform_command == "show":
        if args.as_json:
            from repro.platform import spec_to_json

            print(spec_to_json(spec), end="")
        else:
            _print_platform_summary(spec)
        return 0
    return _run_platform(args, spec)


def _load_spec_or_name(value):
    """Resolve a positional spec argument: a file path or a registered name."""
    import os

    from repro.platform import load_platform, platform_by_name

    if os.path.exists(value) or value.endswith((".json", ".toml")):
        return load_platform(value)
    return platform_by_name(value)


def _cmd_platform_diff(args) -> int:
    from repro.platform import diff_specs, render_spec_diff

    spec_a = _load_spec_or_name(args.spec_a)
    spec_b = _load_spec_or_name(args.spec_b)
    if not diff_specs(spec_a, spec_b):
        print(f"specs are identical ({args.spec_a} == {args.spec_b})")
        return 0
    print(render_spec_diff(spec_a, spec_b, label_a=args.spec_a, label_b=args.spec_b))
    return 1


def _cmd_platform_validate(args) -> int:
    """Validate each file as a platform spec or (auto-detected) campaign spec."""
    from repro.campaign import CampaignSpec
    from repro.errors import ReproError
    from repro.platform import PlatformSpec, load_spec_dict

    failures = 0
    for path in args.specs:
        try:
            data = load_spec_dict(path)
            if "scenarios" in data or "setups" in data:
                spec = CampaignSpec.from_dict(data)
                print(f"ok: {path} (campaign {spec.name!r}, {len(spec.jobs())} jobs)")
            else:
                spec = PlatformSpec.from_dict(data)
                print(f"ok: {path} (platform {spec.name!r}, {len(spec.ips)} IPs)")
        except (ReproError, OSError) as error:
            failures += 1
            print(f"error: {path}: {error}", file=sys.stderr)
    if failures:
        print(f"{failures} of {len(args.specs)} spec file(s) failed validation",
              file=sys.stderr)
    return 1 if failures else 0


def _print_platform_summary(spec) -> None:
    print(f"Platform {spec.name}: {spec.description or '(no description)'}")
    battery = spec.battery.to_dict() or {"condition": "(library default)"}
    thermal = spec.thermal.to_dict() or {"condition": "(library default)"}
    if spec.bus.enabled:
        bus_detail = (
            f"{spec.bus.timing}, {spec.bus.arbitration}, "
            f"{spec.bus.words_per_second:g} words/s"
        )
        if spec.bus.timing == "cycle_accurate":
            bus_detail += f", {spec.bus.words_per_cycle} words/cycle"
    else:
        bus_detail = "none"
    facts = [
        ["IPs", str(len(spec.ips))],
        ["GEM", "enabled" if spec.gem.enabled else "disabled"],
        ["bus", bus_detail],
        ["battery", ", ".join(f"{k}={v}" for k, v in battery.items())],
        ["thermal", ", ".join(f"{k}={v}" for k, v in thermal.items())],
        ["policy", spec.policy.name if spec.policy else "(caller's choice)"],
        ["max time (ms)", f"{spec.max_time_ms:g}"],
        ["sample interval (us)", f"{spec.sample_interval_us:g}"],
    ]
    print(format_table(["property", "value"], facts))
    rows = []
    for ip in spec.ips:
        workload = ip.workload
        detail = workload.kind
        if workload.task_count is not None:
            detail += f" x{workload.task_count}"
        if workload.seed is not None:
            detail += f" (seed {workload.seed})"
        custom = []
        if ip.has_custom_characterization():
            custom.append("characterization")
        if ip.psm is not None:
            custom.append("psm")
        rows.append(
            [ip.name, str(ip.static_priority), detail, ip.initial_state,
             ", ".join(custom) or "-"]
        )
    print()
    print(format_table(["IP", "priority", "workload", "initial state", "custom"], rows))


def _parse_oracles(args):
    if args.oracles is None:
        return None
    return [name.strip() for name in args.oracles.split(",") if name.strip()]


def _cmd_fuzz(args) -> int:
    if args.fuzz_command is None:
        print("error: fuzz needs a subcommand (run, replay or minimize)",
              file=sys.stderr)
        return 2
    try:
        from repro.fuzz import Corpus, DEFAULT_CORPUS_DIR
    except ImportError as error:  # hypothesis is a test dependency
        print(f"error: fuzzing needs the 'hypothesis' package ({error})",
              file=sys.stderr)
        return 2
    oracles = _parse_oracles(args)

    if args.fuzz_command == "run":
        from repro.fuzz import run_fuzz

        corpus = None
        if args.corpus != "none":
            corpus = Corpus(args.corpus or DEFAULT_CORPUS_DIR)
        report = run_fuzz(
            examples=args.examples,
            seed=args.seed,
            oracles=oracles,
            backend=args.backend,
            corpus=corpus,
        )
        print(report.summary())
        return 0 if report.ok else 1

    if args.fuzz_command == "replay":
        from repro.fuzz import replay_corpus

        corpus = Corpus(args.corpus or DEFAULT_CORPUS_DIR)
        targets = args.targets or [str(path) for path in corpus.entries()]
        if not targets:
            print(f"no corpus entries under {corpus.root}")
            return 0
        results = replay_corpus(
            targets, corpus=corpus, oracles=oracles, backend=args.backend
        )
        failures = 0
        for result in results:
            print(result.summary())
            if not result.ok:
                failures += 1
        print(f"replayed {len(results)} spec(s), {failures} failing")
        return 1 if failures else 0

    # minimize
    from repro.experiments.differential import run_differential
    from repro.fuzz import minimize_spec
    from repro.platform import load_platform, save_platform, spec_to_json

    spec = load_platform(args.spec)

    def still_fails(candidate) -> bool:
        return not run_differential(
            candidate, oracles=oracles, backend=args.backend
        ).ok

    if not still_fails(spec):
        print(f"error: {args.spec} passes every selected oracle; nothing to minimize",
              file=sys.stderr)
        return 2
    minimized = minimize_spec(spec, still_fails)
    result = run_differential(minimized, oracles=oracles, backend=args.backend)
    print(result.summary())
    if args.out:
        save_platform(minimized, args.out)
        print(f"minimized spec written to {args.out}")
    else:
        print(spec_to_json(minimized), end="")
    return 0


_COMMANDS = {
    "table2": _cmd_table2,
    "scenario": _cmd_scenario,
    "rules": _cmd_rules,
    "sweep": _cmd_sweep,
    "speed": _cmd_speed,
    "breakeven": _cmd_breakeven,
    "report": _cmd_report,
    "campaign": _cmd_campaign,
    "platform": _cmd_platform,
    "fuzz": _cmd_fuzz,
    "lint": _cmd_lint,
    "reach": _cmd_reach,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    from repro.errors import ReproError

    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 0
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        # Library errors are user errors at the CLI boundary (unknown
        # scenario name, invalid spec, ...): print them cleanly instead of
        # a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
