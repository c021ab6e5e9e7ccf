"""Differential oracles: one platform, every execution path, agreement checks.

The reproduction exposes four independent execution axes — accuracy mode
(``exact`` vs ``fast``), bus timing (event-driven vs cycle-accurate), kernel
backend (python vs native) and DPM policy (paper vs always-on vs greedy) —
that must agree up to documented tolerances.  :func:`run_differential` runs a
single :class:`~repro.platform.spec.PlatformSpec` through all of them and
returns one :class:`OracleVerdict` per oracle:

``exact_vs_fast``
    Fast-mode energies within relative ``1e-9``, temperatures and battery
    state-of-charge within ``1e-6``; event times, task counts and PSM
    transition counts exactly equal (the documented fast-mode contract, see
    ``tests/experiments/test_accuracy_modes.py``).
``backend_parity``
    Exact-mode metrics bit-identical between the python and native kernel
    backends (skipped when the native extension is not built).
``bus_timing``
    Event-driven vs cycle-accurate bus under an always-on setup (isolating
    arbitration from DPM decision cascades): identical task counts and
    transfer counts, every completion within the accumulated grant-alignment
    bound of one bus period per grant.  Skipped on bus-less platforms.
``policy``
    Paper policy vs always-on baseline and greedy-sleep: whenever the
    baseline drains the workload within the budget, so must the DPM runs
    (no deadline regression; GEM-enabled platforms may legitimately park
    low-priority IPs and report ``skip``), and the paper policy's energy
    deficit against the baseline never exceeds the transition energy it
    invested (mispredicted sleeps waste their overhead, never more).
``structural``
    Single-run invariants: battery state-of-charge monotone non-increasing
    while discharging, per-IP PSM residency sums to the simulated time
    (plus at most the completed transition latencies, which the PSM books
    against the source state *on top of* the elapsed-time integration),
    bus grants matched by releases, and well-ordered execution records.
``lint_reach``
    Static analysis agrees with dynamics: the spec is linted with the
    trajectory envelope attached (``lint_spec(reach=True)``, findings are
    advisory for generated platforms), every decision context of the base
    run's LEM decision log lies inside that envelope
    (:func:`repro.lint.reach.compute_reach`), and rules the analysis
    declared statically shadowed or trajectory-dead never fire.  An
    escape is an unsoundness in the abstract interpretation; a dead rule
    firing is a lint false positive — either way a generated platform
    just disproved a static claim.

Oracles that cannot apply (no bus, native unavailable, baseline exhausted
its budget) report ``skip`` with a reason rather than vanishing silently.

The oracles share an example's runs, so each distinct simulation runs once:
the base run (exact, the spec's own policy) feeds ``exact_vs_fast``,
``backend_parity``, ``structural`` and ``lint_reach``, and stands in for the
policy oracle's run of the preset the spec's policy is (``paper`` without a
policy, or a bare ``{"name": <preset>}``); the bus oracle's always-on run at
the spec's own bus timing is the policy oracle's always-on run.  Only runs
that succeeded are shared: an oracle whose shared run crashed repeats it,
so a crash is reported by every oracle that needs the run.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.battery.status import BatteryLevel
from repro.dpm.controller import DpmSetup
from repro.dpm.lem import LemDecision
from repro.dpm.levels import RuleContext
from repro.dpm.rules import RuleTable
from repro.errors import ExperimentError, ReproError
from repro.experiments.runner import RunArtifacts, run_scenario
from repro.platform.serialize import spec_hash
from repro.platform.spec import PlatformSpec
from repro.power.states import PowerState
from repro.sim.simtime import SimTime
from repro.soc.bus import BusLevel
from repro.soc.task import TaskExecution, TaskPriority
from repro.thermal.level import TemperatureLevel

__all__ = [
    "ALL_ORACLES",
    "DifferentialResult",
    "ENERGY_RTOL",
    "OracleVerdict",
    "POLICY_SAVING_SLACK",
    "TEMPERATURE_RTOL",
    "decision_contexts",
    "decision_log_contexts",
    "replay_decisions",
    "run_differential",
]

#: Documented fast-mode tolerance on energy figures (relative).
ENERGY_RTOL = 1e-9
#: Documented fast-mode tolerance on temperatures and state-of-charge (relative).
TEMPERATURE_RTOL = 1e-6
#: Float-noise slack (relative to the baseline energy) on the policy
#: oracle's deficit bound: the paper policy may exceed the always-on
#: baseline's energy by at most its own transition overhead plus this.
POLICY_SAVING_SLACK = 1e-9

ALL_ORACLES = (
    "exact_vs_fast",
    "backend_parity",
    "bus_timing",
    "policy",
    "structural",
    "lint_reach",
)
#: Oracles that cannot run without the base run; a base-run crash is
#: reported as their failure.
_BASE_ORACLES = ("exact_vs_fast", "backend_parity", "structural")
#: The setups the policy oracle compares, by preset name.
_POLICY_SETUPS = {
    "paper": DpmSetup.paper,
    "always-on": DpmSetup.always_on,
    "greedy-sleep": DpmSetup.greedy_sleep,
}


@dataclass(frozen=True)
class OracleVerdict:
    """Outcome of one oracle on one platform."""

    oracle: str
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status == "fail"

    def as_dict(self) -> Dict[str, str]:
        return {"oracle": self.oracle, "status": self.status, "detail": self.detail}


@dataclass
class DifferentialResult:
    """All oracle verdicts for one platform spec."""

    spec_name: str
    spec_hash: str
    verdicts: List[OracleVerdict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no oracle failed (skips do not count against the spec)."""
        return not self.failures

    @property
    def failures(self) -> List[OracleVerdict]:
        return [verdict for verdict in self.verdicts if verdict.failed]

    def verdict(self, oracle: str) -> Optional[OracleVerdict]:
        for verdict in self.verdicts:
            if verdict.oracle == oracle:
                return verdict
        return None

    def summary(self) -> str:
        """One line per oracle, prefixed by the overall outcome."""
        head = "ok" if self.ok else "FAIL"
        lines = [f"{head} {self.spec_name} [{self.spec_hash[:12]}]"]
        for verdict in self.verdicts:
            mark = {"pass": "+", "fail": "!", "skip": "~"}[verdict.status]
            line = f"  {mark} {verdict.oracle:<14} {verdict.status}"
            if verdict.detail:
                line += f": {verdict.detail}"
            lines.append(line)
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        return {
            "spec_name": self.spec_name,
            "spec_hash": self.spec_hash,
            "ok": self.ok,
            "verdicts": [verdict.as_dict() for verdict in self.verdicts],
        }


# ----------------------------------------------------------------------
# Comparison helpers
# ----------------------------------------------------------------------
def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0
    return abs(a - b) / scale


def _execution_key(execution: TaskExecution) -> tuple:
    return (execution.ip_name, execution.task.name)


def _check_run_agreement(
    reference: RunArtifacts,
    candidate: RunArtifacts,
    energy_rtol: float,
    temperature_rtol: float,
    exact_times: bool = True,
) -> List[str]:
    """Compare two runs of the *same* scenario; return mismatch descriptions."""
    problems: List[str] = []
    if reference.all_tasks_completed != candidate.all_tasks_completed:
        problems.append(
            f"completion flag differs: {reference.all_tasks_completed} "
            f"vs {candidate.all_tasks_completed}"
        )
    delta = _rel(reference.total_energy_j, candidate.total_energy_j)
    if delta > energy_rtol:
        problems.append(
            f"total energy {reference.total_energy_j!r} vs "
            f"{candidate.total_energy_j!r} (rel {delta:.3e} > {energy_rtol:.0e})"
        )
    for label, a, b in (
        ("average rise", reference.average_rise_c, candidate.average_rise_c),
        ("peak temperature", reference.peak_temperature_c, candidate.peak_temperature_c),
        (
            "battery SoC",
            reference.soc.battery.state_of_charge,
            candidate.soc.battery.state_of_charge,
        ),
    ):
        delta = _rel(a, b)
        if delta > temperature_rtol:
            problems.append(f"{label} {a!r} vs {b!r} (rel {delta:.3e} > {temperature_rtol:.0e})")
    if len(reference.executions) != len(candidate.executions):
        problems.append(
            f"task count {len(reference.executions)} vs {len(candidate.executions)}"
        )
        return problems  # per-task comparison is meaningless past this point
    for ref_run, cand_run in zip(reference.executions, candidate.executions):
        if _execution_key(ref_run) != _execution_key(cand_run):
            problems.append(
                f"execution order differs: {_execution_key(ref_run)} vs "
                f"{_execution_key(cand_run)}"
            )
            break
        if exact_times:
            for label, a, b in (
                ("request", ref_run.request_time, cand_run.request_time),
                ("grant", ref_run.grant_time, cand_run.grant_time),
                ("completion", ref_run.completion_time, cand_run.completion_time),
            ):
                if a != b:
                    problems.append(
                        f"{ref_run.ip_name}/{ref_run.task.name} {label} time "
                        f"{a!r} vs {b!r}"
                    )
        delta = _rel(ref_run.energy_j, cand_run.energy_j)
        if delta > energy_rtol:
            problems.append(
                f"{ref_run.ip_name}/{ref_run.task.name} energy {ref_run.energy_j!r} "
                f"vs {cand_run.energy_j!r} (rel {delta:.3e})"
            )
    ref_ips = {
        instance.spec.name: instance.psm.transition_counts
        for instance in reference.soc.instances
    }
    cand_ips = {
        instance.spec.name: instance.psm.transition_counts
        for instance in candidate.soc.instances
    }
    if ref_ips != cand_ips:
        problems.append(f"transition counts differ: {ref_ips} vs {cand_ips}")
    return problems


def _own_preset(spec: PlatformSpec) -> Optional[str]:
    """The policy-oracle preset a run with ``setup=None`` is, if any.

    That is ``paper`` for a spec without a policy, and the preset a bare
    ``PolicyDef(name=<preset>)`` (no knob set) names.
    """
    if spec.policy is None:
        return "paper"
    name = spec.policy.name
    if name in _POLICY_SETUPS and spec.policy.to_dict() == {"name": name}:
        return name
    return None


def _spec_with_bus_timing(spec: PlatformSpec, timing: str) -> PlatformSpec:
    data = spec.to_dict()
    bus = dict(data.get("bus", {}))
    bus["timing"] = timing
    data["bus"] = bus
    return PlatformSpec.from_dict(data)


# ----------------------------------------------------------------------
# Decision contexts
# ----------------------------------------------------------------------
def decision_contexts(trace_path: "Path | str") -> List[RuleContext]:
    """Rebuild the :class:`RuleContext` of every ``lem.decision`` event in a
    JSONL trace (in event order)."""
    contexts: List[RuleContext] = []
    with Path(trace_path).open(encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            event = json.loads(line)
            if event.get("kind") != "lem.decision":
                continue
            try:
                contexts.append(RuleContext(
                    priority=TaskPriority(event["priority"]),
                    battery=BatteryLevel(event["battery"]),
                    temperature=TemperatureLevel(event["temperature"]),
                    other_ip_energy_j=float(event.get("other_ip_energy_j", 0.0)),
                    bus=BusLevel(event.get("bus", "low")),
                ))
            except (KeyError, ValueError) as error:
                raise ExperimentError(
                    f"{trace_path}: malformed lem.decision event: {error}"
                ) from error
    return contexts


def decision_log_contexts(decisions: Sequence[LemDecision]) -> List[RuleContext]:
    """The :class:`RuleContext` of every entry of a LEM decision log, in log
    order.

    An exact run's :attr:`~repro.soc.soc.SoC.decision_log` holds the same
    contexts, in the same order, as the ``lem.decision`` events of the run
    traced (:func:`decision_contexts` is the reference), without the trace.
    """
    return [
        RuleContext(
            priority=decision.priority,
            battery=BatteryLevel(decision.battery),
            temperature=TemperatureLevel(decision.temperature),
            other_ip_energy_j=decision.other_ip_energy_j,
            bus=BusLevel(decision.bus),
        )
        for decision in decisions
    ]


def replay_decisions(table: RuleTable, contexts: Sequence[RuleContext]) -> Dict[int, int]:
    """Which rule wins each recorded decision, as index -> count."""
    indices = map(table.first_match_index, contexts)
    return Counter(index for index in indices if index is not None)


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------
def _oracle_exact_vs_fast(
    spec: PlatformSpec, base: RunArtifacts, backend: Optional[str]
) -> OracleVerdict:
    # setup=None honours the spec's own policy (defaulting to the paper DPM),
    # so generated PolicyDefs are exercised by the accuracy contract too.
    fast = run_scenario(spec, None, accuracy="fast", trace=False, backend=backend)
    problems = _check_run_agreement(base, fast, ENERGY_RTOL, TEMPERATURE_RTOL)
    if problems:
        return OracleVerdict("exact_vs_fast", "fail", "; ".join(problems))
    return OracleVerdict("exact_vs_fast", "pass")


def _oracle_backend_parity(spec: PlatformSpec, base: RunArtifacts) -> OracleVerdict:
    from repro.sim.native import available, unavailable_reason

    if not available():
        return OracleVerdict(
            "backend_parity", "skip", f"native backend unavailable: {unavailable_reason()}"
        )
    runs = {}
    for backend in ("python", "native"):
        if base.backend == backend:
            runs[backend] = base
        else:
            runs[backend] = run_scenario(
                spec, None, accuracy="exact", trace=False, backend=backend
            )
    # Exact mode must be *bit-identical* across backends: zero tolerance.
    problems = _check_run_agreement(runs["python"], runs["native"], 0.0, 0.0)
    if runs["python"].end_time != runs["native"].end_time:
        problems.append(
            f"end time {runs['python'].end_time!r} vs {runs['native'].end_time!r}"
        )
    if problems:
        return OracleVerdict("backend_parity", "fail", "; ".join(problems))
    return OracleVerdict("backend_parity", "pass")


def _oracle_bus_timing(
    spec: PlatformSpec, backend: Optional[str], shared: Dict[str, RunArtifacts]
) -> OracleVerdict:
    if spec.bus is None or not spec.bus.enabled:
        return OracleVerdict("bus_timing", "skip", "platform has no bus")
    if not any(ip.bus_words_per_task for ip in spec.ips):
        return OracleVerdict("bus_timing", "skip", "no IP produces bus traffic")
    runs = {}
    for timing in ("event_driven", "cycle_accurate"):
        # Always-on isolates bus arbitration from DPM decision cascades: a
        # one-period grant shift must not flip a sleep decision and snowball.
        if timing == spec.bus.timing:
            # At its own timing the spec runs unchanged: that run is the
            # policy oracle's always-on run, shared both ways.
            if "always-on" not in shared:
                shared["always-on"] = run_scenario(
                    spec, DpmSetup.always_on(), accuracy="exact", trace=False, backend=backend
                )
            runs[timing] = shared["always-on"]
        else:
            runs[timing] = run_scenario(
                _spec_with_bus_timing(spec, timing),
                DpmSetup.always_on(),
                accuracy="exact",
                trace=False,
                backend=backend,
            )
    ed, ca = runs["event_driven"], runs["cycle_accurate"]
    problems: List[str] = []
    if ed.all_tasks_completed != ca.all_tasks_completed:
        problems.append(
            f"completion flag differs: ED {ed.all_tasks_completed} vs CA "
            f"{ca.all_tasks_completed}"
        )
    if len(ed.executions) != len(ca.executions):
        problems.append(f"task count ED {len(ed.executions)} vs CA {len(ca.executions)}")
    ed_stats, ca_stats = ed.soc.bus.stats, ca.soc.bus.stats
    if ed_stats.transfer_count != ca_stats.transfer_count:
        problems.append(
            f"transfer count ED {ed_stats.transfer_count} vs CA {ca_stats.transfer_count}"
        )
    if ed_stats.words_transferred != ca_stats.words_transferred:
        problems.append(
            f"words transferred ED {ed_stats.words_transferred} vs CA "
            f"{ca_stats.words_transferred}"
        )
    bus_masters = [ip for ip in spec.ips if ip.bus_words_per_task]
    if not problems and len(bus_masters) == 1:
        # With a single bus master there is no contention to reorder: each
        # CA grant lands on the next posedge, at most one bus period after
        # its ED counterpart, plus up to one period of ceil-quantised
        # duration — and the shifts accumulate across the dependent
        # transfer chain, so the i-th completion may skew by up to
        # 2 * (i + 1) bus periods but no more.  (Under contention the CA
        # posedge batch can legitimately arbitrate simultaneous requests in
        # a different order than ED's arrival order, shifting completions
        # by whole transfer durations; the count/word equalities above are
        # the multi-master contract, timing is pinned by the fixed cases in
        # tests/soc/test_bus_service.py.)
        period_fs = int(ca.soc.bus.clock.period)
        for index, (ed_run, ca_run) in enumerate(zip(ed.executions, ca.executions)):
            if _execution_key(ed_run) != _execution_key(ca_run):
                problems.append(
                    f"execution order differs at #{index}: {_execution_key(ed_run)} "
                    f"vs {_execution_key(ca_run)}"
                )
                break
            skew = abs(int(ca_run.completion_time) - int(ed_run.completion_time))
            bound = 2 * (index + 1) * period_fs
            if skew > bound:
                problems.append(
                    f"{ca_run.ip_name}/{ca_run.task.name} completion skew "
                    f"{skew} fs > {2 * (index + 1)} bus period(s) ({bound} fs)"
                )
    if problems:
        return OracleVerdict("bus_timing", "fail", "; ".join(problems))
    return OracleVerdict("bus_timing", "pass")


def _oracle_policy(
    spec: PlatformSpec, backend: Optional[str], shared: Dict[str, RunArtifacts]
) -> OracleVerdict:
    runs: Dict[str, RunArtifacts] = {}
    for name, make_setup in _POLICY_SETUPS.items():
        if name in shared:
            runs[name] = shared[name]
        else:
            runs[name] = run_scenario(
                spec, make_setup(), accuracy="exact", trace=False, backend=backend
            )
    baseline = runs["always-on"]
    if not baseline.all_tasks_completed:
        return OracleVerdict(
            "policy", "skip", "always-on baseline exhausted the time budget"
        )
    problems: List[str] = []
    for name in ("paper", "greedy-sleep"):
        if not runs[name].all_tasks_completed:
            if spec.gem.enabled:
                # The GEM legitimately parks low-priority IPs under stressed
                # battery/thermal rules — deliberate deadline sacrifice, not
                # a policy bug (the always-on baseline runs without a GEM).
                return OracleVerdict(
                    "policy",
                    "skip",
                    f"{name} missed the budget with the GEM enabled "
                    "(rules may park low-priority IPs by design)",
                )
            problems.append(
                f"{name} missed the budget the always-on baseline met "
                "(deadline regression)"
            )
    if not problems:
        # "Energy saving never negative" holds asymptotically, but a tiny
        # workload gives the predictor no amortisation window: a mispredicted
        # sleep can cost more than it saves.  What the policy can *never* do
        # is lose more than the transition energy it invested — sleep and
        # DVFS residency always save power against the always-on baseline,
        # only the transition overheads are at risk.  That overhead is the
        # documented bound on the deficit.
        paper = runs["paper"]
        overhead_j = 0.0
        for instance in paper.soc.instances:
            psm = instance.psm
            for label, count in psm.transition_counts.items():
                source, _, target = label.partition("->")
                overhead_j += count * psm.transitions.energy_j(
                    PowerState(source), PowerState(target)
                )
        deficit = paper.total_energy_j - baseline.total_energy_j
        slack = POLICY_SAVING_SLACK * baseline.total_energy_j
        if deficit > overhead_j + slack:
            saving = 1.0 - paper.total_energy_j / baseline.total_energy_j
            problems.append(
                f"paper policy wastes energy beyond its transition overhead: "
                f"saving {saving:.3e}, deficit {deficit:.3e} J > "
                f"transition overhead {overhead_j:.3e} J "
                f"(paper {paper.total_energy_j!r} J, "
                f"always-on {baseline.total_energy_j!r} J)"
            )
    if problems:
        return OracleVerdict("policy", "fail", "; ".join(problems))
    return OracleVerdict("policy", "pass")


def _oracle_structural(spec: PlatformSpec, base: RunArtifacts) -> OracleVerdict:
    problems: List[str] = []
    soc = base.soc
    # Battery: state-of-charge must never rise while discharging.
    if not soc.battery.config.on_ac_power:
        samples = soc.samples
        values = samples.state_of_charge
        for index, (soc_prev, soc_next) in enumerate(zip(values, values[1:]), 1):
            if soc_next > soc_prev + 1e-15:
                t_next = SimTime(samples.times_fs[index])
                problems.append(
                    f"battery SoC rose while discharging: {soc_prev!r} -> "
                    f"{soc_next!r} at {t_next!r}"
                )
                break
    # PSM residency: the integrated state times cover the whole run.  The
    # PSM books each completed transition's latency against the source state
    # *in addition to* the elapsed-time integration (pinned golden
    # behaviour), so the sum may exceed the end time by exactly that much.
    for instance in soc.instances:
        psm = instance.psm
        total_fs = sum(int(value) for value in psm.residency().values())
        slack_fs = 0
        for label, count in psm.transition_counts.items():
            source, _, target = label.partition("->")
            latency = psm.transitions.latency(PowerState(source), PowerState(target))
            slack_fs += count * int(latency)
        end_fs = int(base.end_time)
        if not (end_fs <= total_fs <= end_fs + slack_fs):
            problems.append(
                f"{instance.spec.name}: residency sum {total_fs} fs outside "
                f"[{end_fs}, {end_fs + slack_fs}] fs"
            )
    # Bus: every grant must be matched by a release (transfer or cancel).
    if soc.bus is not None:
        stats = soc.bus.stats
        if stats.grant_count != stats.transfer_count + stats.cancelled_count:
            problems.append(
                f"unbalanced bus grants: {stats.grant_count} grants vs "
                f"{stats.transfer_count} transfers + {stats.cancelled_count} cancelled"
            )
    # Executions: request <= grant <= completion <= end of run.
    end_fs = int(base.end_time)
    for execution in base.executions:
        if not (
            int(execution.request_time)
            <= int(execution.grant_time)
            <= int(execution.completion_time)
            <= end_fs
        ):
            problems.append(
                f"{execution.ip_name}/{execution.task.name} has disordered "
                f"times: request {execution.request_time!r}, grant "
                f"{execution.grant_time!r}, completion {execution.completion_time!r}"
            )
            break
    if problems:
        return OracleVerdict("structural", "fail", "; ".join(problems))
    return OracleVerdict("structural", "pass")


def _oracle_lint_reach(
    spec: PlatformSpec, base: Optional[RunArtifacts], backend: Optional[str]
) -> OracleVerdict:
    """Static lint (with the trajectory envelope) vs the base run's decisions."""
    from repro.lint import lint_spec, spec_rule_table

    # Lint findings on a *generated* spec are advisory (the generator is
    # free to produce saturated buses or hopeless break-evens; the corpus
    # sidecar records them at save time).  What the oracle enforces is the
    # *agreement* between the static claims and the run: containment in the
    # reachable envelope and silence of statically-dead rules.
    report = lint_spec(spec, reach=True)
    reach = report.reach
    assert reach is not None
    table = spec_rule_table(spec)
    if base is None:
        # The base run crashed; repeating it reports the crash here.
        base = run_scenario(spec, None, accuracy="exact", trace=False, backend=backend)
    contexts = decision_log_contexts(base.soc.decision_log)
    problems: List[str] = []
    escapes = [c for c in contexts if not reach.is_reachable(c)]
    for context in escapes[:3]:
        problems.append(
            f"observed context escapes the reachable envelope: "
            f"{context.describe()}"
        )
    if len(escapes) > 3:
        problems.append(f"... and {len(escapes) - 3} more escape(s)")
    if table is not None and contexts:
        fired = replay_decisions(table, contexts)
        live = reach.live_rule_indices(table)
        shadowed = set(table.unreachable_rules())
        for index in sorted(fired):
            if index in shadowed:
                problems.append(
                    f"statically shadowed rule {index} "
                    f"({table.rules[index].describe()}) won "
                    f"{fired[index]} decision(s)"
                )
            elif index not in live:
                problems.append(
                    f"trajectory-dead rule {index} "
                    f"({table.rules[index].describe()}) won "
                    f"{fired[index]} decision(s)"
                )
    if problems:
        return OracleVerdict("lint_reach", "fail", "; ".join(problems))
    detail = (
        f"{len(contexts)} decision(s) contained"
        if contexts else "no rule decisions traced; envelope vacuously sound"
    )
    if report.errors:
        detail += f" ({len(report.errors)} advisory lint error(s) on the spec)"
    return OracleVerdict("lint_reach", "pass", detail)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_differential(
    spec: PlatformSpec,
    oracles: Optional[Sequence[str]] = None,
    backend: Optional[str] = None,
) -> DifferentialResult:
    """Run ``spec`` through every differential oracle and collect verdicts.

    ``oracles`` restricts the set (names from :data:`ALL_ORACLES`);
    ``backend`` fixes the kernel backend of the base runs (the
    ``backend_parity`` oracle always compares python against native
    regardless).  Simulator crashes inside an oracle are reported as
    failures of that oracle, not raised — a generated platform that blows
    up one execution path is exactly what the fuzzer is looking for.
    """
    selected = list(oracles) if oracles is not None else list(ALL_ORACLES)
    unknown = [name for name in selected if name not in ALL_ORACLES]
    if unknown:
        raise ExperimentError(
            f"unknown oracle(s) {unknown!r}; expected names from {ALL_ORACLES!r}"
        )
    result = DifferentialResult(spec_name=spec.name, spec_hash=spec_hash(spec))

    # Successful exact runs of ``spec`` under a policy-oracle preset, by
    # preset name: the base run when the spec's policy is one, and the bus
    # oracle's always-on run at the spec's own timing.
    shared: Dict[str, RunArtifacts] = {}
    own_preset = _own_preset(spec)
    base: Optional[RunArtifacts] = None
    if set(selected) & {*_BASE_ORACLES, "lint_reach"} or (
        "policy" in selected and own_preset is not None
    ):
        try:
            base = run_scenario(
                spec, None, accuracy="exact", trace=False, backend=backend
            )
        except ReproError as error:
            for name in _BASE_ORACLES:
                if name in selected:
                    result.verdicts.append(
                        OracleVerdict(name, "fail", f"base run crashed: {error}")
                    )
        else:
            if own_preset is not None:
                shared[own_preset] = base

    for name in ALL_ORACLES:
        if name not in selected:
            continue
        if name in _BASE_ORACLES and base is None:
            continue  # already reported as a base-run failure above
        try:
            if name == "exact_vs_fast":
                verdict = _oracle_exact_vs_fast(spec, base, backend)
            elif name == "backend_parity":
                verdict = _oracle_backend_parity(spec, base)
            elif name == "bus_timing":
                verdict = _oracle_bus_timing(spec, backend, shared)
            elif name == "policy":
                verdict = _oracle_policy(spec, backend, shared)
            elif name == "lint_reach":
                verdict = _oracle_lint_reach(spec, base, backend)
            else:
                verdict = _oracle_structural(spec, base)
        except ReproError as error:
            verdict = OracleVerdict(name, "fail", f"oracle crashed: {error}")
        result.verdicts.append(verdict)
    return result
