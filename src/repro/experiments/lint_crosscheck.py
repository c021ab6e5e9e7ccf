"""Dynamic cross-validation of the static rules and reachability analyses.

The lint rules analyzer (:mod:`repro.lint.rules`) claims some rules are
*statically* unreachable — no input the platform can produce will ever reach
them under first-match semantics.  This module validates that claim against
reality: it runs traced simulations, replays every ``lem.decision`` event in
the :mod:`repro.obs` stream through
:meth:`~repro.dpm.rules.RuleTable.first_match_index`, and checks that the
statically-dead rules fired **zero** times.

The trajectory-reachability engine (:mod:`repro.lint.reach`) makes the
stronger claim that its interval abstraction over-approximates every
context a run can present.  The same traced replay enforces it: each
observed decision context must lie **inside** the static reachable
envelope, and every rule the envelope declares trajectory-dead must have
fired zero times.  A dynamically observed context outside the abstraction
is a hard violation — soundness is part of the test contract, not a hope.

Directions of confidence:

* a statically-unreachable rule that fires dynamically would be a lint
  false positive (the analyzer's lattice enumeration is wrong);
* an observed context escaping the reachable envelope would be a reach
  false negative (the abstract interpretation is unsound);
* an injected shadowed rule that lint flags *and* never fires confirms a
  true positive end to end (see the lint test suite).

The check is cheap enough to run over all six paper platforms in CI.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.battery.status import BatteryLevel
from repro.dpm.lem import LemDecision
from repro.dpm.levels import RuleContext
from repro.dpm.rules import RuleTable
from repro.errors import ExperimentError
from repro.soc.bus import BusLevel
from repro.soc.task import TaskPriority
from repro.thermal.level import TemperatureLevel

__all__ = [
    "CrosscheckResult",
    "crosscheck_paper_platforms",
    "crosscheck_scenario",
    "decision_contexts",
    "decision_log_contexts",
    "replay_decisions",
]

#: The platforms the CI cross-check sweeps (the paper's six scenarios).
PAPER_SCENARIO_NAMES = ("A1", "A2", "A3", "A4", "B", "C")


@dataclass
class CrosscheckResult:
    """Static-vs-dynamic agreement for one traced scenario run."""

    scenario: str
    table_name: str
    decision_count: int
    #: rule index -> number of decisions it won at runtime
    fire_counts: Dict[int, int] = field(default_factory=dict)
    #: rule indices the static analysis declared unreachable
    unreachable: Tuple[int, ...] = ()
    #: rule indices the reach envelope declared trajectory-dead
    trajectory_dead: Tuple[int, ...] = ()
    #: True when the reach-envelope containment check ran
    reach_checked: bool = False
    #: human-readable disagreements (empty when static and dynamic agree)
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no statically-dead rule fired and (when checked) every
        observed context stayed inside the reachable envelope."""
        return not self.violations

    def describe(self) -> str:
        """One-line summary for CLI/CI output."""
        status = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        fired = sum(1 for count in self.fire_counts.values() if count)
        reach = (
            f", {len(self.trajectory_dead)} trajectory-dead, envelope checked"
            if self.reach_checked else ""
        )
        return (
            f"{self.scenario}: {self.decision_count} decisions, "
            f"{fired} rule(s) fired, {len(self.unreachable)} statically "
            f"unreachable{reach} -> {status}"
        )


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


def crosscheck_scenario(
    scenario,
    table: Optional[RuleTable] = None,
    trace_dir: "Path | str | None" = None,
    reach: bool = True,
) -> CrosscheckResult:
    """Run one scenario traced and compare fired rules against the static
    unreachability analysis.

    ``scenario`` is anything :func:`~repro.experiments.runner.run_scenario`
    accepts (a :class:`~repro.platform.spec.PlatformSpec` or a registered
    name).  ``table`` defaults to the table the run actually consults,
    :func:`repro.lint.spec_rule_table` of the spec: its custom
    ``policy.rules`` when it has them, the paper's Table 1 otherwise; a
    platform with a non-rule-based policy raises :class:`ExperimentError`.
    ``trace_dir`` holds the throwaway JSONL trace (default: the current
    directory).

    With ``reach=True`` (the default), the trajectory envelope
    (:func:`repro.lint.reach.compute_reach`) is also validated: every
    observed decision context must be contained in the static reachable
    set, and trajectory-dead rules must not have fired.  Either
    disagreement is a violation — the soundness contract is hard.
    """
    from repro.experiments.runner import _as_scenario, run_scenario
    from repro.lint import build_model, spec_rule_table
    from repro.lint.reach import compute_reach
    from repro.obs.session import TraceRequest

    spec = _as_scenario(scenario)
    name = spec.name
    if table is None:
        table = spec_rule_table(spec)
        if table is None:
            raise ExperimentError(
                f"platform {name!r} uses a non-rule-based policy; "
                "there is no rule table to cross-check"
            )
    reach_result = compute_reach(build_model(spec)) if reach else None
    directory = Path(trace_dir) if trace_dir is not None else Path(".")
    trace_path = directory / f"{name}_crosscheck_trace.jsonl"
    request = TraceRequest(
        format="jsonl", path=str(trace_path), events=("lem.decision",)
    )
    artifacts = run_scenario(spec, trace=request)
    try:
        contexts = decision_contexts(artifacts.trace_path or trace_path)
    finally:
        trace_path.unlink(missing_ok=True)
    fire_counts = replay_decisions(table, contexts)
    unreachable = tuple(table.unreachable_rules())
    violations = [
        (
            f"rule {index} ({table.rules[index].describe()}) is statically "
            f"unreachable but won {fire_counts[index]} decision(s)"
        )
        for index in unreachable
        if fire_counts.get(index)
    ]
    trajectory_dead: Tuple[int, ...] = ()
    if reach_result is not None:
        escapes = [
            context for context in contexts
            if not reach_result.is_reachable(context)
        ]
        for context in escapes[:5]:
            violations.append(
                f"observed context escapes the static reachable envelope: "
                f"{context.describe()}"
            )
        if len(escapes) > 5:
            violations.append(
                f"... and {len(escapes) - 5} more context(s) escaped"
            )
        live = reach_result.live_rule_indices(table)
        trajectory_dead = tuple(
            index for index in range(len(table.rules)) if index not in live
        )
        for index in trajectory_dead:
            if fire_counts.get(index):
                violations.append(
                    f"rule {index} ({table.rules[index].describe()}) is "
                    f"trajectory-dead per the reach envelope but won "
                    f"{fire_counts[index]} decision(s)"
                )
    return CrosscheckResult(
        scenario=name,
        table_name=table.name,
        decision_count=len(contexts),
        fire_counts=fire_counts,
        unreachable=unreachable,
        trajectory_dead=trajectory_dead,
        reach_checked=reach_result is not None,
        violations=violations,
    )


def crosscheck_paper_platforms(
    names: Optional[Sequence[str]] = None,
    trace_dir: "Path | str | None" = None,
) -> List[CrosscheckResult]:
    """Cross-check every paper scenario (default: all six) against Table 1."""
    return [
        crosscheck_scenario(name, trace_dir=trace_dir)
        for name in (names if names is not None else PAPER_SCENARIO_NAMES)
    ]
