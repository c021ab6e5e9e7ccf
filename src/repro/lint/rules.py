"""Rules analyzer: dead structure in the first-match selection table.

Operates on the table the spec actually runs under (Table 1 or the
policy's custom ``rules``, see :func:`repro.lint.model.spec_rule_table`):

* ``RULES-SHADOWED`` — a rule no input can ever reach (earlier rules cover
  every context it accepts); with first-match semantics it is dead code.
* ``RULES-CONTRADICTION`` / ``RULES-DUPLICATE`` — two rules with identical
  match sets; the later one never fires, and a different selected state
  means the author expected it to.
* ``RULES-UNCOVERED`` — contexts no rule matches.  Feasible contexts (ones
  this spec's battery/bus model can actually produce) are errors, because
  :meth:`~repro.dpm.rules.RuleTable.select` raises at runtime; contexts the
  spec can never produce (e.g. battery levels of a platform on AC power)
  are reported as info.

When the lint run carries a trajectory envelope (``lint --reach``,
:mod:`repro.lint.reach`), feasibility sharpens from the static on-AC check
to the abstract-interpretation one: uncovered contexts the envelope proves
unreachable within the horizon downgrade to info, and rules whose *entire*
first-match set lies outside the envelope get ``RULE-DEAD-TRAJECTORY`` —
dead code relative to this platform's actual dynamics, even though the
rule is not shadowed by the table itself.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.battery.status import BatteryLevel
from repro.lint.findings import Finding, Severity
from repro.lint.model import SpecModel
from repro.soc.bus import BusLevel

__all__ = ["analyze_rules"]


def _feasible(model: SpecModel) -> Tuple[Tuple[BatteryLevel, ...], Tuple[BusLevel, ...]]:
    """Battery/bus levels this spec can actually present to the LEM."""
    if model.spec.battery.on_ac_power:
        batteries: Tuple[BatteryLevel, ...] = (BatteryLevel.AC_POWER,)
    else:
        batteries = tuple(level for level in BatteryLevel if level.is_battery)
    buses = tuple(BusLevel) if model.spec.bus.enabled else (BusLevel.LOW,)
    return batteries, buses


def _levels(levels: Iterable[object]) -> str:
    """Compact set rendering for messages: ``{low,medium}``."""
    return "{" + ",".join(sorted(str(level) for level in levels)) + "}"


def analyze_rules(model: SpecModel) -> List[Finding]:
    table = model.table
    if table is None:
        return []
    findings: List[Finding] = []
    rules = table.rules
    path = "platform.policy.rules"
    # Dead structure in a table the spec author wrote is an error they can
    # fix; the library's verbatim Table 1 is analyzed too (its row 6 really
    # is shadowed by rows 1/3 — see the README's "Linting" section), but
    # kept-for-fidelity rows are reported as info, not as a failure of the
    # spec.
    policy = model.spec.policy
    custom = policy is not None and bool(policy.rules)
    dead_severity = Severity.ERROR if custom else Severity.INFO
    fidelity_note = "" if custom else " [library Table 1, kept verbatim]"

    def name(index: int) -> str:
        label = rules[index].label
        return f"rule {index} ({label!r})" if label else f"rule {index}"

    # Identical match sets: the later rule can never fire.
    seen: dict = {}
    duplicate_indices = set()
    for index, rule in enumerate(rules):
        key = (rule.priorities, rule.batteries, rule.temperatures, rule.buses)
        if key in seen:
            first_index, first = seen[key]
            duplicate_indices.add(index)
            if rule.state is not first.state:
                findings.append(Finding(
                    code="RULES-CONTRADICTION",
                    severity=dead_severity,
                    path=f"{path}[{index}]",
                    message=(
                        f"{name(index)} accepts exactly the same inputs as "
                        f"{name(first_index)} but selects {rule.state} instead of "
                        f"{first.state}; first match wins, so it never fires"
                        f"{fidelity_note}"
                    ),
                    suggestion="delete one of the two rules or narrow its match set",
                ))
            else:
                findings.append(Finding(
                    code="RULES-DUPLICATE",
                    severity=Severity.WARN,
                    path=f"{path}[{index}]",
                    message=(
                        f"{name(index)} duplicates {name(first_index)} "
                        f"(same inputs, same state {rule.state})"
                    ),
                    suggestion="delete the redundant rule",
                ))
        else:
            seen[key] = (index, rule)

    shadowed = set(table.unreachable_rules())
    for index in sorted(shadowed):
        if index in duplicate_indices:
            continue  # already reported with the sharper duplicate diagnosis
        findings.append(Finding(
            code="RULES-SHADOWED",
            severity=dead_severity,
            path=f"{path}[{index}]",
            message=(
                f"{name(index)} is unreachable: earlier rules match every "
                f"context it accepts ({rules[index].describe()})"
                f"{fidelity_note}"
            ),
            suggestion="move the rule earlier or delete it",
        ))

    reach = model.reach
    if reach is not None and reach.has_decisions:
        # Trajectory-dead rules: not shadowed by the table, but their whole
        # first-match set lies outside the reachable envelope.  The library
        # table over a narrow platform legitimately has many such rows, so
        # severity follows the custom-vs-library split (warn vs info).
        live = reach.live_rule_indices(table)
        dead_trajectory_severity = Severity.WARN if custom else Severity.INFO
        envelope = (
            f"battery {_levels(reach.battery_set)}, "
            f"temperature {_levels(reach.temperature_set)}, "
            f"bus {_levels(reach.bus_set)} over the "
            f"{model.spec.max_time_ms:g} ms horizon"
        )
        for index in range(len(rules)):
            if index in live or index in shadowed or index in duplicate_indices:
                continue
            findings.append(Finding(
                code="RULE-DEAD-TRAJECTORY",
                severity=dead_trajectory_severity,
                path=f"{path}[{index}]",
                message=(
                    f"{name(index)} only first-matches contexts outside the "
                    f"reachable envelope ({envelope}); it can never "
                    f"fire on this platform{fidelity_note}"
                ),
                suggestion="widen the platform's horizon/envelope or drop the rule",
            ))

    uncovered = table.uncovered_contexts()
    if uncovered:
        batteries, buses = _feasible(model)
        feasible = [
            context for context in uncovered
            if context.battery in batteries and context.bus in buses
        ]
        infeasible_count = len(uncovered) - len(feasible)
        trajectory_dead: List = []
        if reach is not None and feasible:
            # Sharpen static feasibility with the trajectory envelope: an
            # uncovered context the abstraction proves unreachable cannot
            # raise at runtime, so it is informational, not an error.
            still_feasible: List = []
            for context in feasible:
                bucket = still_feasible if reach.is_reachable(context) else trajectory_dead
                bucket.append(context)
            feasible = still_feasible
        if feasible:
            sample = "; ".join(context.describe() for context in feasible[:4])
            if len(feasible) > 4:
                sample += f"; ... ({len(feasible) - 4} more)"
            findings.append(Finding(
                code="RULES-UNCOVERED",
                severity=Severity.ERROR,
                path=path,
                message=(
                    f"{len(feasible)} reachable context(s) match no rule and "
                    f"would raise at runtime: {sample}"
                ),
                suggestion="append a wildcard fallback rule (all fields null)",
            ))
        if trajectory_dead:
            findings.append(Finding(
                code="RULES-UNCOVERED",
                severity=Severity.INFO,
                path=path,
                message=(
                    f"{len(trajectory_dead)} uncovered context(s) are feasible "
                    "statically but lie outside the reachable trajectory "
                    "envelope for this horizon"
                ),
                suggestion="append a wildcard fallback rule for robustness",
            ))
        if infeasible_count:
            findings.append(Finding(
                code="RULES-UNCOVERED",
                severity=Severity.INFO,
                path=path,
                message=(
                    f"{infeasible_count} context(s) match no rule, but this "
                    "spec's battery/bus model can never produce them"
                ),
                suggestion="append a wildcard fallback rule for robustness",
            ))
    return findings
