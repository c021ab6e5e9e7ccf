"""``RuleTable.unreachable_rules`` agrees with the pairwise shadowing scan.

The table finds its unreachable rules in one walk over the contexts (a rule
is reachable iff it is the first match of some context).  The reference
below is the older per-rule scan: a rule is reachable iff some context it
matches is matched by no earlier rule.  The two must agree on every table.
"""

from __future__ import annotations

from typing import List

from hypothesis import given, settings, strategies as st

from repro.battery.status import BatteryLevel
from repro.dpm.levels import RuleContext
from repro.dpm.rules import Rule, RuleTable, paper_rule_table
from repro.power.states import ON_STATES, SLEEP_STATES
from repro.soc.bus import BusLevel
from repro.soc.task import TaskPriority
from repro.thermal.level import TemperatureLevel


def reference_unreachable_rules(table: RuleTable) -> List[int]:
    """The O(rules² × contexts) scan ``unreachable_rules`` replaced."""
    rules = table.rules
    bus_levels = table._bus_dimension()
    unreachable = []
    for index, rule in enumerate(rules):
        reachable = False
        for priority in TaskPriority:
            for battery in BatteryLevel:
                for temperature in TemperatureLevel:
                    for bus in bus_levels:
                        context = RuleContext(priority, battery, temperature, bus=bus)
                        if not rule.matches(context):
                            continue
                        if not any(rules[j].matches(context) for j in range(index)):
                            reachable = True
                            break
                    if reachable:
                        break
                if reachable:
                    break
            if reachable:
                break
        if not reachable:
            unreachable.append(index)
    return unreachable


def _levels(enum):
    """``None`` (wildcard) or a non-empty subset of ``enum``."""
    return st.none() | st.frozensets(st.sampled_from(list(enum)), min_size=1)


@st.composite
def rule_tables(draw, with_bus: bool) -> RuleTable:
    rules = [
        Rule(
            state=draw(st.sampled_from(list(ON_STATES) + list(SLEEP_STATES))),
            priorities=draw(_levels(TaskPriority)),
            batteries=draw(_levels(BatteryLevel)),
            temperatures=draw(_levels(TemperatureLevel)),
            buses=draw(_levels(BusLevel)) if with_bus else None,
        )
        for _ in range(draw(st.integers(min_value=1, max_value=12)))
    ]
    return RuleTable(rules)


@settings(max_examples=60, deadline=None)
@given(table=rule_tables(with_bus=False))
def test_single_pass_matches_reference(table):
    assert table.unreachable_rules() == reference_unreachable_rules(table)


@settings(max_examples=60, deadline=None)
@given(table=rule_tables(with_bus=True))
def test_single_pass_matches_reference_with_bus_rules(table):
    assert table.unreachable_rules() == reference_unreachable_rules(table)


def test_paper_table():
    table = paper_rule_table()
    assert table.unreachable_rules() == reference_unreachable_rules(table)


def test_shadowed_custom_rule():
    """Table 1 plus the bus-constrained rule the differential golden pins."""
    rules = paper_rule_table().as_dicts()
    rules.append({
        "state": "SL4", "priorities": ["low"], "batteries": ["full"],
        "temperatures": ["low"], "buses": ["high"], "label": "dead",
    })
    table = RuleTable.from_dicts(rules)
    unreachable = table.unreachable_rules()
    assert unreachable == reference_unreachable_rules(table)
    assert len(rules) - 1 in unreachable
