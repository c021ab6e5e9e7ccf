"""``RuleTable``'s decision map agrees with linear ``Rule.matches`` scans.

The table computes the first-match index of every context once and answers
:meth:`~repro.dpm.rules.RuleTable.select`, ``first_match_index``,
``uncovered_contexts`` and ``unreachable_rules`` from that map.  The
references below scan the rules in order for each context instead (and, for
unreachability, use the older per-rule scan: a rule is reachable iff some
context it matches is matched by no earlier rule).  They must agree on
every table.
"""

from __future__ import annotations

import itertools
from typing import List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.battery.status import BatteryLevel
from repro.dpm.levels import RuleContext
from repro.dpm.rules import Rule, RuleTable, paper_rule_table
from repro.errors import RuleError
from repro.power.states import ON_STATES, SLEEP_STATES
from repro.soc.bus import BusLevel
from repro.soc.task import TaskPriority
from repro.thermal.level import TemperatureLevel

#: every rule context, in (priority, battery, temperature, bus) order
CONTEXTS = [
    RuleContext(priority, battery, temperature, bus=bus)
    for priority, battery, temperature, bus in itertools.product(
        TaskPriority, BatteryLevel, TemperatureLevel, BusLevel
    )
]


def reference_first_match(table: RuleTable, context: RuleContext) -> Optional[int]:
    for index, rule in enumerate(table.rules):
        if rule.matches(context):
            return index
    return None


def reference_uncovered_contexts(table: RuleTable) -> List[RuleContext]:
    """Contexts no rule matches; only the ``LOW`` bus level for a table
    whose rules never constrain the bus."""
    any_bus = any(rule.buses is not None for rule in table.rules)
    return [
        context for context in CONTEXTS
        if (any_bus or context.bus is BusLevel.LOW)
        and not any(rule.matches(context) for rule in table.rules)
    ]


def reference_unreachable_rules(table: RuleTable) -> List[int]:
    """The O(rules² × contexts) scan ``unreachable_rules`` replaced."""
    rules = table.rules
    return [
        index
        for index, rule in enumerate(rules)
        if not any(
            rule.matches(context)
            and not any(rules[j].matches(context) for j in range(index))
            for context in CONTEXTS
        )
    ]


def assert_matches_reference(table: RuleTable) -> None:
    for context in CONTEXTS:
        expected = reference_first_match(table, context)
        assert table.first_match_index(context) == expected
        if expected is None:
            with pytest.raises(RuleError, match="no rule matches"):
                table.select(context)
        else:
            assert table.select(context) is table.rules[expected].state
    assert table.uncovered_contexts() == reference_uncovered_contexts(table)
    assert table.unreachable_rules() == reference_unreachable_rules(table)


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
    assert_matches_reference(table)


@settings(max_examples=60, deadline=None)
@given(table=rule_tables(with_bus=True))
def test_single_pass_matches_reference_with_bus_rules(table):
    assert_matches_reference(table)


def test_paper_table():
    assert_matches_reference(paper_rule_table())


def test_paper_table_is_shared():
    assert paper_rule_table() is paper_rule_table()


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
    assert_matches_reference(table)
