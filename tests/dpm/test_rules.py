"""Tests for the Table-1 rule engine.

The class ``TestPaperTable1Rows`` checks every row of the paper's table
verbatim, which doubles as the reproduction artefact for Table 1.
"""

import pytest
from hypothesis import given, strategies as st

from repro.dpm import (
    BatteryLevel,
    BusLevel,
    Rule,
    RuleContext,
    RuleTable,
    TaskPriority,
    TemperatureLevel,
    paper_rule_table,
)
from repro.dpm.policies import RuleBasedPolicy
from repro.errors import RuleError
from repro.platform.build import build_dpm_setup
from repro.platform.spec import PolicyDef
from repro.power import PowerState
from repro.sim import ms, sec
from repro.soc import IpSpec, SocConfig, build_soc, periodic_workload

P = TaskPriority
B = BatteryLevel
T = TemperatureLevel
S = PowerState


@pytest.fixture(scope="module")
def table():
    return paper_rule_table()


class TestRuleMatching:
    def test_wildcards_match_everything(self):
        rule = Rule.of(S.ON1)
        assert rule.matches(RuleContext(P.LOW, B.EMPTY, T.HIGH))
        assert rule.matches(RuleContext(P.VERY_HIGH, B.FULL, T.LOW))

    def test_specific_fields_filter(self):
        rule = Rule.of(S.ON2, priorities=[P.HIGH], batteries=[B.FULL], temperatures=[T.LOW])
        assert rule.matches(RuleContext(P.HIGH, B.FULL, T.LOW))
        assert not rule.matches(RuleContext(P.LOW, B.FULL, T.LOW))
        assert not rule.matches(RuleContext(P.HIGH, B.LOW, T.LOW))
        assert not rule.matches(RuleContext(P.HIGH, B.FULL, T.HIGH))

    def test_describe_renders_wildcards(self):
        rule = Rule.of(S.ON4, priorities=None, batteries=[B.LOW], temperatures=None, label="x")
        text = rule.describe()
        assert "-" in text and "ON4" in text and "low" in text

    def test_off_state_rejected_in_table(self):
        with pytest.raises(RuleError):
            RuleTable([Rule.of(S.OFF)])

    def test_empty_table_rejected(self):
        with pytest.raises(RuleError):
            RuleTable([])


class TestRuleTableSemantics:
    def test_first_match_wins(self):
        table = RuleTable(
            [
                Rule.of(S.ON4, priorities=[P.LOW]),
                Rule.of(S.ON1),
            ]
        )
        assert table.select(RuleContext(P.LOW, B.FULL, T.LOW)) is S.ON4
        assert table.select(RuleContext(P.HIGH, B.FULL, T.LOW)) is S.ON1

    def test_no_match_raises(self):
        table = RuleTable([Rule.of(S.ON1, priorities=[P.VERY_HIGH])])
        with pytest.raises(RuleError):
            table.select(RuleContext(P.LOW, B.FULL, T.LOW))

    def test_hit_counts_recorded(self):
        policy = RuleBasedPolicy(RuleTable([Rule.of(S.ON1)]))
        policy.select_on_state(RuleContext(P.LOW, B.FULL, T.LOW))
        policy.select_on_state(RuleContext(P.HIGH, B.LOW, T.LOW))
        assert policy.hit_counts[0] == 2

    def test_hit_counts_are_per_lem_under_a_shared_custom_table(self):
        # A custom policy.rules table is one object shared by every LEM of
        # the SoC; each LEM's policy still counts only its own decisions.
        rules = [
            {"state": "ON2", "priorities": ["high"]},
            {"state": "ON1", "label": "default"},
        ]
        setup = build_dpm_setup(PolicyDef(name="paper", rules=rules))
        soc = build_soc(
            [
                IpSpec(name="ip0", workload=periodic_workload(
                    task_count=3, cycles=20_000, idle=ms(1), priority=P.HIGH)),
                IpSpec(name="ip1", workload=periodic_workload(
                    task_count=2, cycles=20_000, idle=ms(1), priority=P.LOW)),
            ],
            SocConfig(),
            setup,
        )
        soc.run_until_done(max_time=sec(1))
        first, second = (lem.policy for lem in soc.lems)
        assert first.rules is second.rules
        assert first.hit_counts == {0: 3, 1: 0}
        assert second.hit_counts == {0: 0, 1: 2}

    def test_uncovered_contexts_detection(self):
        table = RuleTable([Rule.of(S.ON1, temperatures=[T.LOW])])
        assert not table.is_total()
        missing = table.uncovered_contexts()
        assert all(context.temperature is not T.LOW for context in missing)

    def test_unreachable_rule_detection(self):
        table = RuleTable(
            [
                Rule.of(S.ON1),
                Rule.of(S.ON4, priorities=[P.LOW]),  # shadowed by the wildcard above
            ]
        )
        assert table.unreachable_rules() == [1]

    def test_serialisation_round_trip(self, table):
        rebuilt = RuleTable.from_dicts(table.as_dicts(), name="rebuilt")
        for priority in P:
            for battery in B:
                for temperature in T:
                    context = RuleContext(priority, battery, temperature)
                    assert rebuilt.select(context) is table.select(context)

    def test_describe_lists_all_rules(self, table):
        text = table.describe()
        assert text.count("\n") == len(table.rules) - 1
        assert "t1-row1" in text


class TestPaperTable1Rows:
    """Every row of the paper's Table 1, in the paper's notation."""

    def test_row1_very_high_empty_battery(self, table):
        for temp in T:
            assert table.select_levels(P.VERY_HIGH, B.EMPTY, temp) is S.ON4

    def test_row2_very_high_hot_chip(self, table):
        for battery in (B.FULL, B.HIGH, B.MEDIUM, B.LOW, B.EMPTY):
            assert table.select_levels(P.VERY_HIGH, battery, T.HIGH) is S.ON4

    def test_row3_other_priorities_empty_battery(self, table):
        for priority in (P.HIGH, P.MEDIUM, P.LOW):
            assert table.select_levels(priority, B.EMPTY, T.LOW) is S.SL1
            assert table.select_levels(priority, B.EMPTY, T.MEDIUM) is S.SL1

    def test_row4_other_priorities_hot_chip(self, table):
        for priority in (P.HIGH, P.MEDIUM, P.LOW):
            for battery in (B.FULL, B.HIGH, B.MEDIUM, B.LOW):
                assert table.select_levels(priority, battery, T.HIGH) is S.SL1

    def test_row5_low_battery(self, table):
        for priority in P:
            for temp in (T.LOW, T.MEDIUM):
                assert table.select_levels(priority, B.LOW, temp) is S.ON4

    def test_row7_to_row10_battery_medium_high_temperature_low(self, table):
        for battery in (B.MEDIUM, B.HIGH):
            assert table.select_levels(P.VERY_HIGH, battery, T.LOW) is S.ON1
            assert table.select_levels(P.HIGH, battery, T.LOW) is S.ON2
            assert table.select_levels(P.MEDIUM, battery, T.LOW) is S.ON3
            assert table.select_levels(P.LOW, battery, T.LOW) is S.ON4

    def test_row11_row12_battery_full_temperature_low(self, table):
        for priority in (P.VERY_HIGH, P.HIGH, P.MEDIUM):
            assert table.select_levels(priority, B.FULL, T.LOW) is S.ON1
        assert table.select_levels(P.LOW, B.FULL, T.LOW) is S.ON2

    def test_row13_power_supply(self, table):
        for priority in P:
            for temp in (T.LOW, T.MEDIUM):
                assert table.select_levels(priority, B.AC_POWER, temp) is S.ON1

    def test_completion_rules_only_fire_outside_paper_rows(self, table):
        # The completion rows cover battery >= Medium with temperature Medium.
        assert table.select_levels(P.VERY_HIGH, B.MEDIUM, T.MEDIUM) is S.ON1
        assert table.select_levels(P.HIGH, B.HIGH, T.MEDIUM) is S.ON2
        assert table.select_levels(P.MEDIUM, B.FULL, T.MEDIUM) is S.ON1
        assert table.select_levels(P.LOW, B.FULL, T.MEDIUM) is S.ON2
        assert table.select_levels(P.LOW, B.MEDIUM, T.MEDIUM) is S.ON4


class TestPaperTableProperties:
    def test_table_is_total(self, table):
        assert table.is_total()
        assert table.uncovered_contexts() == []

    def test_no_unreachable_rules_except_row6(self, table):
        # Row 6 of the paper ("- E M -> ON4") is shadowed by rows 1 and 3,
        # which already cover every priority with an empty battery.  We keep
        # it for fidelity; everything else must be reachable.
        unreachable = table.unreachable_rules()
        labels = [table.rules[i].label for i in unreachable]
        assert labels in ([], ["t1-row6"])

    @given(
        priority=st.sampled_from(list(P)),
        battery=st.sampled_from(list(B)),
        temperature=st.sampled_from(list(T)),
    )
    def test_total_and_deterministic(self, priority, battery, temperature):
        table = paper_rule_table()
        first = table.select_levels(priority, battery, temperature)
        second = table.select_levels(priority, battery, temperature)
        assert first is second
        assert first.is_on or first is S.SL1

    @given(
        battery=st.sampled_from([B.EMPTY, B.LOW, B.MEDIUM, B.HIGH, B.FULL]),
        temperature=st.sampled_from(list(T)),
    )
    def test_very_high_priority_always_executes(self, battery, temperature):
        """A Very-high-priority task is never parked in a sleep state."""
        table = paper_rule_table()
        assert table.select_levels(P.VERY_HIGH, battery, temperature).is_on

    @given(temperature=st.sampled_from([T.LOW, T.MEDIUM]))
    def test_better_battery_never_slows_execution(self, temperature):
        """For the same priority/temperature, a fuller battery never selects a
        slower ON state than an emptier one (monotonicity of the table)."""
        table = paper_rule_table()
        ordered_batteries = [B.LOW, B.MEDIUM, B.HIGH, B.FULL]
        for priority in P:
            ranks = []
            for battery in ordered_batteries:
                state = table.select_levels(priority, battery, temperature)
                ranks.append(5 - state.index if state.is_on else -1)
            kept = [rank for rank in ranks if rank >= 0]
            assert kept == sorted(kept)


class TestBusDimension:
    """Bus-occupation conditioning: the fourth rule-table input class."""

    def test_context_defaults_to_low_bus(self):
        context = RuleContext(P.HIGH, B.FULL, T.LOW)
        assert context.bus is BusLevel.LOW
        assert "bus=low" in context.describe()

    def test_bus_wildcard_rules_ignore_the_bus(self, table):
        for bus in BusLevel:
            assert table.select(
                RuleContext(P.HIGH, B.FULL, T.LOW, bus=bus)
            ) is table.select(RuleContext(P.HIGH, B.FULL, T.LOW))

    def test_bus_constrained_rule_fires_only_on_matching_level(self):
        throttle = RuleTable(
            [
                Rule.of(S.ON4, buses=[BusLevel.HIGH], label="bus-throttle"),
                Rule.of(S.ON1, label="default"),
            ],
            name="bus-aware",
        )
        low = RuleContext(P.HIGH, B.FULL, T.LOW, bus=BusLevel.LOW)
        saturated = RuleContext(P.HIGH, B.FULL, T.LOW, bus=BusLevel.HIGH)
        assert throttle.select(low) is S.ON1
        assert throttle.select(saturated) is S.ON4
        # The decision map must key on the bus level too: repeat reads with
        # both levels stay distinct.
        assert throttle.select(saturated) is S.ON4
        assert throttle.select(low) is S.ON1

    def test_coverage_checks_enumerate_the_bus_dimension(self):
        partial = RuleTable(
            [Rule.of(S.ON1, buses=[BusLevel.LOW, BusLevel.MEDIUM])],
            name="bus-partial",
        )
        assert not partial.is_total()
        missing = partial.uncovered_contexts()
        assert missing and all(ctx.bus is BusLevel.HIGH for ctx in missing)
        # A bus-agnostic table only visits the default LOW level.
        assert paper_rule_table().is_total()

    def test_bus_rules_round_trip_through_dicts(self):
        table = RuleTable(
            [
                Rule.of(S.ON3, priorities=[P.LOW], buses=[BusLevel.HIGH], label="r0"),
                Rule.of(S.ON1, label="fallback"),
            ],
            name="bus-serialized",
        )
        rebuilt = RuleTable.from_dicts(table.as_dicts(), name="bus-serialized")
        assert rebuilt.as_dicts() == table.as_dicts()
        assert rebuilt.select(
            RuleContext(P.LOW, B.FULL, T.LOW, bus=BusLevel.HIGH)
        ) is S.ON3

    def test_describe_renders_the_bus_set(self):
        rule = Rule.of(S.ON4, buses=[BusLevel.HIGH])
        assert "bus(high)" in rule.describe()
