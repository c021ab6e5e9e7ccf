"""Each spec analyzer flags a hand-built failing platform — and stays quiet
on every shipped one.

The failing specs are minimal: one IP, one deliberate defect each.  The
clean sweep over the registered platforms is the other half of the
contract: lint must not cry wolf on the specs the repo actually ships.
"""

import pytest

from repro.errors import InvalidTransitionError, PlatformError
from repro.experiments import run_scenario
from repro.lint import CODES, Severity, lint_spec, spec_rule_table
from repro.platform import (
    BatteryDef,
    BusDef,
    GemDef,
    IpDef,
    PlatformSpec,
    PolicyDef,
    PsmDef,
    TransitionDef,
    WorkloadDef,
    platform_by_name,
    platform_names,
)

ALL_STATES = ["ON1", "ON2", "ON3", "ON4", "SL2", "SL3", "SL4", "OFF"]


def periodic():
    return WorkloadDef(kind="periodic", task_count=4, cycles=10_000, idle_us=200.0)


def lint(spec):
    spec.validate()
    return lint_spec(spec)


def codes_of(report):
    return {finding.code for finding in report.findings}


def by_code(report, code):
    matches = [f for f in report.findings if f.code == code]
    assert matches, f"no {code} in {[f.code for f in report.findings]}"
    return matches[0]


WILDCARD = {"state": "ON2", "priorities": None, "batteries": None,
            "temperatures": None, "buses": None, "label": "catch-all"}


class TestRulesAnalyzer:
    def test_shadowed_custom_rule_is_error(self):
        dead = {"state": "SL1", "priorities": ["low"], "batteries": None,
                "temperatures": None, "buses": None, "label": "dead"}
        report = lint(PlatformSpec(
            name="shadow", ips=[IpDef(name="cpu", workload=periodic())],
            policy=PolicyDef(name="paper", rules=[WILDCARD, dead]),
        ))
        finding = by_code(report, "RULES-SHADOWED")
        assert finding.severity is Severity.ERROR
        assert finding.path == "platform.policy.rules[1]"
        assert "dead" in finding.message

    def test_contradiction_same_inputs_different_state(self):
        first = {"state": "ON1", "priorities": ["low"], "batteries": None,
                 "temperatures": None, "buses": None, "label": "a"}
        second = dict(first, state="SL1", label="b")
        report = lint(PlatformSpec(
            name="contra", ips=[IpDef(name="cpu", workload=periodic())],
            policy=PolicyDef(name="paper", rules=[WILDCARD, first, second]),
        ))
        finding = by_code(report, "RULES-CONTRADICTION")
        assert finding.severity is Severity.ERROR
        assert finding.path == "platform.policy.rules[2]"

    def test_duplicate_same_inputs_same_state(self):
        first = {"state": "ON1", "priorities": ["low"], "batteries": None,
                 "temperatures": None, "buses": None, "label": "a"}
        report = lint(PlatformSpec(
            name="dup", ips=[IpDef(name="cpu", workload=periodic())],
            policy=PolicyDef(name="paper", rules=[WILDCARD, first, dict(first, label="b")]),
        ))
        finding = by_code(report, "RULES-DUPLICATE")
        assert finding.severity is Severity.WARN

    def test_uncovered_lattice_regions(self):
        only_low = {"state": "ON1", "priorities": ["low"], "batteries": None,
                    "temperatures": None, "buses": None, "label": "only-low"}
        report = lint(PlatformSpec(
            name="uncov", ips=[IpDef(name="cpu", workload=periodic())],
            policy=PolicyDef(name="paper", rules=[only_low]),
        ))
        finding = by_code(report, "RULES-UNCOVERED")
        assert finding.severity is Severity.ERROR
        assert "raise at runtime" in finding.message

    def test_infeasible_uncovered_contexts_are_info_on_ac(self):
        # Covers every priority on AC power only: battery-level contexts are
        # uncovered but the battery model can never produce them.
        ac_only = {"state": "ON1", "priorities": None, "batteries": ["ac_power"],
                   "temperatures": None, "buses": None, "label": "ac"}
        report = lint(PlatformSpec(
            name="ac", ips=[IpDef(name="cpu", workload=periodic())],
            policy=PolicyDef(name="paper", rules=[ac_only]),
            battery=BatteryDef(on_ac_power=True),
        ))
        severities = {f.severity for f in report.findings
                      if f.code == "RULES-UNCOVERED"}
        assert severities == {Severity.INFO}

    def test_library_table1_row6_is_info_not_error(self):
        report = lint(PlatformSpec(
            name="plain", ips=[IpDef(name="cpu", workload=periodic())],
        ))
        finding = by_code(report, "RULES-SHADOWED")
        assert finding.severity is Severity.INFO
        assert "kept verbatim" in finding.message
        assert "t1-row6" in finding.message


class TestPsmAnalyzer:
    def test_absorbing_sleep_state(self):
        report = lint(PlatformSpec(name="absorb", ips=[IpDef(
            name="cpu", workload=periodic(),
            psm=PsmDef(transitions=[TransitionDef("SL1", s, allowed=False)
                                    for s in ALL_STATES]),
        )]))
        finding = by_code(report, "PSM-NO-WAKE")
        assert finding.severity is Severity.ERROR
        assert "SL1" in finding.message

    def test_unreachable_sleep_state(self):
        report = lint(PlatformSpec(name="unreach", ips=[IpDef(
            name="cpu", workload=periodic(),
            psm=PsmDef(transitions=[TransitionDef(s, "SL1", allowed=False)
                                    for s in ALL_STATES]),
        )]))
        assert by_code(report, "PSM-UNREACHABLE").severity is Severity.WARN

    def test_forbidden_on1_round_trip_fails_every_run_and_lint(self):
        # Validates, but the run's break-even analysis needs ON1 -> SL3, so
        # every run raises while building the power model; lint must say so.
        spec = PlatformSpec.from_dict({"name": "nosl3", "ips": [{
            "name": "cpu", "workload": {"kind": "periodic", "task_count": 2},
            "psm": {"transitions": [
                {"source": "ON1", "target": "SL3", "allowed": False},
            ]},
        }]})
        spec.validate()
        with pytest.raises(InvalidTransitionError, match="ON1 -> SL3"):
            run_scenario(spec, trace=False)
        report = lint_spec(spec, reach=True)
        finding = by_code(report, "PSM-UNBUILDABLE")
        assert finding.severity is Severity.ERROR
        assert finding.path == "platform.ips[0].psm"
        assert "ON1 -> SL3" in finding.message
        assert report.errors == [finding]

    def test_sleep_power_not_below_idle(self):
        report = lint(PlatformSpec(name="sleeppower", ips=[IpDef(
            name="cpu", workload=periodic(), residual_fraction={"SL1": 1.0},
        )]))
        finding = by_code(report, "PSM-SLEEP-POWER")
        assert finding.severity is Severity.WARN
        assert "SL1" in finding.message

    def test_break_even_beyond_horizon(self):
        report = lint(PlatformSpec(name="brkeven", max_time_ms=1.0, ips=[IpDef(
            name="cpu", workload=periodic(),
            psm=PsmDef(transitions=[
                TransitionDef("ON1", "SL4", energy_j=10.0, latency_us=5.0),
                TransitionDef("SL4", "ON1", energy_j=10.0, latency_us=5.0),
            ]),
        )]))
        assert by_code(report, "PSM-BREAK-EVEN").severity is Severity.WARN


class TestPolicyAnalyzer:
    def test_timeout_below_break_even(self):
        report = lint(PlatformSpec(
            name="timeout", ips=[IpDef(name="cpu", workload=periodic())],
            policy=PolicyDef(name="fixed-timeout", timeout_ms=0.0001),
        ))
        finding = by_code(report, "POLICY-TIMEOUT")
        assert finding.severity is Severity.WARN
        assert finding.path == "platform.policy.timeout_ms"

    def test_gem_inert_on_ac_power(self):
        report = lint(PlatformSpec(
            name="geminert", ips=[IpDef(name="cpu", workload=periodic())],
            gem=GemDef(enabled=True), battery=BatteryDef(on_ac_power=True),
        ))
        assert by_code(report, "POLICY-GEM-INERT").severity is Severity.WARN


class TestBusAnalyzer:
    def test_saturated_bus(self):
        report = lint(PlatformSpec(
            name="bussat", max_time_ms=10.0,
            ips=[IpDef(name="cpu",
                       workload=WorkloadDef(kind="periodic", task_count=100,
                                            cycles=1000, idle_us=1.0),
                       bus_words_per_task=1_000_000)],
            bus=BusDef(enabled=True, words_per_second=1000.0),
        ))
        finding = by_code(report, "BUS-SATURATED")
        assert finding.severity is Severity.ERROR
        assert finding.path == "platform.bus.words_per_second"

    def test_cycle_accurate_divisibility(self):
        report = lint(PlatformSpec(
            name="busdiv",
            ips=[IpDef(name="cpu", workload=periodic(), bus_words_per_task=7)],
            bus=BusDef(enabled=True, timing="cycle_accurate", words_per_cycle=4),
        ))
        assert by_code(report, "BUS-CA-DIVISIBILITY").severity is Severity.WARN

    def test_enabled_but_unused_bus(self):
        report = lint(PlatformSpec(
            name="busunused", ips=[IpDef(name="cpu", workload=periodic())],
            bus=BusDef(enabled=True),
        ))
        assert by_code(report, "BUS-UNUSED").severity is Severity.INFO


class TestWorkloadAnalyzer:
    def test_zero_cycle_explicit_item(self):
        spec = PlatformSpec(name="wzero", ips=[IpDef(
            name="cpu",
            workload=WorkloadDef(kind="explicit", items=[{"task": "t0", "cycles": 0}]),
        )])
        # Validation rejects the item with its path; the analyzer still
        # flags it in a spec that skipped validation.
        with pytest.raises(PlatformError, match=r"items\[0\]\.cycles: cycle count"):
            spec.validate()
        assert by_code(lint_spec(spec), "WORKLOAD-EMPTY-TASK").severity is Severity.ERROR

    def test_uninstantiable_workload(self):
        # Validation rejects one scenario A task; an unvalidated spec still
        # reaches the analyzer.
        report = lint_spec(PlatformSpec(name="wone", ips=[IpDef(
            name="cpu", workload=WorkloadDef(kind="scenario_a", task_count=1),
        )]))
        finding = by_code(report, "WORKLOAD-EMPTY-TASK")
        assert finding.severity is Severity.ERROR
        assert "cannot be instantiated" in finding.message

    def test_unfinishable_workload(self):
        report = lint(PlatformSpec(name="wunfin", max_time_ms=0.01, ips=[IpDef(
            name="cpu",
            workload=WorkloadDef(kind="periodic", task_count=100,
                                 cycles=10_000_000, idle_us=100.0),
        )]))
        finding = by_code(report, "WORKLOAD-UNFINISHABLE")
        assert finding.severity is Severity.ERROR

    def test_never_idle_workload(self):
        report = lint(PlatformSpec(name="wnoidle", ips=[IpDef(
            name="cpu",
            workload=WorkloadDef(kind="periodic", task_count=4, cycles=1000,
                                 idle_us=0.0),
        )]))
        assert by_code(report, "WORKLOAD-NEVER-IDLE").severity is Severity.INFO


class TestShippedPlatformsClean:
    @pytest.mark.parametrize("name", platform_names())
    def test_registered_platform_lints_clean(self, name):
        report = lint_spec(platform_by_name(name))
        assert report.is_clean(), report.describe()

    @pytest.mark.parametrize("name", platform_names())
    def test_every_emitted_code_is_registered(self, name):
        for finding in lint_spec(platform_by_name(name)).findings:
            assert finding.code in CODES


class TestSpecRuleTable:
    def test_default_policy_uses_paper_table(self):
        spec = PlatformSpec(name="p", ips=[IpDef(name="cpu", workload=periodic())])
        assert spec_rule_table(spec) is not None

    def test_non_rule_policy_has_no_table(self):
        spec = PlatformSpec(
            name="p", ips=[IpDef(name="cpu", workload=periodic())],
            policy=PolicyDef(name="always-on"),
        )
        assert spec_rule_table(spec) is None

    def test_custom_rules_build_a_named_table(self):
        spec = PlatformSpec(
            name="custom", ips=[IpDef(name="cpu", workload=periodic())],
            policy=PolicyDef(name="paper", rules=[WILDCARD]),
        )
        table = spec_rule_table(spec)
        assert table.name == "custom-rules"
        assert len(table.rules) == 1
