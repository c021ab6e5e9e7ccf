"""Dynamic cross-validation: static unreachability vs the traced event stream.

Two directions: (a) across the paper's six scenarios, the statically-dead
Table 1 row never wins a decision; (b) an injected shadowed rule is caught
by lint *and* fires zero times at runtime — a true positive end to end.
"""

import pytest

from repro.dpm.rules import paper_rule_table
from repro.experiments import (
    crosscheck_paper_platforms,
    crosscheck_scenario,
    decision_contexts,
)
from repro.experiments.lint_crosscheck import PAPER_SCENARIO_NAMES
from repro.errors import ExperimentError
from repro.lint import Severity, lint_spec
from repro.platform import (
    IpDef,
    PlatformSpec,
    PolicyDef,
    WorkloadDef,
    register_platform,
    unregister_platform,
)


class TestPaperScenarios:
    @pytest.mark.parametrize("name", PAPER_SCENARIO_NAMES)
    def test_statically_dead_rules_never_fire(self, name, tmp_path):
        result = crosscheck_scenario(name, trace_dir=tmp_path)
        assert result.ok, result.violations
        assert result.decision_count > 0
        # Table 1's row 6 (index 5) is the statically-dead rule under test.
        assert 5 in result.unreachable
        assert result.fire_counts.get(5, 0) == 0
        # Every decision was replayed against the same table the run used.
        assert sum(result.fire_counts.values()) == result.decision_count
        # The trajectory envelope ran and contained every decision; the
        # narrow paper platforms always leave some Table 1 rows dead.
        assert result.reach_checked
        assert result.trajectory_dead
        for index in result.trajectory_dead:
            assert result.fire_counts.get(index, 0) == 0

    def test_reach_can_be_disabled(self, tmp_path):
        result = crosscheck_scenario("A1", trace_dir=tmp_path, reach=False)
        assert result.ok
        assert not result.reach_checked
        assert result.trajectory_dead == ()

    def test_sweep_helper_covers_all_six(self, tmp_path):
        results = crosscheck_paper_platforms(names=("A1",), trace_dir=tmp_path)
        assert [result.scenario for result in results] == ["A1"]
        assert "ok" in results[0].describe()


def injected_shadowed_spec() -> PlatformSpec:
    """Paper Table 1 plus a deliberately shadowed rule appended at the end."""
    rules = paper_rule_table().as_dicts()
    # A proper subset of t1-row12's match set (bus high only): shadowed, but
    # not an exact duplicate — so lint diagnoses RULES-SHADOWED, not the
    # sharper RULES-CONTRADICTION.
    rules.append({
        "state": "SL4",
        "priorities": ["low"],
        "batteries": ["full"],
        "temperatures": ["low"],
        "buses": ["high"],
        "label": "injected-dead",
    })
    spec = PlatformSpec(
        name="injected",
        ips=[IpDef(
            name="cpu",
            workload=WorkloadDef(kind="periodic", task_count=6,
                                 cycles=20_000, idle_us=300.0),
        )],
        policy=PolicyDef(name="paper", rules=rules),
    )
    spec.validate()
    return spec


class TestInjectedShadowedRule:
    def test_caught_statically_and_dynamically(self, tmp_path):
        spec = injected_shadowed_spec()
        injected = len(spec.policy.rules) - 1

        # Statically: lint flags the injected rule as a hard error
        # (custom tables get ERROR severity, unlike the library table).
        report = lint_spec(spec)
        shadowed = [f for f in report.findings if f.code == "RULES-SHADOWED"
                    and f"rules[{injected}]" in f.path]
        assert shadowed and shadowed[0].severity is Severity.ERROR

        # Dynamically: a traced run never lets the injected rule win.
        result = crosscheck_scenario(spec, trace_dir=tmp_path)
        assert injected in result.unreachable
        assert result.fire_counts.get(injected, 0) == 0
        assert result.ok
        assert result.table_name == "injected-rules"


@pytest.fixture
def registered():
    """Register specs for one test and unregister them afterwards."""
    names = []

    def register(spec):
        register_platform(spec)
        names.append(spec.name)
        return spec.name

    yield register
    for name in names:
        unregister_platform(name)


class TestNameResolution:
    """A registered name cross-checks against the table its spec runs under."""

    def test_non_rule_based_platform_by_name_is_rejected(self, registered, tmp_path):
        name = registered(PlatformSpec(
            name="a1-greedy",
            ips=[IpDef(name="cpu", workload=WorkloadDef(kind="scenario_a"))],
            policy=PolicyDef(name="greedy-sleep"),
        ))
        with pytest.raises(ExperimentError, match="non-rule-based"):
            crosscheck_scenario(name, trace_dir=tmp_path)

    def test_custom_rules_platform_by_name_uses_its_own_table(self, registered, tmp_path):
        spec = injected_shadowed_spec()
        spec.name = "injected-by-name"
        result = crosscheck_scenario(registered(spec), trace_dir=tmp_path)
        assert result.table_name == "injected-by-name-rules"
        injected = len(spec.policy.rules) - 1
        assert injected in result.unreachable
        assert result.ok


class TestDecisionContexts:
    def test_trace_parsing_ignores_other_events(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        trace.write_text(
            '{"t_fs": 0, "kind": "sim.backend", "source": "sim"}\n'
            '{"t_fs": 1, "kind": "lem.decision", "source": "cpu",'
            ' "priority": "low", "battery": "full", "temperature": "low",'
            ' "bus": "medium", "other_ip_energy_j": 0.5}\n',
            encoding="utf-8",
        )
        contexts = decision_contexts(trace)
        assert len(contexts) == 1
        assert contexts[0].bus.value == "medium"
        assert contexts[0].other_ip_energy_j == 0.5

    def test_malformed_decision_raises(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        trace.write_text(
            '{"t_fs": 1, "kind": "lem.decision", "source": "cpu",'
            ' "priority": "nope", "battery": "full", "temperature": "low"}\n',
            encoding="utf-8",
        )
        with pytest.raises(ExperimentError):
            decision_contexts(trace)
