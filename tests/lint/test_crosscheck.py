"""Dynamic cross-validation: static reachability claims vs real runs.

The ``lint_reach`` differential oracle is the one check that proves lint's
claims about a rule table against the run itself: every decision context
of the run's LEM decision log lies inside the reachable envelope, and no
statically shadowed or trajectory-dead rule wins a decision.  Across the
paper's six scenarios the statically-dead Table 1 row never wins; an
injected shadowed rule is caught by lint *and* fires zero times at runtime
— a true positive end to end; a platform without a rule table still gets
the envelope check; a dead rule that wins a decision fails the run; and
a platform resolved by its registered name is judged against its own
table.  The decision log it reads is pinned against
the ``lem.decision`` events of a traced run.
"""

import pytest

from repro.dpm.rules import RuleTable, paper_rule_table
from repro.errors import ExperimentError
from repro.experiments import (
    decision_contexts,
    decision_log_contexts,
    replay_decisions,
    run_differential,
    run_scenario,
)
from repro.experiments import differential
from repro.lint import Severity, build_model, lint_spec, spec_rule_table
from repro.lint.reach import ReachResult, compute_reach
from repro.platform import (
    PAPER_PLATFORM_NAMES,
    IpDef,
    PlatformSpec,
    PolicyDef,
    WorkloadDef,
    platform_by_name,
    platform_names,
    register_platform,
    unregister_platform,
)
from repro.obs.session import TraceRequest


def lint_reach(spec, monkeypatch):
    """The ``lint_reach`` verdict on ``spec`` and the run the oracle judged."""
    runs = []

    def recorded(*args, **kwargs):
        runs.append(run_scenario(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(differential, "run_scenario", recorded)
    result = run_differential(spec, oracles=["lint_reach"])
    assert len(runs) == 1
    return result.verdict("lint_reach"), runs[0]


def rule_wins(spec, run):
    """Rule index -> decisions it won in ``run``, under the spec's table."""
    contexts = decision_log_contexts(run.soc.decision_log)
    return replay_decisions(spec_rule_table(spec), contexts), len(contexts)


class TestPaperScenarios:
    @pytest.mark.parametrize("name", PAPER_PLATFORM_NAMES)
    def test_statically_dead_rules_never_fire(self, name, monkeypatch):
        spec = platform_by_name(name)
        verdict, run = lint_reach(spec, monkeypatch)
        assert verdict.status == "pass", verdict.detail
        wins, decisions = rule_wins(spec, run)
        assert decisions > 0
        assert verdict.detail == f"{decisions} decision(s) contained"
        # Every decision was replayed against the table the run used.
        assert sum(wins.values()) == decisions
        # Table 1's row 6 (index 5) is the statically-dead rule under test.
        table = spec_rule_table(spec)
        assert 5 in table.unreachable_rules()
        assert wins.get(5, 0) == 0
        # The narrow paper platforms always leave some Table 1 rows dead,
        # and none of them wins a decision.
        live = compute_reach(build_model(spec)).live_rule_indices(table)
        dead = [index for index in range(len(table.rules)) if index not in live]
        assert dead
        assert not [index for index in dead if wins.get(index)]


class TestDeadRuleWins:
    """A rule that lint calls dead and that wins a decision fails the run."""

    def test_a_winning_statically_shadowed_rule_fails(self, monkeypatch):
        monkeypatch.setattr(RuleTable, "unreachable_rules",
                            lambda self: list(range(len(self.rules))))
        verdict, _ = lint_reach(platform_by_name("A1"), monkeypatch)
        assert verdict.status == "fail"
        assert "statically shadowed rule" in verdict.detail
        assert "trajectory-dead rule" not in verdict.detail

    def test_a_winning_trajectory_dead_rule_fails(self, monkeypatch):
        monkeypatch.setattr(ReachResult, "live_rule_indices", lambda self, table: frozenset())
        verdict, _ = lint_reach(platform_by_name("A1"), monkeypatch)
        assert verdict.status == "fail"
        assert "trajectory-dead rule" in verdict.detail
        assert "statically shadowed rule" not in verdict.detail


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
    def test_caught_statically_and_dynamically(self, monkeypatch):
        spec = injected_shadowed_spec()
        injected = len(spec.policy.rules) - 1

        # Statically: lint flags the injected rule as a hard error
        # (custom tables get ERROR severity, unlike the library table).
        report = lint_spec(spec)
        shadowed = [f for f in report.findings if f.code == "RULES-SHADOWED"
                    and f"rules[{injected}]" in f.path]
        assert shadowed and shadowed[0].severity is Severity.ERROR

        # Dynamically: the run never lets the injected rule win, and the
        # oracle judged it against the spec's own table.
        verdict, run = lint_reach(spec, monkeypatch)
        assert verdict.status == "pass", verdict.detail
        table = spec_rule_table(spec)
        assert table.name == "injected-rules"
        assert injected in table.unreachable_rules()
        wins, decisions = rule_wins(spec, run)
        assert decisions > 0
        assert wins.get(injected, 0) == 0


class TestEnvelopeAlone:
    """A platform without a rule table still gets the containment check."""

    def greedy_spec(self):
        return PlatformSpec(
            name="a1-greedy",
            ips=[IpDef(name="cpu", workload=WorkloadDef(kind="scenario_a"))],
            policy=PolicyDef(name="greedy-sleep"),
        )

    def test_greedy_sleep_passes_on_containment(self, monkeypatch):
        spec = self.greedy_spec()
        assert spec_rule_table(spec) is None
        verdict, run = lint_reach(spec, monkeypatch)
        assert verdict.status == "pass", verdict.detail
        decisions = len(run.soc.decision_log)
        assert decisions > 0
        assert verdict.detail == f"{decisions} decision(s) contained"

    def test_an_escaping_context_fails_without_a_table(self, monkeypatch):
        monkeypatch.setattr(ReachResult, "is_reachable", lambda self, context: False)
        verdict, _ = lint_reach(self.greedy_spec(), monkeypatch)
        assert verdict.status == "fail"
        assert "escapes the reachable envelope" in verdict.detail


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
    """A registered platform is judged against the table its spec runs under."""

    def test_non_rule_based_platform_by_name_gets_the_envelope_check(
        self, registered, monkeypatch
    ):
        name = registered(TestEnvelopeAlone().greedy_spec())
        spec = platform_by_name(name)
        assert spec_rule_table(spec) is None
        verdict, run = lint_reach(spec, monkeypatch)
        assert verdict.status == "pass", verdict.detail
        assert verdict.detail == f"{len(run.soc.decision_log)} decision(s) contained"

    def test_custom_rules_platform_by_name_uses_its_own_table(self, registered, monkeypatch):
        spec = injected_shadowed_spec()
        spec.name = "injected-by-name"
        resolved = platform_by_name(registered(spec))
        table = spec_rule_table(resolved)
        assert table.name == "injected-by-name-rules"
        injected = len(spec.policy.rules) - 1
        assert injected in table.unreachable_rules()
        verdict, run = lint_reach(resolved, monkeypatch)
        assert verdict.status == "pass", verdict.detail
        wins, decisions = rule_wins(resolved, run)
        assert decisions > 0
        assert wins.get(injected, 0) == 0


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


class TestDecisionLog:
    @pytest.mark.parametrize("name", platform_names())
    def test_log_contexts_equal_the_traced_contexts(self, name, tmp_path):
        # The run-wide decision log of an untraced run replaces the
        # lem.decision trace: same contexts, same (grant) order.
        trace_path = tmp_path / "trace.jsonl"
        request = TraceRequest(format="jsonl", path=str(trace_path), events=("lem.decision",))
        traced = run_scenario(name, trace=request)
        untraced = run_scenario(name, trace=False)
        expected = decision_contexts(traced.trace_path or trace_path)
        assert expected
        assert decision_log_contexts(untraced.soc.decision_log) == expected
