"""The trajectory-reachability engine: envelopes, pins and edge cases.

The soundness direction (envelope contains every decision a run logs) is
the ``lint_reach`` differential oracle, exercised in
``tests/lint/test_crosscheck.py`` and by the fuzzer; these tests pin the
*precision* side — the envelope is tight enough to kill trajectory-dead
rules on the paper platforms — plus the interval edge cases of the issue.
"""

import math

import pytest

from repro.battery.status import BatteryLevel
from repro.dpm.levels import RuleContext
from repro.dpm.rules import paper_rule_table
from repro.lint import Severity, build_model, compute_reach, lint_spec
from repro.lint.findings import CODES
from repro.lint.reach import (
    WIDEN_LIMIT,
    _battery_envelope,
    _temperature_envelope,
)
from repro.platform import (
    BatteryDef,
    IpDef,
    PlatformSpec,
    PolicyDef,
    PsmDef,
    ThermalDef,
    TransitionDef,
    WorkloadDef,
)
from repro.platform.build import build_battery_config, build_thermal_config
from repro.platform.registry import platform_by_name
from repro.soc.bus import BusLevel
from repro.soc.task import TaskPriority
from repro.thermal.level import TemperatureLevel


def reach_for(name):
    return compute_reach(build_model(platform_by_name(name)))


class TestPaperPins:
    """Empirical pins over the registered paper/library platforms."""

    def test_a1_battery_never_leaves_full(self):
        reach = reach_for("A1")
        assert reach.battery_set == {BatteryLevel.FULL}
        assert reach.soc.hi == pytest.approx(0.95)
        assert reach.soc.lo == pytest.approx(0.934, abs=2e-3)
        assert reach.converged
        assert reach.iterations == 2

    def test_a1_resident_states_refined_by_fixpoint(self):
        reach = reach_for("A1")
        resident = {str(s) for s in reach.ips[0].resident_states}
        # The paper table never selects ON3 for A1's contexts, so the
        # fixpoint drops it from the resident set.
        assert resident == {"ON1", "ON2", "ON4"}

    def test_a1_thermal_high_has_positive_entry_bound(self):
        reach = reach_for("A1")
        spans = {str(span.level): span.earliest_s for span in reach.temperature_levels}
        assert spans["low"] == 0.0
        assert "high" in spans
        # Heating to the high band takes time; the bound must be a real
        # positive crossing, not the degenerate "reachable from t=0".
        assert spans["high"] > 0.1

    def test_a1_lint_reports_trajectory_dead_table_rows(self):
        report = lint_spec(platform_by_name("A1"), reach=True)
        dead = [f for f in report.findings if f.code == "RULE-DEAD-TRAJECTORY"]
        assert len(dead) == 12
        assert all(f.severity is Severity.INFO for f in dead)
        dead_indices = {int(f.path.rsplit("[", 1)[1].rstrip("]")) for f in dead}
        # Table 1 row 1 (index 0: emergency high-priority grant at battery
        # empty) looked feasible to the static analyzers but cannot fire
        # inside A1's horizon — the acceptance pin of this PR.
        assert 0 in dead_indices
        assert dead_indices == {0, 2, 4, 6, 7, 8, 9, 12, 15, 16, 17, 18}
        # The reach pass is additive: no new warnings or errors on A1.
        assert report.count(Severity.ERROR) == 0
        assert report.count(Severity.WARN) == 0

    def test_iot_duty_cycle_never_heats_to_high(self):
        reach = reach_for("iot-duty-cycle")
        assert TemperatureLevel.HIGH not in reach.temperature_set

    def test_reach_describe_mentions_fixpoint(self):
        text = reach_for("A1").describe()
        assert "reach: A1" in text
        assert "fixpoint" in text
        assert "ip[0]" in text


class TestUncoveredDowngrade:
    """An uncovered-but-unreachable context is an error without the
    envelope and an info with it."""

    def spec(self):
        # Covers only full/high battery contexts; a huge battery pinned
        # near full keeps the envelope inside those levels, so the
        # uncovered medium/low/empty contexts are trajectory-dead.
        return PlatformSpec(
            name="uncovered-downgrade",
            ips=[IpDef(name="cpu", workload=WorkloadDef(
                kind="periodic", task_count=4, cycles=10_000, idle_us=200.0,
            ))],
            policy=PolicyDef(name="paper", rules=[
                {"state": "ON1", "batteries": ["full", "high"], "label": "top"},
            ]),
            battery=BatteryDef(capacity_j=1e6, state_of_charge=0.95),
            max_time_ms=100.0,
        )

    def test_error_without_reach(self):
        report = lint_spec(self.spec())
        uncovered = [f for f in report.findings if f.code == "RULES-UNCOVERED"]
        assert any(f.severity is Severity.ERROR for f in uncovered)

    def test_downgraded_to_info_with_reach(self):
        report = lint_spec(self.spec(), reach=True)
        uncovered = [f for f in report.findings if f.code == "RULES-UNCOVERED"]
        assert uncovered
        assert all(f.severity is not Severity.ERROR for f in uncovered)
        assert any("outside the reachable trajectory" in f.message for f in uncovered)


class TestEnvelopeEdgeCases:
    """The interval edge cases called out by the issue."""

    def battery_cfg(self, **overrides):
        return build_battery_config(BatteryDef(**overrides))

    def thermal_cfg(self, **overrides):
        return build_thermal_config(ThermalDef(**overrides), ip_count=1)

    def test_zero_length_horizon_battery_is_a_point(self):
        cfg = self.battery_cfg(state_of_charge=0.7)
        envelope, spans = _battery_envelope(cfg, 0.0, 1e9, 0.0, False, 0.0)
        assert envelope.lo == envelope.hi == 0.7
        assert [span.level for span in spans] == [BatteryLevel.HIGH]
        assert spans[0].earliest_s == 0.0

    def test_zero_length_horizon_temperature_is_initial(self):
        cfg = self.thermal_cfg(initial_c=30.0, ambient_c=25.0)
        envelope, spans = _temperature_envelope(
            cfg, 0.0, 1e9, 0.0, False, steady_proj_c=-math.inf, proj_decay=1.0,
        )
        assert envelope.lo == envelope.hi == 30.0
        assert [span.level for span in spans] == [TemperatureLevel.LOW]

    def test_battery_exactly_at_level_boundary(self):
        # soc exactly at the high threshold classifies as FULL
        # (classify is strict-below), and any drain at all makes HIGH
        # enterable immediately — entry bound 0, not a negative crossing.
        cfg = self.battery_cfg(state_of_charge=0.85)
        envelope, spans = _battery_envelope(cfg, 10.0, 1.0, 0.0, False, 0.0)
        assert envelope.hi == 0.85
        levels = {str(span.level): span.earliest_s for span in spans}
        assert levels["full"] == 0.0
        assert "high" in levels
        assert levels["high"] == 0.0

    def test_boundary_soc_through_public_api(self):
        spec = PlatformSpec(
            name="boundary",
            ips=[IpDef(name="cpu", workload=WorkloadDef(
                kind="periodic", task_count=2, cycles=5_000, idle_us=100.0,
            ))],
            battery=BatteryDef(state_of_charge=0.85),
            max_time_ms=10.0,
        )
        reach = compute_reach(build_model(spec))
        assert BatteryLevel.FULL in reach.battery_set

    def test_never_crossing_thermal_envelope(self):
        # Steady state at the power ceiling sits far below the medium
        # band, so the envelope never crosses and only LOW is reachable.
        cfg = self.thermal_cfg(initial_c=25.0, ambient_c=25.0)
        envelope, spans = _temperature_envelope(
            cfg, 1e6, 0.1, 0.0, False, steady_proj_c=-math.inf, proj_decay=1.0,
        )
        assert envelope.hi < cfg.thresholds.medium_c
        assert [span.level for span in spans] == [TemperatureLevel.LOW]

    @pytest.mark.parametrize("name", ["A1", "B", "C", "phone-bursty", "sustained-throttled"])
    def test_fixpoint_terminates_on_oscillating_workloads(self, name):
        # phone-bursty alternates burst/idle phases and C mixes three IPs
        # with different cadences; the downward iteration must still hit a
        # fixpoint inside the cap (every iterate stays sound regardless).
        reach = reach_for(name)
        assert reach.iterations <= WIDEN_LIMIT
        assert reach.converged
        assert "widened" not in " ".join(reach.assumptions)


class TestDegradation:
    """Unknown workloads and unbounded transition rates degrade honestly."""

    def test_zero_latency_transition_degrades_to_trivial_bounds(self):
        spec = PlatformSpec(
            name="unbounded-transition",
            ips=[IpDef(
                name="cpu",
                workload=WorkloadDef(
                    kind="periodic", task_count=2, cycles=5_000, idle_us=100.0,
                ),
                psm=PsmDef(transitions=[TransitionDef(
                    source="ON1", target="SL1", energy_j=1e-6, latency_us=0.0,
                )]),
            )],
            max_time_ms=10.0,
        )
        reach = compute_reach(build_model(spec))
        assert any("zero latency" in note for note in reach.assumptions)
        # The battery envelope honestly widens to [0, soc0].
        assert reach.run_soc.lo == 0.0
        assert not math.isfinite(reach.window_power_w)
        # Trivial is still sound: every battery level at/below the start
        # is reachable from t=0.
        assert BatteryLevel.EMPTY in reach.battery_set

    def test_uninstantiable_workload_assumes_worst_case(self):
        spec = PlatformSpec(
            name="unknown-workload",
            # one task: scenario A needs a busy and an idle half
            ips=[IpDef(name="cpu", workload=WorkloadDef(kind="scenario_a", task_count=1))],
            max_time_ms=10.0,
        )
        # Validation rejects it; lint still meets it in an unvalidated spec.
        reach = compute_reach(build_model(spec))
        assert any("uninstantiable" in note for note in reach.assumptions)
        # Worst case on every axis: all priorities, no idle-gap bound.
        assert set(reach.ips[0].priorities) == set(TaskPriority)
        assert reach.ips[0].max_idle_gap_s is None
        # The raw run envelope stays finite (idle/active power ceilings are
        # spec-level), but the decision-visible one widens all the way down:
        # no finite task-energy ceiling means unbounded projection slack.
        assert reach.ips[0].projection_slack_j == math.inf
        assert reach.soc.lo == 0.0


class TestResultQueries:
    def test_new_codes_registered(self):
        for code in ("RULE-DEAD-TRAJECTORY", "PSM-BREAK-EVEN-IDLE",
                     "POLICY-GEM-UNREACHABLE"):
            assert code in CODES

    def test_is_reachable_checks_every_axis(self):
        reach = reach_for("A1")
        live = RuleContext(
            TaskPriority.HIGH, BatteryLevel.FULL, TemperatureLevel.LOW,
            bus=BusLevel.LOW,
        )
        assert reach.is_reachable(live)
        # A1 never leaves FULL, so a LOW-battery context is out.
        dead_battery = RuleContext(
            TaskPriority.HIGH, BatteryLevel.LOW, TemperatureLevel.LOW,
            bus=BusLevel.LOW,
        )
        assert not reach.is_reachable(dead_battery)

    def test_is_reachable_rejects_energy_beyond_gem_bound(self):
        # A1 is single-IP: the GEM can never report pending other-IP energy.
        reach = reach_for("A1")
        assert reach.other_energy_bound_j == 0.0
        context = RuleContext(
            TaskPriority.HIGH, BatteryLevel.FULL, TemperatureLevel.LOW,
            bus=BusLevel.LOW, other_ip_energy_j=1.0,
        )
        assert not reach.is_reachable(context)

    def test_live_rules_exclude_trajectory_dead_and_shadowed(self):
        reach = reach_for("A1")
        table = paper_rule_table()
        live = reach.live_rule_indices(table)
        dead = {0, 2, 4, 6, 7, 8, 9, 12, 15, 16, 17, 18}
        assert live.isdisjoint(dead)
        assert 5 not in live  # statically shadowed row never first-matches
        assert live  # the platform does decide through the table
        selected = {str(s) for s in reach.selected_on_states(table)}
        assert selected == {"ON1", "ON2", "ON4"}
