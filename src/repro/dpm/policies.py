"""DPM policies: the paper's rule-based policy and the baselines it is
compared against (and ablated with).

A policy answers the two questions the Local Energy Manager asks:

1. *A task is about to run — in which state?*  (:meth:`DpmPolicy.select_on_state`)
   The answer is usually an ON state; the paper's Table 1 may also answer a
   sleep state, which the LEM interprets as "defer the task until the
   battery/temperature situation improves".
2. *The IP just became idle — should it sleep, and how deep?*
   (:meth:`DpmPolicy.select_idle_state`), given the predicted idle time and
   the break-even analysis of the IP.

Policies are plain strategy objects with no simulator dependencies, so the
experiment runner can swap them (paper policy vs. always-on baseline vs.
timeout policy vs. oracle) without touching the LEM.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.dpm.levels import RuleContext
from repro.dpm.rules import RuleTable, paper_rule_table
from repro.errors import ConfigurationError
from repro.power.breakeven import BreakEvenAnalyzer
from repro.power.states import PowerState
from repro.sim.simtime import SimTime, ms

__all__ = [
    "DpmPolicy",
    "RuleBasedPolicy",
    "AlwaysOnPolicy",
    "GreedySleepPolicy",
    "FixedTimeoutPolicy",
    "OraclePolicy",
]


class DpmPolicy:
    """Strategy interface consumed by the Local Energy Manager."""

    #: short identifier used in reports and ablation tables
    name = "base"
    #: True when the policy sleeps after a fixed timeout instead of using the
    #: idle-time prediction (the LEM then waits ``idle_timeout`` first).
    uses_timeout = False
    #: True when the policy consumes the IP's true upcoming idle time (oracle)
    #: instead of the predictor's estimate.
    uses_idle_hint = False
    #: timeout value and state for timeout-based policies
    idle_timeout: Optional[SimTime] = None
    timeout_state: Optional[PowerState] = None

    def select_on_state(self, context: RuleContext) -> PowerState:
        """State in which the next task should execute (or a sleep state to defer)."""
        raise NotImplementedError

    def select_idle_state(
        self, predicted_idle: SimTime, analyzer: BreakEvenAnalyzer
    ) -> Optional[PowerState]:
        """Low-power state to enter on idleness, or ``None`` to stay put."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class RuleBasedPolicy(DpmPolicy):
    """The paper's policy: Table-1 rules plus break-even-gated sleeping."""

    name = "rule-based"

    def __init__(self, rules: Optional[RuleTable] = None, allow_off: bool = True) -> None:
        self.rules = rules or paper_rule_table()
        self.allow_off = allow_off
        #: how many times each rule (by index) has fired; one policy per LEM,
        #: so the counts are per LEM even when all LEMs share one table
        self.hit_counts: Dict[int, int] = dict.fromkeys(range(len(self.rules.rules)), 0)

    def select_on_state(self, context: RuleContext) -> PowerState:
        index = self.rules.select_index(context)
        self.hit_counts[index] += 1
        return self.rules.rules[index].state

    def select_idle_state(
        self, predicted_idle: SimTime, analyzer: BreakEvenAnalyzer
    ) -> Optional[PowerState]:
        return analyzer.best_state_for(predicted_idle, allow_off=self.allow_off)


class AlwaysOnPolicy(DpmPolicy):
    """The paper's reference: maximum clock frequency, never sleep."""

    name = "always-on"

    def select_on_state(self, context: RuleContext) -> PowerState:
        return PowerState.ON1

    def select_idle_state(
        self, predicted_idle: SimTime, analyzer: BreakEvenAnalyzer
    ) -> Optional[PowerState]:
        return None


class GreedySleepPolicy(DpmPolicy):
    """Runs every task at full speed but sleeps aggressively when idle.

    This isolates the "shut down when idle" half of the paper's DPM from the
    variable-voltage half, which makes it a useful ablation point.
    """

    name = "greedy-sleep"

    def __init__(self, allow_off: bool = True) -> None:
        self.allow_off = allow_off

    def select_on_state(self, context: RuleContext) -> PowerState:
        return PowerState.ON1

    def select_idle_state(
        self, predicted_idle: SimTime, analyzer: BreakEvenAnalyzer
    ) -> Optional[PowerState]:
        return analyzer.best_state_for(predicted_idle, allow_off=self.allow_off)


class FixedTimeoutPolicy(DpmPolicy):
    """Classic timeout DPM: sleep in a fixed state after a fixed idle timeout."""

    name = "fixed-timeout"
    uses_timeout = True

    def __init__(
        self,
        timeout: SimTime = ms(2),
        sleep_state: PowerState = PowerState.SL2,
        on_state: PowerState = PowerState.ON1,
    ) -> None:
        if sleep_state.is_on:
            raise ConfigurationError("the timeout target must be a sleep/off state")
        if not on_state.is_on:
            raise ConfigurationError("the execution state must be an ON state")
        self.idle_timeout = timeout
        self.timeout_state = sleep_state
        self.on_state = on_state

    def select_on_state(self, context: RuleContext) -> PowerState:
        return self.on_state

    def select_idle_state(
        self, predicted_idle: SimTime, analyzer: BreakEvenAnalyzer
    ) -> Optional[PowerState]:
        # Prediction is ignored; the LEM applies the timeout mechanism.
        return self.timeout_state


class OraclePolicy(DpmPolicy):
    """Upper bound: uses the *actual* upcoming idle time instead of a prediction.

    The LEM feeds the oracle the workload's real idle gap (which the traffic
    generator knows); combined with break-even gating this is the best any
    prediction-based shutdown policy could do for idle management, while
    tasks still run at full speed.
    """

    name = "oracle"
    uses_idle_hint = True

    def __init__(self, allow_off: bool = True) -> None:
        self.allow_off = allow_off

    def select_on_state(self, context: RuleContext) -> PowerState:
        return PowerState.ON1

    def select_idle_state(
        self, predicted_idle: SimTime, analyzer: BreakEvenAnalyzer
    ) -> Optional[PowerState]:
        return analyzer.best_state_for(predicted_idle, allow_off=self.allow_off)
