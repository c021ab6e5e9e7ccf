"""DPM configuration facade.

A :class:`DpmSetup` bundles everything that defines "which power management
is running": the policy, the idle-time predictor, the LEM parameters and the
GEM parameters.  Experiments and the SoC builder take a setup object, so
comparing the paper's DPM against a baseline is a one-line change::

    paper   = DpmSetup.paper()
    baseline = DpmSetup.always_on()

Factories (rather than instances) are stored for the policy and predictor
because each LEM needs its own stateful copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.dpm.lem import LemConfig
from repro.dpm.gem import GemConfig
from repro.dpm.policies import (
    AlwaysOnPolicy,
    DpmPolicy,
    FixedTimeoutPolicy,
    GreedySleepPolicy,
    OraclePolicy,
    RuleBasedPolicy,
)
from repro.dpm.predictor import (
    AdaptivePredictor,
    ExponentialAveragePredictor,
    FixedPredictor,
    IdlePredictor,
    LastValuePredictor,
    default_predictor,
)
from repro.dpm.rules import RuleTable
from repro.power.states import PowerState
from repro.sim.simtime import SimTime

__all__ = ["DpmSetup"]


@dataclass
class DpmSetup:
    """Complete description of a power-management configuration."""

    name: str = "paper"
    policy_factory: Callable[[], DpmPolicy] = RuleBasedPolicy
    predictor_factory: Callable[[], IdlePredictor] = default_predictor
    lem_config: LemConfig = field(default_factory=LemConfig)
    gem_config: GemConfig = field(default_factory=GemConfig)
    #: whether the IP passes the true upcoming idle time to the LEM (used by
    #: the oracle policy)
    use_idle_hint: bool = False

    def make_policy(self) -> DpmPolicy:
        """Fresh policy instance for one LEM."""
        return self.policy_factory()

    def make_predictor(self) -> IdlePredictor:
        """Fresh predictor instance for one LEM."""
        return self.predictor_factory()

    # ------------------------------------------------------------------
    # Named presets
    # ------------------------------------------------------------------
    @staticmethod
    def paper(
        rules: Optional[RuleTable] = None,
        allow_off: bool = True,
        predictor_factory: Optional[Callable[[], IdlePredictor]] = None,
    ) -> "DpmSetup":
        """The paper's DPM: Table-1 rules, EWMA predictor, break-even gating."""
        return DpmSetup(
            name="paper",
            policy_factory=lambda: RuleBasedPolicy(rules=rules, allow_off=allow_off),
            predictor_factory=predictor_factory or default_predictor,
        )

    @staticmethod
    def always_on() -> "DpmSetup":
        """The paper's reference: maximum frequency, never sleep."""
        return DpmSetup(name="always-on", policy_factory=AlwaysOnPolicy)

    @staticmethod
    def greedy_sleep(allow_off: bool = True) -> "DpmSetup":
        """Full-speed execution plus break-even-gated sleeping (ablation)."""
        return DpmSetup(
            name="greedy-sleep",
            policy_factory=lambda: GreedySleepPolicy(allow_off=allow_off),
        )

    @staticmethod
    def fixed_timeout(timeout: SimTime, sleep_state: Optional[PowerState] = None) -> "DpmSetup":
        """Classic timeout-based shutdown (ablation)."""
        kwargs: Dict[str, Any] = {"timeout": timeout}
        if sleep_state is not None:
            kwargs["sleep_state"] = sleep_state
        return DpmSetup(
            name="fixed-timeout",
            policy_factory=lambda: FixedTimeoutPolicy(**kwargs),
        )

    @staticmethod
    def oracle() -> "DpmSetup":
        """Perfect idle-time knowledge (upper bound for shutdown policies)."""
        return DpmSetup(name="oracle", policy_factory=OraclePolicy, use_idle_hint=True)

    @staticmethod
    def with_predictor(kind: str) -> "DpmSetup":
        """The paper's policy with a specific predictor (ablation helper).

        ``kind`` is one of ``"fixed"``, ``"last-value"``, ``"ewma"``,
        ``"adaptive"``.
        """
        factories = {
            "fixed": FixedPredictor,
            "last-value": LastValuePredictor,
            "ewma": ExponentialAveragePredictor,
            "adaptive": AdaptivePredictor,
        }
        try:
            factory = factories[kind]
        except KeyError:
            raise ValueError(f"unknown predictor kind {kind!r}") from None
        return DpmSetup(
            name=f"paper+{kind}",
            policy_factory=RuleBasedPolicy,
            predictor_factory=factory,
        )
