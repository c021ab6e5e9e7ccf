"""Shared analysis model: one build of the spec's derived objects.

Every spec analyzer needs the same derived artifacts — the facts of the
instantiated workloads, the power characterisation, the transition table,
its PSM graph facts and break-even analysis per IP, plus the active
selection rule table.  Gathering them in :func:`build_model` keeps the
analyzers cheap and guarantees they reason about the *same* objects the
simulator runs: each IP's workload facts and its
:class:`~repro.platform.build.PowerModel`, PSM facts included, come from the
memoised :func:`repro.platform.build.compile_ip`.  Each :class:`IpModel`
also keeps its :class:`~repro.platform.build.CompiledIp`: reach-lint reads
the transition bounds of the power model and the task and power bounds of
the compiled IP, each derived once and then shared by every spec that
holds the IP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, FrozenSet, List, Optional, Sequence

from repro.dpm.rules import RuleTable, paper_rule_table
from repro.platform.build import LOW_STATES, CompiledIp, PowerModel, WorkloadFacts, compile_ip
from repro.platform.spec import IpDef, PlatformSpec
from repro.power.breakeven import BreakEvenAnalyzer
from repro.power.characterization import PowerCharacterization
from repro.power.states import PowerState
from repro.power.transitions import StateGraph, TransitionTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (reach imports us)
    from repro.lint.reach import ReachResult

__all__ = ["LOW_STATES", "IpModel", "SpecModel", "build_model", "spec_rule_table"]


def spec_rule_table(spec: PlatformSpec) -> Optional[RuleTable]:
    """The selection rule table ``spec`` runs under, if it uses one.

    A missing policy defaults to the paper's DPM; the ``paper`` policy uses
    its custom ``rules`` when given, Table 1 otherwise.  Non-rule-based
    policies (``always-on``, ``greedy-sleep``, ...) return ``None``.
    """
    policy = spec.policy
    if policy is None:
        return paper_rule_table()
    if policy.name != "paper":
        return None
    if policy.rules:
        return RuleTable.from_dicts(policy.rules, name=f"{spec.name}-rules")
    return paper_rule_table()


@dataclass
class IpModel:
    """Derived per-IP artifacts, as the simulator would build them."""

    index: int
    ip: IpDef
    #: the memoised compiled IP: reach-lint reads its task and power bounds
    compiled: CompiledIp
    power: PowerModel
    characterization: PowerCharacterization
    transitions: TransitionTable
    #: the transition table as a directed graph: state -> its targets
    graph: StateGraph
    initial: PowerState
    #: states reachable from ``initial`` (``initial`` included)
    forward: FrozenSet[PowerState]
    #: low-power states with a complete ON1 round trip (entry and wake)
    complete_states: Sequence[PowerState]
    #: break-even analysis over ``complete_states``
    breakeven: Optional[BreakEvenAnalyzer]
    #: the compiled IP's workload facts (``None`` when the workload cannot
    #: be built)
    facts: Optional[WorkloadFacts]
    workload_error: Optional[str] = None

    @property
    def path(self) -> str:
        return f"platform.ips[{self.index}]"

    @property
    def max_frequency_hz(self) -> float:
        """ON1 clock frequency — the fastest the IP can retire cycles."""
        return self.characterization.operating_points.point(PowerState.ON1).frequency_hz

    def min_duration_s(self) -> Optional[float]:
        """Lower bound on the workload's wall time: full speed, zero DPM
        overhead — busy cycles at ON1 frequency plus the mandatory idle gaps."""
        if self.facts is None:
            return None
        busy_s = self.facts.total_cycles / self.max_frequency_hz
        return busy_s + self.facts.total_idle.seconds


@dataclass
class SpecModel:
    """Everything the five spec analyzers read."""

    spec: PlatformSpec
    table: Optional[RuleTable]
    ips: List[IpModel]
    #: trajectory envelope from :func:`repro.lint.reach.compute_reach`;
    #: ``None`` unless the lint run was asked for reachability analysis
    reach: Optional["ReachResult"] = None

    @property
    def horizon_s(self) -> float:
        return self.spec.max_time_ms / 1e3


def _build_ip(index: int, ip: IpDef) -> IpModel:
    compiled = compile_ip(ip)
    power = compiled.power
    initial = compiled.initial
    # A spec that skipped validation can describe an uninstantiable workload
    # (e.g. a one-task scenario A sequence); the workload analyzer turns the
    # recorded error into a finding instead of the whole lint run crashing.
    workload_error = None if compiled.workload is not None else str(compiled.error)
    return IpModel(
        index=index,
        ip=ip,
        compiled=compiled,
        power=power,
        characterization=power.characterization,
        transitions=power.transitions,
        graph=power.graph,
        initial=initial,
        forward=power.reachable[initial],
        complete_states=power.complete_states,
        breakeven=power.lint_breakeven,
        facts=compiled.facts,
        workload_error=workload_error,
    )


def build_model(spec: PlatformSpec) -> SpecModel:
    """Derive the analysis model for one (already validated) spec."""
    return SpecModel(
        spec=spec,
        table=spec_rule_table(spec),
        ips=[_build_ip(index, ip) for index, ip in enumerate(spec.ips)],
    )
