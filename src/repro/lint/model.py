"""Shared analysis model: one build of the spec's derived objects.

Every spec analyzer needs the same derived artifacts — the instantiated
workloads, the power characterisation, the transition table and the
break-even analysis per IP, plus the active selection rule table.  Building
them once in :func:`build_model` keeps the analyzers cheap and guarantees
they all reason about the *same* objects the simulator runs: each IP's
characterisation, transition table and workload come from the memoised
:func:`repro.platform.build.compile_ip` a run of the spec uses too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.dpm.rules import RuleTable, paper_rule_table
from repro.platform.build import compile_ip
from repro.platform.spec import IpDef, PlatformSpec
from repro.power.breakeven import BreakEvenAnalyzer
from repro.power.characterization import PowerCharacterization
from repro.power.states import SLEEP_STATES, PowerState
from repro.power.transitions import TransitionTable
from repro.soc.workload import Workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (reach imports us)
    from repro.lint.reach import ReachResult

__all__ = ["IpModel", "SpecModel", "build_model", "spec_rule_table"]

#: Candidate low-power states in analysis order (shallow to deep).
LOW_STATES = tuple(SLEEP_STATES) + (PowerState.OFF,)


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


def reachable_from(graph: Dict[PowerState, Set[PowerState]], start: PowerState) -> Set[PowerState]:
    """States reachable from ``start`` (itself included) in a transition graph."""
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for successor in graph.get(node, ()):
            if successor not in seen:
                seen.add(successor)
                frontier.append(successor)
    return seen


@dataclass
class IpModel:
    """Derived per-IP artifacts, as the simulator would build them."""

    index: int
    ip: IpDef
    characterization: PowerCharacterization
    transitions: TransitionTable
    #: the transition table as a directed graph: state -> its targets
    graph: Dict[PowerState, Set[PowerState]]
    initial: PowerState
    #: states reachable from ``initial`` (``initial`` included)
    forward: Set[PowerState]
    #: low-power states with a complete ON1 round trip (entry and wake)
    complete_states: List[PowerState]
    breakeven: Optional[BreakEvenAnalyzer]
    workload: Optional[Workload]
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
        if self.workload is None:
            return None
        busy_s = self.workload.total_cycles / self.max_frequency_hz
        return busy_s + self.workload.total_idle.seconds


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
    transitions = compiled.transitions
    graph: Dict[PowerState, Set[PowerState]] = {}
    for source, target in transitions.transitions:
        graph.setdefault(source, set()).add(target)
    initial = PowerState(ip.initial_state)
    complete = [
        state
        for state in LOW_STATES
        if transitions.is_allowed(PowerState.ON1, state)
        and transitions.is_allowed(state, PowerState.ON1)
    ]
    breakeven = (
        BreakEvenAnalyzer(compiled.characterization, transitions, candidate_states=complete)
        if complete
        else None
    )
    # A validated spec can still describe an uninstantiable workload (e.g. a
    # zero-cycle explicit task); the workload analyzer turns the recorded
    # error into a finding instead of the whole lint run crashing.
    workload_error = None if compiled.workload is not None else str(compiled.error)
    return IpModel(
        index=index,
        ip=ip,
        characterization=compiled.characterization,
        transitions=transitions,
        graph=graph,
        initial=initial,
        forward=reachable_from(graph, initial),
        complete_states=complete,
        breakeven=breakeven,
        workload=compiled.workload,
        workload_error=workload_error,
    )


def build_model(spec: PlatformSpec) -> SpecModel:
    """Derive the analysis model for one (already validated) spec."""
    return SpecModel(
        spec=spec,
        table=spec_rule_table(spec),
        ips=[_build_ip(index, ip) for index, ip in enumerate(spec.ips)],
    )
