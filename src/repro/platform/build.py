"""Bridge from a :class:`~repro.platform.spec.PlatformSpec` to runnable objects.

The spec tree is pure data; this module turns it into the library's value
objects (:class:`~repro.soc.soc.IpSpec`, :class:`~repro.soc.soc.SocConfig`,
:class:`~repro.power.characterization.PowerCharacterization`,
:class:`~repro.power.transitions.TransitionTable`,
:class:`~repro.dpm.controller.DpmSetup`) that
:func:`repro.experiments.runner.run_scenario` assembles into a SoC.

What no run changes is built by :func:`compile_ip` and shared by every run
and lint in the process: an IP's generated workload (and, on first use, the
workload facts lint reads) once per IP content, its :class:`PowerModel`
(characterisation, transitions, break-even analyses and PSM facts) once per
power content, whatever the IP's name or workload.

Defaults contract: an optional knob left unset builds exactly what the
library would build without it (``None`` characterisation and transitions,
the named battery/thermal presets below, the generators' own defaults) —
that is what keeps the six paper rows of :mod:`repro.platform.registry`
thin while the pinned goldens stay bit-identical.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import weakref
from collections import OrderedDict
from types import MappingProxyType
from typing import Callable, Dict, FrozenSet, NamedTuple, Optional, Set, Tuple

from repro.battery.model import BatteryConfig
from repro.dpm.controller import DpmSetup
from repro.dpm.rules import RuleTable
from repro.dpm.predictor import (
    AdaptivePredictor,
    ExponentialAveragePredictor,
    FixedPredictor,
    LastValuePredictor,
)
from repro.errors import PlatformError, ReproError
from repro.platform.spec import IP_ROLES, BatteryDef, IpDef, PlatformSpec, PolicyDef, ThermalDef, WorkloadDef
from repro.power.breakeven import BreakEvenAnalyzer
from repro.power.characterization import (
    DEFAULT_ACTIVITY,
    DEFAULT_RESIDUAL_FRACTION,
    InstructionClass,
    PowerCharacterization,
    default_characterization,
)
from repro.power.operating_point import OperatingPoint, OperatingPointTable
from repro.power.states import ON_STATES, SLEEP_STATES, PowerState
from repro.power.transitions import StateGraph, TransitionCost, TransitionTable, default_transition_table
from repro.sim.simtime import SimTime, ms, us
from repro.soc.soc import IpSpec, SocConfig, resolve_power_model
from repro.soc.task import TaskPriority
from repro.soc.workload import (
    Workload,
    bursty_workload,
    high_activity_workload,
    low_activity_workload,
    periodic_workload,
    random_workload,
    scenario_a_workload,
)
from repro.thermal.model import ThermalConfig

__all__ = [
    "COMPILED_IP_LIMIT",
    "COMPILED_ITEM_LIMIT",
    "CompiledIp",
    "LOW_STATES",
    "PowerModel",
    "TaskBounds",
    "TransitionBounds",
    "WorkloadFacts",
    "battery_condition",
    "build_battery_config",
    "build_characterization",
    "build_dpm_setup",
    "build_soc_config",
    "build_thermal_config",
    "build_transitions",
    "build_workload",
    "compile_ip",
    "platform_setup",
    "thermal_condition",
]

_PREDICTOR_FACTORIES = {
    "fixed": FixedPredictor,
    "last-value": LastValuePredictor,
    "ewma": ExponentialAveragePredictor,
    "adaptive": AdaptivePredictor,
}


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def build_workload(wdef: WorkloadDef) -> Workload:
    """Instantiate the workload described by ``wdef``.

    Fields left unset fall through to the generator's own defaults, so the
    mapping stays in one place.
    """
    kwargs: Dict[str, object] = {}

    def put(key: str, value: object) -> None:
        if value is not None:
            kwargs[key] = value

    kind = wdef.kind
    if kind == "explicit":
        return _post_transform(
            wdef, Workload.from_dicts(wdef.items or [], name=wdef.name or "workload")
        )
    if kind == "scenario_a":
        put("seed", wdef.seed)
        put("task_count", wdef.task_count)
        workload = scenario_a_workload(**kwargs)
        if wdef.name:
            workload.name = wdef.name
        return _post_transform(wdef, workload)

    put("name", wdef.name)
    put("seed", wdef.seed)
    if wdef.priorities is not None:
        kwargs["priorities"] = tuple(TaskPriority(p) for p in wdef.priorities)
    if kind == "periodic":
        kwargs.pop("seed", None)  # deterministic generator
        put("task_count", wdef.task_count)
        put("cycles", wdef.cycles)
        kwargs.pop("priorities", None)
        if wdef.idle_us is not None:
            kwargs["idle"] = us(wdef.idle_us)
        if wdef.priority is not None:
            kwargs["priority"] = TaskPriority(wdef.priority)
        if wdef.instruction_class is not None:
            kwargs["instruction_class"] = InstructionClass(wdef.instruction_class)
        workload = periodic_workload(**kwargs)
    elif kind == "random":
        put("task_count", wdef.task_count)
        if wdef.cycles_min is not None:
            kwargs["cycles_range"] = (wdef.cycles_min, wdef.cycles_max)
        if wdef.idle_min_us is not None:
            kwargs["idle_range"] = (us(wdef.idle_min_us), us(wdef.idle_max_us))
        workload = random_workload(**kwargs)
    elif kind == "high_activity":
        put("task_count", wdef.task_count)
        workload = high_activity_workload(**kwargs)
    elif kind == "low_activity":
        put("task_count", wdef.task_count)
        workload = low_activity_workload(**kwargs)
    elif kind == "bursty":
        put("burst_count", wdef.burst_count)
        put("tasks_per_burst", wdef.tasks_per_burst)
        if wdef.cycles_min is not None:
            kwargs["cycles_range"] = (wdef.cycles_min, wdef.cycles_max)
        if wdef.intra_burst_idle_us is not None:
            kwargs["intra_burst_idle"] = us(wdef.intra_burst_idle_us)
        if wdef.inter_burst_idle_us is not None:
            kwargs["inter_burst_idle"] = us(wdef.inter_burst_idle_us)
        workload = bursty_workload(**kwargs)
    else:  # pragma: no cover - validate() rejects unknown kinds first
        raise PlatformError(f"unknown workload kind {kind!r}")
    return _post_transform(wdef, workload)


def _post_transform(wdef: WorkloadDef, workload: Workload) -> Workload:
    if wdef.force_priority is not None:
        workload = workload.with_priority(TaskPriority(wdef.force_priority))
    if wdef.idle_scale is not None:
        workload = workload.scaled_idle(wdef.idle_scale)
    return workload


# ----------------------------------------------------------------------
# Characterisation and transitions
# ----------------------------------------------------------------------
def build_characterization(ipdef: IpDef) -> Optional[PowerCharacterization]:
    """The IP's characterisation, or ``None`` for the library default.

    Returning ``None`` (rather than ``default_characterization()``) lets
    :class:`~repro.soc.soc.IpSpec` apply the library default itself, so a
    thin spec builds exactly the objects the goldens were recorded with.
    """
    if not ipdef.has_custom_characterization():
        return None
    if ipdef.operating_points is not None:
        table = OperatingPointTable(
            OperatingPoint(
                state=PowerState(p.state),
                voltage_v=p.voltage_v,
                frequency_hz=p.frequency_hz,
            )
            for p in ipdef.operating_points
        )
    else:
        from repro.power.operating_point import default_operating_points

        table = default_operating_points(
            max_frequency_hz=ipdef.max_frequency_hz or 200e6,
            max_voltage_v=ipdef.max_voltage_v or 1.2,
        )
    activity = dict(DEFAULT_ACTIVITY)
    if ipdef.activity_by_class:
        activity.update(
            {InstructionClass(key): value for key, value in ipdef.activity_by_class.items()}
        )
    residual = dict(DEFAULT_RESIDUAL_FRACTION)
    if ipdef.residual_fraction:
        residual.update(
            {PowerState(key): value for key, value in ipdef.residual_fraction.items()}
        )
    kwargs: Dict[str, object] = {
        "operating_points": table,
        "activity_by_class": activity,
        "residual_fraction": residual,
    }
    if ipdef.effective_capacitance_f is not None:
        kwargs["effective_capacitance_f"] = ipdef.effective_capacitance_f
    if ipdef.idle_activity is not None:
        kwargs["idle_activity"] = ipdef.idle_activity
    if ipdef.leakage_coefficient is not None:
        kwargs["leakage_coefficient"] = ipdef.leakage_coefficient
    return PowerCharacterization(**kwargs)


def build_transitions(
    ipdef: IpDef, characterization: Optional[PowerCharacterization]
) -> Optional[TransitionTable]:
    """The IP's transition table, or ``None`` for the generated default."""
    psm = ipdef.psm
    if psm is None:
        return None
    reference = characterization or default_characterization()
    kwargs: Dict[str, object] = {
        "reference_power_w": reference.active_power_w(PowerState.ON1),
    }
    if psm.dvfs_latency_us is not None:
        kwargs["dvfs_latency"] = us(psm.dvfs_latency_us)
    if psm.entry_latency_us:
        kwargs["sleep_entry_latency"] = {
            PowerState(state): us(value) for state, value in psm.entry_latency_us.items()
        }
    if psm.wakeup_latency_us:
        kwargs["wakeup_latency"] = {
            PowerState(state): us(value) for state, value in psm.wakeup_latency_us.items()
        }
    table = default_transition_table(**kwargs)
    if not psm.transitions:
        return table
    costs: Dict[Tuple[PowerState, PowerState], TransitionCost] = {
        pair: table.cost(*pair) for pair in table.transitions
    }
    for entry in psm.transitions:
        pair = (PowerState(entry.source), PowerState(entry.target))
        if entry.allowed:
            costs[pair] = TransitionCost(entry.energy_j, us(entry.latency_us))
        else:
            costs.pop(pair, None)
    return TransitionTable(costs)


# ----------------------------------------------------------------------
# Compiled IPs
# ----------------------------------------------------------------------
#: Candidate low-power states in analysis order (shallow to deep).
LOW_STATES: Tuple[PowerState, ...] = tuple(SLEEP_STATES) + (PowerState.OFF,)
#: IpDef fields that do not shape the power model.
_NON_POWER_FIELDS = frozenset(name for name, role in IP_ROLES.items() if role != "power")


class TransitionBounds(NamedTuple):
    """Reach-lint's bounds on the transitions an IP can take from one initial state."""

    #: largest ``energy / latency`` over the reachable positive-energy
    #: transitions of nonzero latency (W)
    rate_w: float
    #: largest single transition deposit (J)
    max_energy_j: float
    #: reachable transitions with positive energy at zero latency, in table order
    zero_latency: Tuple[Tuple[PowerState, PowerState], ...]


def _transition_bounds(transitions: TransitionTable, forward: FrozenSet[PowerState]) -> TransitionBounds:
    rate_w = max_energy_j = 0.0
    zero_latency = []
    for source, target in transitions.transitions:
        if source not in forward:
            continue
        cost = transitions.cost(source, target)
        energy = cost.energy_j
        if energy <= 0.0:
            continue
        max_energy_j = max(max_energy_j, energy)
        latency_s = cost.latency.seconds
        if latency_s <= 0.0:
            zero_latency.append((source, target))
        else:
            rate_w = max(rate_w, energy / latency_s)
    return TransitionBounds(rate_w, max_energy_j, tuple(zero_latency))


@dataclasses.dataclass(frozen=True, eq=False)
class PowerModel:
    """An IP's power model, shared by every IP with the same power content.

    The characterisation and transition table (library defaults filled in),
    the run's break-even analysis (``None`` with the ``error`` every run of
    the IP raises), the PSM facts lint reads and, on first use, the
    transition bounds reach-lint reads.  No run mutates them.
    """

    characterization: PowerCharacterization
    transitions: TransitionTable
    breakeven: Optional[BreakEvenAnalyzer]
    #: each state's allowed targets
    graph: StateGraph
    #: states reachable from each state (itself included)
    reachable: StateGraph
    #: low-power states with a complete ON1 round trip (entry and wake)
    complete_states: Tuple[PowerState, ...]
    #: low-power states the IP can enter from some ON state
    entry_states: FrozenSet[PowerState]
    #: lint's break-even analysis over ``complete_states`` (``None`` if empty)
    lint_breakeven: Optional[BreakEvenAnalyzer]
    error: Optional[ReproError] = None
    _transition_bounds: Dict[PowerState, TransitionBounds] = dataclasses.field(
        default_factory=dict, init=False, repr=False
    )

    def transition_bounds(self, initial: PowerState) -> TransitionBounds:
        """The bounds over the transitions reachable from ``initial``, on first use."""
        bounds = self._transition_bounds.get(initial)
        if bounds is None:
            bounds = _transition_bounds(self.transitions, self.reachable[initial])
            self._transition_bounds[initial] = bounds
        return bounds


def _build_power_model(ipdef: IpDef) -> PowerModel:
    custom = build_characterization(ipdef)
    characterization, transitions = resolve_power_model(
        custom, build_transitions(ipdef, custom)
    )
    breakeven: Optional[BreakEvenAnalyzer] = None
    error: Optional[ReproError] = None
    try:
        breakeven = BreakEvenAnalyzer(characterization, transitions)
    except ReproError as breakeven_error:
        error = breakeven_error
    targets: Dict[PowerState, Set[PowerState]] = {}
    for source, target in transitions.transitions:
        targets.setdefault(source, set()).add(target)
    # Warshall's transitive closure, every state reaching itself.
    reach = {state: {state} | targets.get(state, set()) for state in PowerState}
    for middle in PowerState:
        for found in reach.values():
            if middle in found:
                found |= reach[middle]
    complete = tuple(
        state for state in LOW_STATES
        if transitions.is_allowed(PowerState.ON1, state) and transitions.is_allowed(state, PowerState.ON1)
    )
    lint_breakeven: Optional[BreakEvenAnalyzer] = None
    if complete == LOW_STATES:  # the run's own candidates
        lint_breakeven = breakeven
    elif complete:
        lint_breakeven = BreakEvenAnalyzer(characterization, transitions, candidate_states=complete)
    return PowerModel(
        characterization=characterization,
        transitions=transitions,
        breakeven=breakeven,
        graph=MappingProxyType({source: frozenset(found) for source, found in targets.items()}),
        reachable=MappingProxyType({state: frozenset(found) for state, found in reach.items()}),
        complete_states=complete,
        entry_states=frozenset(
            target for source, target in transitions.transitions if source.is_on and not target.is_on
        ),
        lint_breakeven=lint_breakeven,
        error=error,
    )


@dataclasses.dataclass(frozen=True)
class WorkloadFacts:
    """What lint reads of a built workload, derived once per compiled IP."""

    task_count: int
    #: instruction classes and priorities the tasks use, each sorted by value
    classes: Tuple[InstructionClass, ...]
    priorities: Tuple[TaskPriority, ...]
    #: largest idle gap in seconds (0.0 without tasks)
    max_idle_gap_s: float
    #: largest ON1 energy of one task, smallest and largest cycle count of one
    #: task (0 without tasks)
    max_task_energy_j: float
    min_cycles: int
    max_cycles: int
    total_cycles: int
    total_idle: SimTime


def _workload_facts(workload: Workload, characterization: PowerCharacterization) -> WorkloadFacts:
    tasks = workload.items
    classes = tuple(sorted({item.task.instruction_class for item in tasks}, key=lambda c: c.value))
    priorities = tuple(sorted({item.task.priority for item in tasks}, key=lambda p: p.value))
    max_idle_gap_s = max((item.idle_after.seconds for item in tasks), default=0.0)
    max_task_energy_j = 0.0
    min_cycles = max_cycles = 0
    if tasks:
        max_task_energy_j = max(
            characterization.task_energy_j(PowerState.ON1, item.task.cycles, item.task.instruction_class)
            for item in tasks
        )
        min_cycles = min(item.task.cycles for item in tasks)
        max_cycles = max(item.task.cycles for item in tasks)
    return WorkloadFacts(
        len(tasks), classes, priorities, max_idle_gap_s, max_task_energy_j,
        min_cycles, max_cycles, workload.total_cycles, workload.total_idle,
    )


class TaskBounds(NamedTuple):
    """Reach-lint's bounds on one IP's tasks (worst case when the workload is unknown)."""

    #: False only for a built workload without tasks: the IP never decides
    has_tasks: bool
    #: largest ON1 energy of one task (J)
    max_energy_j: float
    #: shortest task at the ON1 clock and longest at the slowest ON clock (s)
    min_duration_s: float
    max_duration_s: float
    #: highest ON1 active power over the tasks' instruction classes (W)
    active_ceiling_w: float


def _lint_classes(facts: Optional[WorkloadFacts]) -> Tuple[InstructionClass, ...]:
    """The instruction classes reach-lint assumes: every class when unknown."""
    return (facts.classes if facts is not None else ()) or tuple(InstructionClass)


@dataclasses.dataclass(frozen=True, eq=False)
class CompiledIp:
    """The run-independent values of one IP, shared by every run of it.

    No run mutates them: the shared :class:`PowerModel` (its
    characterisation, transition table and break-even analysis repeated
    here) and the generated workload.  A workload that cannot be built
    leaves ``None``; the workload's error, else the power model's, is
    recorded: a run raises it, lint reports either as a finding.  What lint
    derives from them (workload facts, task and power bounds) is derived on
    first use and held as plain values, never as a reference back.
    """

    power: PowerModel
    characterization: PowerCharacterization
    transitions: TransitionTable
    workload: Optional[Workload]
    breakeven: Optional[BreakEvenAnalyzer]
    initial: PowerState
    error: Optional[Exception] = None
    _power_bounds: Dict[FrozenSet[PowerState], Tuple[float, float]] = dataclasses.field(
        default_factory=dict, init=False, repr=False
    )

    @functools.cached_property
    def facts(self) -> Optional[WorkloadFacts]:
        """The workload's lint facts (``None`` without a workload), on first use."""
        if self.workload is None:
            return None
        return _workload_facts(self.workload, self.characterization)

    @functools.cached_property
    def task_bounds(self) -> TaskBounds:
        """Reach-lint's task bounds, on first use."""
        facts = self.facts
        points = self.characterization.operating_points
        active_ceiling_w = max(
            self.characterization.active_power_w(PowerState.ON1, iclass)
            for iclass in _lint_classes(facts)
        )
        if facts is None:  # unknown workload: no finite ceilings exist
            return TaskBounds(True, math.inf, 0.0, math.inf, active_ceiling_w)
        if not facts.task_count:
            return TaskBounds(False, 0.0, math.inf, 0.0, active_ceiling_w)
        # Task estimates use the policy's estimation state; ON1 has the
        # highest voltage (max energy/cycle) and frequency (min duration),
        # making these ceilings valid for any estimation-state override.
        f_min = min(points.point(state).frequency_hz for state in ON_STATES)
        return TaskBounds(
            True,
            facts.max_task_energy_j,
            facts.min_cycles / points.point(PowerState.ON1).frequency_hz,
            facts.max_cycles / f_min,
            active_ceiling_w,
        )

    def power_bounds(self, resident: FrozenSet[PowerState]) -> Tuple[float, float]:
        """(min, max) sustained background power with tasks at the ``resident``
        ON states, on first use per set.

        Executing, the IP draws at most the highest active power over its
        resident states and its tasks' classes; idle, at most the highest
        idle or residual power over the states its initial state reaches.
        """
        bounds = self._power_bounds.get(resident)
        if bounds is None:
            bounds = self._power_bounds[resident] = _power_bounds(self, resident)
        return bounds

    def ip_spec(self, ipdef: IpDef) -> IpSpec:
        """A fresh :class:`IpSpec` of ``ipdef`` over these values."""
        if self.error is not None:
            raise self.error
        assert self.workload is not None
        return IpSpec(
            name=ipdef.name,
            workload=self.workload,
            static_priority=ipdef.static_priority,
            characterization=self.characterization,
            transitions=self.transitions,
            breakeven=self.breakeven,
            initial_state=self.initial,
            bus_words_per_task=ipdef.bus_words_per_task,
            bus_priority=ipdef.bus_priority,
        )


def _power_bounds(compiled: CompiledIp, resident: FrozenSet[PowerState]) -> Tuple[float, float]:
    char = compiled.characterization
    forward = compiled.power.reachable[compiled.initial]
    active_max = 0.0
    if compiled.task_bounds.has_tasks:
        classes = _lint_classes(compiled.facts)
        for state in ON_STATES:
            if state in forward and state in resident:
                for iclass in classes:
                    active_max = max(active_max, char.active_power_w(state, iclass))
    # Idle power counts for every forward-reachable ON state, not just
    # table-selected ones: wake transitions land in ON1 and the IP idles
    # there until the next decision.
    idle_values = [
        char.idle_power_w(state) if state.is_on else char.residual_power_w(state)
        for state in forward
    ]
    return min(idle_values), max(active_max, max(idle_values))


def _compile_ip(ipdef: IpDef, power: PowerModel) -> CompiledIp:
    workload: Optional[Workload] = None
    error: Optional[Exception] = power.error
    try:
        workload = build_workload(ipdef.workload)
    except (ReproError, ValueError) as workload_error:
        error = workload_error
    return CompiledIp(
        power, power.characterization, power.transitions, workload, power.breakeven,
        PowerState(ipdef.initial_state), error,
    )


#: Compiled IPs by canonical IpDef content, least recently used first.
_COMPILED: "OrderedDict[str, CompiledIp]" = OrderedDict()
#: Bounds of :data:`_COMPILED`, both kept by evicting the least recently used
#: entry: enough IPs for a whole lint sweep of the registered and example
#: platforms (30 distinct IPs, 514 workload items, 0.55 MB), and few enough
#: workload items that at ~360 bytes an item the memo stays near 6 MB
#: however long the workloads.
COMPILED_IP_LIMIT = 64
COMPILED_ITEM_LIMIT = 16_384
#: Power models by canonical power content.  Weak values: a model lives only
#: while a compiled IP or a run holds it, so the memo adds no bound of its own.
_POWER_MODELS: "weakref.WeakValueDictionary[str, PowerModel]" = weakref.WeakValueDictionary()


def compile_ip(ipdef: IpDef) -> CompiledIp:
    """The compiled values of ``ipdef``, built once per content.

    Keyed by the canonical ``to_dict`` form that ``spec_hash`` hashes (the
    power model by its power fields alone), so equal definitions share one
    compile however they were written.  Only error-free builds are kept.
    """
    data = ipdef.to_dict()
    key = json.dumps(data, sort_keys=True, separators=(",", ":"))
    compiled = _COMPILED.get(key)
    if compiled is not None:
        _COMPILED.move_to_end(key)
        return compiled
    power_data = {field: value for field, value in data.items() if field not in _NON_POWER_FIELDS}
    power_key = json.dumps(power_data, sort_keys=True, separators=(",", ":"))
    power = _POWER_MODELS.get(power_key)
    if power is None:
        power = _build_power_model(ipdef)
        if power.error is None:
            _POWER_MODELS[power_key] = power
    compiled = _compile_ip(ipdef, power)
    if compiled.error is None:
        _COMPILED[key] = compiled
        items = sum(_item_count(entry) for entry in _COMPILED.values())
        while len(_COMPILED) > COMPILED_IP_LIMIT or items > COMPILED_ITEM_LIMIT:
            items -= _item_count(_COMPILED.popitem(last=False)[1])
    return compiled


def _item_count(compiled: CompiledIp) -> int:
    return len(compiled.workload.items) if compiled.workload is not None else 0


# ----------------------------------------------------------------------
# SoC-level configuration
# ----------------------------------------------------------------------
def battery_condition(level: str) -> BatteryConfig:
    """Battery configuration for a named condition (``"full"`` or ``"low"``).

    ``full`` starts at 95 % state of charge (class Full), ``low`` at 20 %
    (class Low); ``high``, ``medium`` and ``empty`` are provided for sweeps.
    """
    presets = {
        "full": 0.95,
        "high": 0.75,
        "medium": 0.45,
        "low": 0.20,
        "empty": 0.03,
    }
    try:
        soc0 = presets[level.lower()]
    except KeyError:
        raise PlatformError(f"unknown battery condition {level!r}") from None
    return BatteryConfig(capacity_j=250.0, initial_state_of_charge=soc0)


def thermal_condition(level: str, ip_count: int = 1) -> ThermalConfig:
    """Thermal configuration for a named condition (``"low"`` or ``"high"``).

    The *high* condition models a hot environment: higher ambient and an
    initial die temperature just above the High threshold, so the DPM must
    actively cool the chip down before serving non-critical tasks.  The
    thermal resistance scales inversely with the number of IPs (a larger SoC
    ships with a package designed for its power budget).
    """
    resistance = 60.0 / max(1, ip_count)
    if level.lower() == "low":
        return ThermalConfig(
            ambient_c=35.0,
            initial_c=35.0,
            thermal_resistance_c_per_w=resistance,
        )
    if level.lower() == "high":
        # Hot environment: high ambient and an already warm die.  The busy
        # baseline crosses into the High class, so the DPM must actively keep
        # the chip below it (rows 2 and 4 of Table 1).
        return ThermalConfig(
            ambient_c=68.0,
            initial_c=70.0,
            thermal_resistance_c_per_w=resistance,
        )
    raise PlatformError(f"unknown thermal condition {level!r}")


def build_battery_config(bdef: BatteryDef) -> BatteryConfig:
    """Battery configuration: preset (if any) plus explicit overrides."""
    base = battery_condition(bdef.condition) if bdef.condition else BatteryConfig()
    overrides: Dict[str, object] = {}
    if bdef.capacity_j is not None:
        overrides["capacity_j"] = bdef.capacity_j
    if bdef.state_of_charge is not None:
        overrides["initial_state_of_charge"] = bdef.state_of_charge
    if bdef.nominal_power_w is not None:
        overrides["nominal_power_w"] = bdef.nominal_power_w
    if bdef.peukert_exponent is not None:
        overrides["peukert_exponent"] = bdef.peukert_exponent
    if bdef.self_discharge_w is not None:
        overrides["self_discharge_w"] = bdef.self_discharge_w
    if bdef.on_ac_power is not None:
        overrides["on_ac_power"] = bdef.on_ac_power
    return dataclasses.replace(base, **overrides) if overrides else base


def build_thermal_config(tdef: ThermalDef, ip_count: int) -> ThermalConfig:
    """Thermal configuration: preset (scaled to ``ip_count``) plus overrides."""
    base = (
        thermal_condition(tdef.condition, ip_count=ip_count)
        if tdef.condition
        else ThermalConfig()
    )
    overrides: Dict[str, object] = {}
    if tdef.ambient_c is not None:
        overrides["ambient_c"] = tdef.ambient_c
    if tdef.initial_c is not None:
        overrides["initial_c"] = tdef.initial_c
    if tdef.resistance_c_per_w is not None:
        overrides["thermal_resistance_c_per_w"] = tdef.resistance_c_per_w
    if tdef.capacitance_j_per_c is not None:
        overrides["thermal_capacitance_j_per_c"] = tdef.capacitance_j_per_c
    if tdef.fan_resistance_scale is not None:
        overrides["fan_resistance_scale"] = tdef.fan_resistance_scale
    return dataclasses.replace(base, **overrides) if overrides else base


def build_soc_config(spec: PlatformSpec) -> SocConfig:
    """The :class:`SocConfig` of one run of ``spec``."""
    return SocConfig(
        name=f"soc_{spec.name}",
        battery=build_battery_config(spec.battery),
        thermal=build_thermal_config(spec.thermal, ip_count=len(spec.ips)),
        sample_interval=us(spec.sample_interval_us),
        use_gem=spec.gem.enabled,
        with_fan=spec.with_fan,
        fan_power_w=spec.fan_power_w,
        with_bus=spec.bus.enabled,
        bus_words_per_second=spec.bus.words_per_second,
        bus_arbitration=spec.bus.arbitration,
        bus_timing=spec.bus.timing,
        bus_words_per_cycle=spec.bus.words_per_cycle,
    )


# ----------------------------------------------------------------------
# Policy / setup
# ----------------------------------------------------------------------
def build_dpm_setup(policy: PolicyDef) -> DpmSetup:
    """A :class:`DpmSetup` from the platform's :class:`PolicyDef`."""
    policy.validate("platform.policy")
    allow_off = True if policy.allow_off is None else policy.allow_off
    if policy.name == "paper":
        predictor = (
            _PREDICTOR_FACTORIES[policy.predictor] if policy.predictor else None
        )
        rules = (
            RuleTable.from_dicts(policy.rules, name="policy-rules")
            if policy.rules
            else None
        )
        setup = DpmSetup.paper(
            rules=rules, allow_off=allow_off, predictor_factory=predictor
        )
    elif policy.name == "always-on":
        setup = DpmSetup.always_on()
    elif policy.name == "greedy-sleep":
        setup = DpmSetup.greedy_sleep(allow_off=allow_off)
    elif policy.name == "oracle":
        setup = DpmSetup.oracle()
    else:  # fixed-timeout (validate() restricts the vocabulary)
        setup = DpmSetup.fixed_timeout(ms(policy.timeout_ms or 2.0))
    lem_overrides: Dict[str, object] = {}
    if policy.allow_off is not None:
        lem_overrides["allow_off"] = policy.allow_off
    if policy.reevaluation_interval_us is not None:
        lem_overrides["reevaluation_interval"] = us(policy.reevaluation_interval_us)
    if policy.defer_state is not None:
        lem_overrides["defer_state"] = PowerState(policy.defer_state)
    if policy.estimation_state is not None:
        lem_overrides["estimation_state"] = PowerState(policy.estimation_state)
    if lem_overrides:
        setup.lem_config = dataclasses.replace(setup.lem_config, **lem_overrides)
    return setup


def _apply_gem_overrides(spec: PlatformSpec, setup: DpmSetup) -> DpmSetup:
    if not spec.gem.has_overrides():
        return setup
    overrides: Dict[str, object] = {}
    if spec.gem.high_priority_count is not None:
        overrides["high_priority_count"] = spec.gem.high_priority_count
    if spec.gem.evaluation_interval_us is not None:
        overrides["evaluation_interval"] = us(spec.gem.evaluation_interval_us)
    if spec.gem.forced_state is not None:
        overrides["forced_state"] = PowerState(spec.gem.forced_state)
    return dataclasses.replace(
        setup, gem_config=dataclasses.replace(setup.gem_config, **overrides)
    )


def platform_setup(
    spec: PlatformSpec,
    setup: Optional[DpmSetup],
    default: Callable[[], DpmSetup],
    use_policy: bool = False,
) -> DpmSetup:
    """Resolve the setup for one run of ``spec``.

    ``None`` resolves to the platform's own :class:`PolicyDef` (when
    ``use_policy`` and the spec has one), else to the ``default`` factory;
    the spec's GEM tunables are applied to whatever setup ends up running.
    """
    if setup is None:
        if use_policy and spec.policy is not None:
            setup = build_dpm_setup(spec.policy)
        else:
            setup = default()
    return _apply_gem_overrides(spec, setup)
