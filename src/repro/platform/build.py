"""Bridge from a :class:`~repro.platform.spec.PlatformSpec` to runnable objects.

The spec tree is pure data; this module turns it into the library's value
objects (:class:`~repro.soc.soc.IpSpec`, :class:`~repro.soc.soc.SocConfig`,
:class:`~repro.power.characterization.PowerCharacterization`,
:class:`~repro.power.transitions.TransitionTable`,
:class:`~repro.dpm.controller.DpmSetup`) that
:func:`repro.experiments.runner.run_scenario` assembles into a SoC.

Defaults contract: an optional knob left unset builds exactly what the
library would build without it (``None`` characterisation and transitions,
the named battery/thermal presets below, the generators' own defaults) —
that is what keeps the six paper rows of :mod:`repro.platform.registry`
thin while the pinned goldens stay bit-identical.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional, Tuple

from repro.battery.model import BatteryConfig
from repro.dpm.controller import DpmSetup
from repro.dpm.rules import RuleTable
from repro.dpm.predictor import (
    AdaptivePredictor,
    ExponentialAveragePredictor,
    FixedPredictor,
    LastValuePredictor,
)
from repro.errors import PlatformError
from repro.platform.spec import BatteryDef, IpDef, PlatformSpec, PolicyDef, ThermalDef, WorkloadDef
from repro.power.characterization import (
    DEFAULT_ACTIVITY,
    DEFAULT_RESIDUAL_FRACTION,
    InstructionClass,
    PowerCharacterization,
    default_characterization,
)
from repro.power.operating_point import OperatingPoint, OperatingPointTable
from repro.power.states import PowerState
from repro.power.transitions import TransitionCost, TransitionTable, default_transition_table
from repro.sim.simtime import ms, us
from repro.soc.soc import IpSpec, SocConfig
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
    "battery_condition",
    "build_battery_config",
    "build_characterization",
    "build_dpm_setup",
    "build_ip_spec",
    "build_soc_config",
    "build_thermal_config",
    "build_transitions",
    "build_workload",
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

    def put(key: str, value) -> None:
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


def build_ip_spec(ipdef: IpDef) -> IpSpec:
    """One :class:`IpSpec` from its definition."""
    characterization = build_characterization(ipdef)
    return IpSpec(
        name=ipdef.name,
        workload=build_workload(ipdef.workload),
        static_priority=ipdef.static_priority,
        characterization=characterization,
        transitions=build_transitions(ipdef, characterization),
        initial_state=PowerState(ipdef.initial_state),
        bus_words_per_task=ipdef.bus_words_per_task,
        bus_priority=ipdef.bus_priority,
    )


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
