"""The declarative platform specification tree.

A :class:`PlatformSpec` is a *pure data* description of everything the
simulator needs to run an experiment: the IP blocks (with their workloads,
DVFS operating points and power-state machines), the SoC-level battery,
thermal and GEM conditions, and optionally the power-management policy.  It
is the repo's answer to "a new scenario is a file, not a code change": specs
round-trip losslessly through plain dictionaries (and hence JSON/TOML, see
:mod:`repro.platform.serialize`), their canonical form is hash-stable (the
campaign result store dedupes on it) and every field is validated with an
error message that names the offending path::

    PlatformError: ips[2].workload.kind: unknown workload kind 'burstyy'
    (expected one of: bursty, explicit, high_activity, low_activity,
    periodic, random, scenario_a)

The tree deliberately contains **no** library objects (no ``SimTime``, no
enums, no factories): times are floats in explicit units (``*_us``,
``*_ms``), states and priorities are their string names.  The bridge from a
spec to runnable objects lives in :mod:`repro.platform.build`.

Layout of the tree::

    PlatformSpec
    ├── ips: [IpDef]
    │   ├── workload: WorkloadDef
    │   ├── operating_points: [OperatingPointDef]   (optional)
    │   └── psm: PsmDef                             (optional)
    │       └── transitions: [TransitionDef]
    ├── battery: BatteryDef
    ├── thermal: ThermalDef
    ├── gem: GemDef
    ├── bus: BusDef
    └── policy: PolicyDef                           (optional)

All ``to_dict`` methods omit fields left at their defaults, so the canonical
dictionary of a spec is minimal and two equal specs always produce the same
canonical encoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.errors import PlatformError

__all__ = [
    "SPEC_FORMAT",
    "BatteryDef",
    "BusDef",
    "GemDef",
    "IpDef",
    "OperatingPointDef",
    "PlatformSpec",
    "PolicyDef",
    "PsmDef",
    "ThermalDef",
    "TraceDef",
    "TransitionDef",
    "WorkloadDef",
]

#: Format tag written into every serialized spec; bump on breaking changes.
SPEC_FORMAT = "repro-platform/1"

# ----------------------------------------------------------------------
# Vocabulary (string values accepted by the spec format)
# ----------------------------------------------------------------------
ALL_STATE_NAMES = ("OFF", "SL4", "SL3", "SL2", "SL1", "ON4", "ON3", "ON2", "ON1")
ON_STATE_NAMES = ("ON1", "ON2", "ON3", "ON4")
LOW_STATE_NAMES = ("SL1", "SL2", "SL3", "SL4", "OFF")
PRIORITY_NAMES = ("low", "medium", "high", "very_high")
INSTRUCTION_CLASS_NAMES = ("alu", "memory", "control", "dsp", "io")
BATTERY_CONDITIONS = ("full", "high", "medium", "low", "empty")
THERMAL_CONDITIONS = ("low", "high")
POLICY_NAMES = ("paper", "always-on", "greedy-sleep", "fixed-timeout", "oracle")
PREDICTOR_NAMES = ("fixed", "last-value", "ewma", "adaptive")
#: States a selection rule may pick (ON or sleep — never OFF, the LEM cannot
#: grant a task on a powered-down IP) and the level vocabularies of the
#: rule-context dimensions, mirroring the enums of :mod:`repro.dpm.levels`.
RULE_STATE_NAMES = ("ON1", "ON2", "ON3", "ON4", "SL1", "SL2", "SL3", "SL4")
BATTERY_LEVEL_NAMES = ("empty", "low", "medium", "high", "full", "ac_power")
TEMPERATURE_LEVEL_NAMES = ("low", "medium", "high")
BUS_LEVEL_NAMES = ("low", "medium", "high")
_RULE_ENTRY_KEYS = ("state", "priorities", "batteries", "temperatures", "buses", "label")
BUS_ARBITRATION_NAMES = ("fifo", "priority")
BUS_TIMING_NAMES = ("event_driven", "cycle_accurate")
TRACE_FORMAT_NAMES = ("jsonl", "perfetto", "vcd")
WORKLOAD_KINDS = (
    "bursty",
    "explicit",
    "high_activity",
    "low_activity",
    "periodic",
    "random",
    "scenario_a",
)

#: WorkloadDef fields meaningful for each kind (beyond the common ones).
_WORKLOAD_KIND_FIELDS: Dict[str, frozenset] = {
    "periodic": frozenset(
        {"task_count", "cycles", "idle_us", "priority", "instruction_class"}
    ),
    "random": frozenset(
        {"task_count", "seed", "cycles_min", "cycles_max",
         "idle_min_us", "idle_max_us", "priorities"}
    ),
    "high_activity": frozenset({"task_count", "seed", "priorities"}),
    "low_activity": frozenset({"task_count", "seed", "priorities"}),
    "bursty": frozenset(
        {"burst_count", "tasks_per_burst", "seed", "cycles_min", "cycles_max",
         "intra_burst_idle_us", "inter_burst_idle_us", "priorities"}
    ),
    "scenario_a": frozenset({"task_count", "seed"}),
    "explicit": frozenset({"items"}),
}
_WORKLOAD_COMMON_FIELDS = frozenset({"kind", "name", "idle_scale", "force_priority"})

_EXPLICIT_ITEM_KEYS = frozenset(
    {"task", "cycles", "priority", "instruction_class", "idle_after_fs", "idle_after_us"}
)


# ----------------------------------------------------------------------
# Validation helpers (structural checks with dotted paths)
# ----------------------------------------------------------------------
def _fail(path: str, message: str) -> None:
    raise PlatformError(f"{path}: {message}")


def _choices(values: Sequence[str]) -> str:
    return ", ".join(sorted(values))


def _as_mapping(value: Any, path: str) -> Dict[str, Any]:
    if not isinstance(value, Mapping):
        _fail(path, f"expected a mapping/table, got {type(value).__name__}")
    return dict(value)


def _check_keys(mapping: Mapping[str, Any], path: str, allowed: Sequence[str]) -> None:
    unknown = set(mapping) - set(allowed)
    if unknown:
        _fail(
            path,
            f"unknown field(s) {_choices(sorted(unknown))} "
            f"(allowed: {_choices(allowed)})",
        )


def _get_str(
    mapping: Mapping[str, Any],
    key: str,
    path: str,
    required: bool = False,
    default: Optional[str] = None,
) -> Optional[str]:
    if key not in mapping:
        if required:
            _fail(path, f"missing required field '{key}'")
        return default
    value = mapping[key]
    if not isinstance(value, str):
        _fail(f"{path}.{key}", f"expected a string, got {type(value).__name__}")
    return value


def _get_bool(
    mapping: Mapping[str, Any], key: str, path: str, default: Optional[bool] = None
) -> Optional[bool]:
    if key not in mapping:
        return default
    value = mapping[key]
    if not isinstance(value, bool):
        _fail(f"{path}.{key}", f"expected a boolean, got {type(value).__name__}")
    return value


def _get_int(
    mapping: Mapping[str, Any], key: str, path: str, default: Optional[int] = None
) -> Optional[int]:
    if key not in mapping:
        return default
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(f"{path}.{key}", f"expected an integer, got {value!r}")
    return int(value)


def _get_float(
    mapping: Mapping[str, Any], key: str, path: str, default: Optional[float] = None
) -> Optional[float]:
    if key not in mapping:
        return default
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(f"{path}.{key}", f"expected a number, got {value!r}")
    return float(value)


def _get_list(
    mapping: Mapping[str, Any], key: str, path: str
) -> Optional[List[Any]]:
    if key not in mapping:
        return None
    value = mapping[key]
    if isinstance(value, (str, bytes)) or not isinstance(value, Sequence):
        _fail(f"{path}.{key}", f"expected a list/array, got {type(value).__name__}")
    return list(value)


def _check_choice(value: Optional[str], path: str, choices: Sequence[str], what: str) -> None:
    if value is not None and value not in choices:
        _fail(path, f"unknown {what} {value!r} (expected one of: {_choices(choices)})")


def _check_positive(value: Optional[float], path: str, what: str = "value") -> None:
    if value is not None and value <= 0:
        _fail(path, f"{what} must be positive, got {value!r}")


def _float_map(value: Any, path: str, key_choices: Sequence[str], what: str) -> Dict[str, float]:
    mapping = _as_mapping(value, path)
    result: Dict[str, float] = {}
    for key, item in mapping.items():
        _check_choice(key, f"{path}.{key}", key_choices, what)
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            _fail(f"{path}.{key}", f"expected a number, got {item!r}")
        result[key] = float(item)
    return result


# ----------------------------------------------------------------------
# Leaf definitions
# ----------------------------------------------------------------------
@dataclass
class OperatingPointDef:
    """One DVFS point of an IP: the voltage and frequency of an ON state."""

    state: str
    voltage_v: float
    frequency_hz: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "state": self.state,
            "voltage_v": self.voltage_v,
            "frequency_hz": self.frequency_hz,
        }

    @classmethod
    def from_dict(cls, value: Any, path: str = "operating_point") -> "OperatingPointDef":
        mapping = _as_mapping(value, path)
        _check_keys(mapping, path, ("state", "voltage_v", "frequency_hz"))
        state = _get_str(mapping, "state", path, required=True)
        voltage = _get_float(mapping, "voltage_v", path)
        frequency = _get_float(mapping, "frequency_hz", path)
        if voltage is None or frequency is None:
            _fail(path, "an operating point needs both 'voltage_v' and 'frequency_hz'")
        return cls(state=state, voltage_v=voltage, frequency_hz=frequency)

    def validate(self, path: str) -> None:
        _check_choice(self.state, f"{path}.state", ON_STATE_NAMES, "ON state")
        _check_positive(self.voltage_v, f"{path}.voltage_v", "supply voltage")
        _check_positive(self.frequency_hz, f"{path}.frequency_hz", "clock frequency")


@dataclass
class TransitionDef:
    """One entry of a user-defined PSM transition table.

    Overrides (or, with ``allowed: false``, removes) the generated default
    cost of the ``source -> target`` transition.
    """

    source: str
    target: str
    energy_j: Optional[float] = None
    latency_us: Optional[float] = None
    allowed: bool = True

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"source": self.source, "target": self.target}
        if self.energy_j is not None:
            data["energy_j"] = self.energy_j
        if self.latency_us is not None:
            data["latency_us"] = self.latency_us
        if not self.allowed:
            data["allowed"] = False
        return data

    @classmethod
    def from_dict(cls, value: Any, path: str = "transition") -> "TransitionDef":
        mapping = _as_mapping(value, path)
        _check_keys(mapping, path, ("source", "target", "energy_j", "latency_us", "allowed"))
        return cls(
            source=_get_str(mapping, "source", path, required=True),
            target=_get_str(mapping, "target", path, required=True),
            energy_j=_get_float(mapping, "energy_j", path),
            latency_us=_get_float(mapping, "latency_us", path),
            allowed=_get_bool(mapping, "allowed", path, default=True),
        )

    def validate(self, path: str) -> None:
        _check_choice(self.source, f"{path}.source", ALL_STATE_NAMES, "power state")
        _check_choice(self.target, f"{path}.target", ALL_STATE_NAMES, "power state")
        if self.source == self.target:
            _fail(path, f"self-transition {self.source}->{self.target} cannot be customised")
        if self.allowed:
            if self.energy_j is None or self.latency_us is None:
                _fail(
                    path,
                    f"transition {self.source}->{self.target} needs both 'energy_j' "
                    "and 'latency_us' (or 'allowed': false to forbid it)",
                )
            if self.energy_j < 0:
                _fail(f"{path}.energy_j", f"transition energy must be >= 0, got {self.energy_j!r}")
            if self.latency_us < 0:
                _fail(f"{path}.latency_us", f"transition latency must be >= 0, got {self.latency_us!r}")
        elif self.energy_j is not None or self.latency_us is not None:
            _fail(path, "a forbidden transition ('allowed': false) cannot carry costs")


@dataclass
class PsmDef:
    """A user-defined power-state machine (transition cost table).

    The table starts from the library defaults (scaled to the IP's
    characterisation) with the latency knobs applied, then the explicit
    ``transitions`` entries override or remove individual pairs.
    """

    dvfs_latency_us: Optional[float] = None
    entry_latency_us: Dict[str, float] = field(default_factory=dict)
    wakeup_latency_us: Dict[str, float] = field(default_factory=dict)
    transitions: List[TransitionDef] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {}
        if self.dvfs_latency_us is not None:
            data["dvfs_latency_us"] = self.dvfs_latency_us
        if self.entry_latency_us:
            data["entry_latency_us"] = dict(sorted(self.entry_latency_us.items()))
        if self.wakeup_latency_us:
            data["wakeup_latency_us"] = dict(sorted(self.wakeup_latency_us.items()))
        if self.transitions:
            data["transitions"] = [entry.to_dict() for entry in self.transitions]
        return data

    @classmethod
    def from_dict(cls, value: Any, path: str = "psm") -> "PsmDef":
        mapping = _as_mapping(value, path)
        _check_keys(
            mapping, path,
            ("dvfs_latency_us", "entry_latency_us", "wakeup_latency_us", "transitions"),
        )
        entry = mapping.get("entry_latency_us")
        wake = mapping.get("wakeup_latency_us")
        transitions = _get_list(mapping, "transitions", path) or []
        return cls(
            dvfs_latency_us=_get_float(mapping, "dvfs_latency_us", path),
            entry_latency_us=(
                {} if entry is None
                else _float_map(entry, f"{path}.entry_latency_us", LOW_STATE_NAMES,
                                "sleep/off state")
            ),
            wakeup_latency_us=(
                {} if wake is None
                else _float_map(wake, f"{path}.wakeup_latency_us", LOW_STATE_NAMES,
                                "sleep/off state")
            ),
            transitions=[
                TransitionDef.from_dict(item, f"{path}.transitions[{index}]")
                for index, item in enumerate(transitions)
            ],
        )

    def validate(self, path: str) -> None:
        _check_positive(self.dvfs_latency_us, f"{path}.dvfs_latency_us", "DVFS latency")
        for key, value in self.entry_latency_us.items():
            _check_choice(key, f"{path}.entry_latency_us.{key}", LOW_STATE_NAMES,
                          "sleep/off state")
            _check_positive(value, f"{path}.entry_latency_us.{key}", "entry latency")
        for key, value in self.wakeup_latency_us.items():
            _check_choice(key, f"{path}.wakeup_latency_us.{key}", LOW_STATE_NAMES,
                          "sleep/off state")
            _check_positive(value, f"{path}.wakeup_latency_us.{key}", "wake-up latency")
        seen = set()
        for index, transition in enumerate(self.transitions):
            transition.validate(f"{path}.transitions[{index}]")
            pair = (transition.source, transition.target)
            if pair in seen:
                _fail(
                    f"{path}.transitions[{index}]",
                    f"duplicate transition {transition.source}->{transition.target}",
                )
            seen.add(pair)


@dataclass
class WorkloadDef:
    """Declarative workload: a generator reference or an explicit task list.

    ``kind`` selects one of the generators of :mod:`repro.soc.workload`
    (``periodic``, ``random``, ``high_activity``, ``low_activity``,
    ``bursty``), the composite ``scenario_a`` sequence of the paper's single
    IP rows, or ``explicit`` (an inline ``items`` list in the
    :meth:`repro.soc.workload.Workload.as_dicts` format).  Fields left unset
    use the generator's own defaults, so thin specs stay thin.
    """

    kind: str = "high_activity"
    name: Optional[str] = None
    task_count: Optional[int] = None
    seed: Optional[int] = None
    # periodic
    cycles: Optional[int] = None
    idle_us: Optional[float] = None
    priority: Optional[str] = None
    instruction_class: Optional[str] = None
    # random / bursty
    cycles_min: Optional[int] = None
    cycles_max: Optional[int] = None
    idle_min_us: Optional[float] = None
    idle_max_us: Optional[float] = None
    priorities: Optional[List[str]] = None
    # bursty
    burst_count: Optional[int] = None
    tasks_per_burst: Optional[int] = None
    intra_burst_idle_us: Optional[float] = None
    inter_burst_idle_us: Optional[float] = None
    # explicit
    items: Optional[List[Dict[str, Any]]] = None
    # post-transforms (any kind)
    idle_scale: Optional[float] = None
    force_priority: Optional[str] = None

    _FIELD_ORDER = (
        "name", "task_count", "seed", "cycles", "idle_us", "priority",
        "instruction_class", "cycles_min", "cycles_max", "idle_min_us",
        "idle_max_us", "priorities", "burst_count", "tasks_per_burst",
        "intra_burst_idle_us", "inter_burst_idle_us", "items",
        "idle_scale", "force_priority",
    )

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"kind": self.kind}
        for key in self._FIELD_ORDER:
            value = getattr(self, key)
            if value is not None:
                data[key] = value
        return data

    @classmethod
    def from_dict(cls, value: Any, path: str = "workload") -> "WorkloadDef":
        mapping = _as_mapping(value, path)
        kind = _get_str(mapping, "kind", path, required=True)
        _check_choice(kind, f"{path}.kind", WORKLOAD_KINDS, "workload kind")
        allowed = _WORKLOAD_COMMON_FIELDS | _WORKLOAD_KIND_FIELDS[kind]
        unknown = set(mapping) - allowed
        if unknown:
            _fail(
                path,
                f"field(s) {_choices(sorted(unknown))} do not apply to workload "
                f"kind {kind!r} (allowed: {_choices(sorted(allowed))})",
            )
        priorities = _get_list(mapping, "priorities", path)
        items = _get_list(mapping, "items", path)
        if priorities is not None:
            for index, entry in enumerate(priorities):
                if not isinstance(entry, str):
                    _fail(f"{path}.priorities[{index}]",
                          f"expected a priority name, got {entry!r}")
        if items is not None:
            items = [
                _as_mapping(item, f"{path}.items[{index}]")
                for index, item in enumerate(items)
            ]
        return cls(
            kind=kind,
            name=_get_str(mapping, "name", path),
            task_count=_get_int(mapping, "task_count", path),
            seed=_get_int(mapping, "seed", path),
            cycles=_get_int(mapping, "cycles", path),
            idle_us=_get_float(mapping, "idle_us", path),
            priority=_get_str(mapping, "priority", path),
            instruction_class=_get_str(mapping, "instruction_class", path),
            cycles_min=_get_int(mapping, "cycles_min", path),
            cycles_max=_get_int(mapping, "cycles_max", path),
            idle_min_us=_get_float(mapping, "idle_min_us", path),
            idle_max_us=_get_float(mapping, "idle_max_us", path),
            priorities=priorities,
            burst_count=_get_int(mapping, "burst_count", path),
            tasks_per_burst=_get_int(mapping, "tasks_per_burst", path),
            intra_burst_idle_us=_get_float(mapping, "intra_burst_idle_us", path),
            inter_burst_idle_us=_get_float(mapping, "inter_burst_idle_us", path),
            items=items,
            idle_scale=_get_float(mapping, "idle_scale", path),
            force_priority=_get_str(mapping, "force_priority", path),
        )

    def validate(self, path: str) -> None:
        _check_choice(self.kind, f"{path}.kind", WORKLOAD_KINDS, "workload kind")
        allowed = _WORKLOAD_COMMON_FIELDS | _WORKLOAD_KIND_FIELDS[self.kind]
        for key in self._FIELD_ORDER:
            if getattr(self, key) is not None and key not in allowed and key != "name":
                _fail(
                    path,
                    f"field {key!r} does not apply to workload kind {self.kind!r} "
                    f"(allowed: {_choices(sorted(allowed))})",
                )
        _check_positive(self.task_count, f"{path}.task_count", "task count")
        _check_positive(self.cycles, f"{path}.cycles", "cycle count")
        _check_positive(self.burst_count, f"{path}.burst_count", "burst count")
        _check_positive(self.tasks_per_burst, f"{path}.tasks_per_burst", "tasks per burst")
        for key in ("idle_us", "idle_min_us", "idle_max_us",
                    "intra_burst_idle_us", "inter_burst_idle_us"):
            value = getattr(self, key)
            if value is not None and value < 0:
                _fail(f"{path}.{key}", f"idle times must be >= 0, got {value!r}")
        _check_choice(self.priority, f"{path}.priority", PRIORITY_NAMES, "task priority")
        _check_choice(self.force_priority, f"{path}.force_priority",
                      PRIORITY_NAMES, "task priority")
        _check_choice(self.instruction_class, f"{path}.instruction_class",
                      INSTRUCTION_CLASS_NAMES, "instruction class")
        if self.priorities is not None:
            if not self.priorities:
                _fail(f"{path}.priorities", "the priority pool must not be empty")
            for index, name in enumerate(self.priorities):
                _check_choice(name, f"{path}.priorities[{index}]",
                              PRIORITY_NAMES, "task priority")
        if (self.cycles_min is None) != (self.cycles_max is None):
            _fail(path, "'cycles_min' and 'cycles_max' must be given together")
        if self.cycles_min is not None and not 0 < self.cycles_min <= self.cycles_max:
            _fail(path, f"invalid cycle range [{self.cycles_min}, {self.cycles_max}]")
        if (self.idle_min_us is None) != (self.idle_max_us is None):
            _fail(path, "'idle_min_us' and 'idle_max_us' must be given together")
        if self.idle_min_us is not None and self.idle_min_us > self.idle_max_us:
            _fail(path, f"invalid idle range [{self.idle_min_us}, {self.idle_max_us}]")
        if self.idle_scale is not None and self.idle_scale < 0:
            _fail(f"{path}.idle_scale", f"idle scale must be >= 0, got {self.idle_scale!r}")
        if self.kind == "explicit":
            if not self.items:
                _fail(f"{path}.items", "an explicit workload needs at least one item")
            for index, item in enumerate(self.items):
                item_path = f"{path}.items[{index}]"
                unknown = set(item) - _EXPLICIT_ITEM_KEYS
                if unknown:
                    _fail(item_path,
                          f"unknown item field(s) {_choices(sorted(unknown))} "
                          f"(allowed: {_choices(sorted(_EXPLICIT_ITEM_KEYS))})")
                for required in ("task", "cycles"):
                    if required not in item:
                        _fail(item_path, f"missing required item field {required!r}")
                _check_choice(item.get("priority"), f"{item_path}.priority",
                              PRIORITY_NAMES, "task priority")
                _check_choice(item.get("instruction_class"),
                              f"{item_path}.instruction_class",
                              INSTRUCTION_CLASS_NAMES, "instruction class")
        elif self.kind == "periodic" and self.task_count is None:
            _fail(path, "a periodic workload needs 'task_count'")
        elif self.kind == "random" and self.task_count is None:
            _fail(path, "a random workload needs 'task_count'")


@dataclass
class IpDef:
    """Declarative description of one IP block.

    The power characterisation fields (``max_frequency_hz`` ...
    ``residual_fraction``) and the explicit ``operating_points`` are all
    optional; when *none* of them is given the IP uses the library's default
    characterisation object, byte for byte.  ``activity_by_class`` and
    ``residual_fraction`` are partial overrides merged over the defaults.
    """

    name: str
    workload: WorkloadDef = field(default_factory=WorkloadDef)
    static_priority: int = 1
    initial_state: str = "ON1"
    bus_words_per_task: int = 0
    bus_priority: Optional[int] = None
    max_frequency_hz: Optional[float] = None
    max_voltage_v: Optional[float] = None
    effective_capacitance_f: Optional[float] = None
    idle_activity: Optional[float] = None
    leakage_coefficient: Optional[float] = None
    activity_by_class: Optional[Dict[str, float]] = None
    residual_fraction: Optional[Dict[str, float]] = None
    operating_points: Optional[List[OperatingPointDef]] = None
    psm: Optional[PsmDef] = None

    def has_custom_characterization(self) -> bool:
        """True when any characterisation knob differs from the defaults."""
        return any(
            getattr(self, key) is not None
            for key in (
                "max_frequency_hz", "max_voltage_v", "effective_capacitance_f",
                "idle_activity", "leakage_coefficient", "activity_by_class",
                "residual_fraction", "operating_points",
            )
        )

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"name": self.name, "workload": self.workload.to_dict()}
        if self.static_priority != 1:
            data["static_priority"] = self.static_priority
        if self.initial_state != "ON1":
            data["initial_state"] = self.initial_state
        if self.bus_words_per_task:
            data["bus_words_per_task"] = self.bus_words_per_task
        if self.bus_priority is not None:
            data["bus_priority"] = self.bus_priority
        for key in ("max_frequency_hz", "max_voltage_v", "effective_capacitance_f",
                    "idle_activity", "leakage_coefficient"):
            value = getattr(self, key)
            if value is not None:
                data[key] = value
        if self.activity_by_class is not None:
            data["activity_by_class"] = dict(sorted(self.activity_by_class.items()))
        if self.residual_fraction is not None:
            data["residual_fraction"] = dict(sorted(self.residual_fraction.items()))
        if self.operating_points is not None:
            data["operating_points"] = [p.to_dict() for p in self.operating_points]
        if self.psm is not None:
            psm = self.psm.to_dict()
            if psm:
                data["psm"] = psm
        return data

    @classmethod
    def from_dict(cls, value: Any, path: str = "ip") -> "IpDef":
        mapping = _as_mapping(value, path)
        _check_keys(
            mapping, path,
            ("name", "workload", "static_priority", "initial_state",
             "bus_words_per_task", "bus_priority", "max_frequency_hz",
             "max_voltage_v", "effective_capacitance_f", "idle_activity",
             "leakage_coefficient", "activity_by_class", "residual_fraction",
             "operating_points", "psm"),
        )
        name = _get_str(mapping, "name", path, required=True)
        if "workload" not in mapping:
            _fail(path, f"IP {name!r} is missing its 'workload'")
        activity = mapping.get("activity_by_class")
        residual = mapping.get("residual_fraction")
        points = _get_list(mapping, "operating_points", path)
        return cls(
            name=name,
            workload=WorkloadDef.from_dict(mapping["workload"], f"{path}.workload"),
            static_priority=_get_int(mapping, "static_priority", path, default=1),
            initial_state=_get_str(mapping, "initial_state", path, default="ON1"),
            bus_words_per_task=_get_int(mapping, "bus_words_per_task", path, default=0),
            bus_priority=_get_int(mapping, "bus_priority", path),
            max_frequency_hz=_get_float(mapping, "max_frequency_hz", path),
            max_voltage_v=_get_float(mapping, "max_voltage_v", path),
            effective_capacitance_f=_get_float(mapping, "effective_capacitance_f", path),
            idle_activity=_get_float(mapping, "idle_activity", path),
            leakage_coefficient=_get_float(mapping, "leakage_coefficient", path),
            activity_by_class=(
                None if activity is None
                else _float_map(activity, f"{path}.activity_by_class",
                                INSTRUCTION_CLASS_NAMES, "instruction class")
            ),
            residual_fraction=(
                None if residual is None
                else _float_map(residual, f"{path}.residual_fraction",
                                LOW_STATE_NAMES, "sleep/off state")
            ),
            operating_points=(
                None if points is None
                else [
                    OperatingPointDef.from_dict(item, f"{path}.operating_points[{index}]")
                    for index, item in enumerate(points)
                ]
            ),
            psm=(
                None if "psm" not in mapping
                else PsmDef.from_dict(mapping["psm"], f"{path}.psm")
            ),
        )

    def validate(self, path: str) -> None:
        if not self.name:
            _fail(f"{path}.name", "IP name must be non-empty")
        if self.static_priority < 1:
            _fail(f"{path}.static_priority",
                  f"static priority must be >= 1, got {self.static_priority!r}")
        _check_choice(self.initial_state, f"{path}.initial_state",
                      ALL_STATE_NAMES, "power state")
        if self.bus_words_per_task < 0:
            _fail(f"{path}.bus_words_per_task", "bus words per task must be >= 0")
        if self.bus_priority is not None and self.bus_priority < 0:
            _fail(f"{path}.bus_priority",
                  f"bus priority must be >= 0, got {self.bus_priority!r}")
        self.workload.validate(f"{path}.workload")
        _check_positive(self.max_frequency_hz, f"{path}.max_frequency_hz", "frequency")
        _check_positive(self.max_voltage_v, f"{path}.max_voltage_v", "voltage")
        _check_positive(self.effective_capacitance_f,
                        f"{path}.effective_capacitance_f", "capacitance")
        if self.idle_activity is not None and not 0.0 < self.idle_activity < 1.0:
            _fail(f"{path}.idle_activity",
                  f"idle activity must be a fraction in (0, 1), got {self.idle_activity!r}")
        if self.leakage_coefficient is not None and self.leakage_coefficient < 0:
            _fail(f"{path}.leakage_coefficient", "leakage coefficient must be >= 0")
        if self.activity_by_class is not None:
            for key, value in self.activity_by_class.items():
                _check_positive(value, f"{path}.activity_by_class.{key}", "activity")
        if self.residual_fraction is not None:
            for key, value in self.residual_fraction.items():
                if not 0.0 <= value <= 1.0:
                    _fail(f"{path}.residual_fraction.{key}",
                          f"residual fraction must be in [0, 1], got {value!r}")
        if self.operating_points is not None:
            states = []
            for index, point in enumerate(self.operating_points):
                point.validate(f"{path}.operating_points[{index}]")
                states.append(point.state)
            if len(states) != len(set(states)):
                _fail(f"{path}.operating_points", "duplicate operating-point states")
            missing = [s for s in ON_STATE_NAMES if s not in states]
            if missing:
                _fail(f"{path}.operating_points",
                      f"missing operating point(s) for {_choices(missing)} "
                      "(the table must cover ON1..ON4)")
            if self.max_frequency_hz is not None or self.max_voltage_v is not None:
                _fail(path,
                      "'operating_points' already fixes the DVFS table; drop "
                      "'max_frequency_hz'/'max_voltage_v'")
        if self.psm is not None:
            self.psm.validate(f"{path}.psm")


@dataclass
class BusDef:
    """The shared on-chip bus: presence, bandwidth, arbitration and timing.

    ``timing`` selects the bus model: ``event_driven`` (immediate grants,
    exact durations) or ``cycle_accurate`` (grants land only on the rising
    edges of a ``words_per_second / words_per_cycle`` Hz bus clock and
    durations round up to whole bus cycles).  The clock stays virtual: the
    arbiter computes the next edge with ``Clock.next_posedge_fs`` and never
    materialises ``Clock.out``.
    """

    enabled: bool = False
    words_per_second: float = 50e6
    arbitration: str = "priority"
    timing: str = "event_driven"
    words_per_cycle: int = 1

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {}
        if self.enabled:
            data["enabled"] = True
        if self.words_per_second != 50e6:
            data["words_per_second"] = self.words_per_second
        if self.arbitration != "priority":
            data["arbitration"] = self.arbitration
        if self.timing != "event_driven":
            data["timing"] = self.timing
        if self.words_per_cycle != 1:
            data["words_per_cycle"] = self.words_per_cycle
        return data

    @classmethod
    def from_dict(cls, value: Any, path: str = "bus") -> "BusDef":
        mapping = _as_mapping(value, path)
        _check_keys(
            mapping, path,
            ("enabled", "words_per_second", "arbitration", "timing", "words_per_cycle"),
        )
        return cls(
            enabled=_get_bool(mapping, "enabled", path, default=False),
            words_per_second=_get_float(mapping, "words_per_second", path, default=50e6),
            arbitration=_get_str(mapping, "arbitration", path, default="priority"),
            timing=_get_str(mapping, "timing", path, default="event_driven"),
            words_per_cycle=_get_int(mapping, "words_per_cycle", path, default=1),
        )

    def has_overrides(self) -> bool:
        """True when any bus knob differs from the library defaults."""
        return (self.words_per_second != 50e6 or self.arbitration != "priority"
                or self.timing != "event_driven" or self.words_per_cycle != 1)

    def validate(self, path: str) -> None:
        _check_positive(self.words_per_second, f"{path}.words_per_second",
                        "bus throughput")
        _check_choice(self.arbitration, f"{path}.arbitration",
                      BUS_ARBITRATION_NAMES, "arbitration policy")
        _check_choice(self.timing, f"{path}.timing", BUS_TIMING_NAMES,
                      "bus timing mode")
        if (isinstance(self.words_per_cycle, bool)
                or not isinstance(self.words_per_cycle, int)
                or self.words_per_cycle < 1):
            _fail(f"{path}.words_per_cycle",
                  f"words per cycle must be an integer >= 1, got {self.words_per_cycle!r}")
        if not self.enabled and self.has_overrides():
            _fail(path, "bus parameters are set but 'enabled' is false")


@dataclass
class TraceDef:
    """Structured tracing (:mod:`repro.obs`): sink format, path and filter.

    ``format`` selects the sink: ``jsonl`` (one typed event per line),
    ``perfetto`` (Chrome-trace JSON for ui.perfetto.dev) or ``vcd``
    (signal waveforms via the simulator's TraceRecorder).  ``events``
    optionally restricts jsonl/perfetto traces to a set of event kinds
    and/or categories from the ``repro.obs`` taxonomy.  ``path`` names the
    output file; when omitted the runner derives
    ``<scenario>_trace.<ext>`` next to the working directory.
    """

    enabled: bool = False
    format: str = "jsonl"
    path: Optional[str] = None
    events: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {}
        if self.enabled:
            data["enabled"] = True
        if self.format != "jsonl":
            data["format"] = self.format
        if self.path is not None:
            data["path"] = self.path
        if self.events:
            data["events"] = list(self.events)
        return data

    @classmethod
    def from_dict(cls, value: Any, path: str = "trace") -> "TraceDef":
        mapping = _as_mapping(value, path)
        _check_keys(mapping, path, ("enabled", "format", "path", "events"))
        events = _get_list(mapping, "events", path)
        if events is not None:
            for index, entry in enumerate(events):
                if not isinstance(entry, str):
                    _fail(f"{path}.events[{index}]",
                          f"expected a string, got {type(entry).__name__}")
        return cls(
            enabled=_get_bool(mapping, "enabled", path, default=False),
            format=_get_str(mapping, "format", path, default="jsonl"),
            path=_get_str(mapping, "path", path),
            events=list(events or []),
        )

    def has_overrides(self) -> bool:
        """True when any trace knob differs from the library defaults."""
        return (self.format != "jsonl" or self.path is not None
                or bool(self.events))

    def validate(self, path: str) -> None:
        _check_choice(self.format, f"{path}.format", TRACE_FORMAT_NAMES,
                      "trace format")
        if self.events:
            # The event vocabulary lives with the tracing subsystem; imported
            # lazily (and only when a filter is set) so validating untraced
            # specs never pulls repro.obs in at all.
            from repro.obs.events import EVENT_CATEGORIES, EVENT_TYPES

            for index, entry in enumerate(self.events):
                if entry not in EVENT_TYPES and entry not in EVENT_CATEGORIES:
                    _fail(f"{path}.events[{index}]",
                          f"unknown event kind or category {entry!r} (expected "
                          f"a kind such as {_choices(tuple(EVENT_TYPES)[:3])}... "
                          f"or a category: {_choices(EVENT_CATEGORIES)})")
        if self.events and self.format == "vcd":
            _fail(f"{path}.events",
                  "event filters only apply to jsonl/perfetto traces")
        if self.path is not None and not self.path:
            _fail(f"{path}.path", "trace path must be non-empty")
        if not self.enabled and self.has_overrides():
            _fail(path, "trace parameters are set but 'enabled' is false")


@dataclass
class BatteryDef:
    """Battery condition: a named preset, explicit parameters, or both.

    ``condition`` references the presets of
    :func:`repro.experiments.scenarios.battery_condition` (the paper's
    "Full"/"Low" classes); explicit fields override the preset.
    """

    condition: Optional[str] = None
    capacity_j: Optional[float] = None
    state_of_charge: Optional[float] = None
    nominal_power_w: Optional[float] = None
    peukert_exponent: Optional[float] = None
    self_discharge_w: Optional[float] = None
    on_ac_power: Optional[bool] = None

    _FIELDS = ("condition", "capacity_j", "state_of_charge", "nominal_power_w",
               "peukert_exponent", "self_discharge_w", "on_ac_power")

    def to_dict(self) -> Dict[str, Any]:
        return {key: getattr(self, key) for key in self._FIELDS
                if getattr(self, key) is not None}

    @classmethod
    def from_dict(cls, value: Any, path: str = "battery") -> "BatteryDef":
        mapping = _as_mapping(value, path)
        _check_keys(mapping, path, cls._FIELDS)
        return cls(
            condition=_get_str(mapping, "condition", path),
            capacity_j=_get_float(mapping, "capacity_j", path),
            state_of_charge=_get_float(mapping, "state_of_charge", path),
            nominal_power_w=_get_float(mapping, "nominal_power_w", path),
            peukert_exponent=_get_float(mapping, "peukert_exponent", path),
            self_discharge_w=_get_float(mapping, "self_discharge_w", path),
            on_ac_power=_get_bool(mapping, "on_ac_power", path),
        )

    def validate(self, path: str) -> None:
        _check_choice(self.condition, f"{path}.condition",
                      BATTERY_CONDITIONS, "battery condition")
        _check_positive(self.capacity_j, f"{path}.capacity_j", "battery capacity")
        if self.state_of_charge is not None and not 0.0 <= self.state_of_charge <= 1.0:
            _fail(f"{path}.state_of_charge",
                  f"state of charge must be in [0, 1], got {self.state_of_charge!r}")
        _check_positive(self.nominal_power_w, f"{path}.nominal_power_w", "nominal power")
        if self.peukert_exponent is not None and self.peukert_exponent < 1.0:
            _fail(f"{path}.peukert_exponent", "Peukert exponent must be >= 1")
        if self.self_discharge_w is not None and self.self_discharge_w < 0:
            _fail(f"{path}.self_discharge_w", "self-discharge power must be >= 0")


@dataclass
class ThermalDef:
    """Thermal condition: a named preset, explicit parameters, or both.

    ``condition`` references
    :func:`repro.experiments.scenarios.thermal_condition` (evaluated with
    the platform's IP count); explicit fields override the preset.
    """

    condition: Optional[str] = None
    ambient_c: Optional[float] = None
    initial_c: Optional[float] = None
    resistance_c_per_w: Optional[float] = None
    capacitance_j_per_c: Optional[float] = None
    fan_resistance_scale: Optional[float] = None

    _FIELDS = ("condition", "ambient_c", "initial_c", "resistance_c_per_w",
               "capacitance_j_per_c", "fan_resistance_scale")

    def to_dict(self) -> Dict[str, Any]:
        return {key: getattr(self, key) for key in self._FIELDS
                if getattr(self, key) is not None}

    @classmethod
    def from_dict(cls, value: Any, path: str = "thermal") -> "ThermalDef":
        mapping = _as_mapping(value, path)
        _check_keys(mapping, path, cls._FIELDS)
        return cls(
            condition=_get_str(mapping, "condition", path),
            ambient_c=_get_float(mapping, "ambient_c", path),
            initial_c=_get_float(mapping, "initial_c", path),
            resistance_c_per_w=_get_float(mapping, "resistance_c_per_w", path),
            capacitance_j_per_c=_get_float(mapping, "capacitance_j_per_c", path),
            fan_resistance_scale=_get_float(mapping, "fan_resistance_scale", path),
        )

    def validate(self, path: str) -> None:
        _check_choice(self.condition, f"{path}.condition",
                      THERMAL_CONDITIONS, "thermal condition")
        _check_positive(self.resistance_c_per_w, f"{path}.resistance_c_per_w",
                        "thermal resistance")
        _check_positive(self.capacitance_j_per_c, f"{path}.capacitance_j_per_c",
                        "thermal capacitance")
        if self.fan_resistance_scale is not None and not 0.0 < self.fan_resistance_scale <= 1.0:
            _fail(f"{path}.fan_resistance_scale",
                  f"fan resistance scale must be in (0, 1], got {self.fan_resistance_scale!r}")
        if (self.ambient_c is not None and self.initial_c is not None
                and self.initial_c < self.ambient_c - 1e-9):
            _fail(f"{path}.initial_c", "initial temperature cannot be below ambient")


@dataclass
class GemDef:
    """Global Energy Manager: presence plus its tunables."""

    enabled: bool = False
    high_priority_count: Optional[int] = None
    evaluation_interval_us: Optional[float] = None
    forced_state: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {}
        if self.enabled:
            data["enabled"] = True
        if self.high_priority_count is not None:
            data["high_priority_count"] = self.high_priority_count
        if self.evaluation_interval_us is not None:
            data["evaluation_interval_us"] = self.evaluation_interval_us
        if self.forced_state is not None:
            data["forced_state"] = self.forced_state
        return data

    @classmethod
    def from_dict(cls, value: Any, path: str = "gem") -> "GemDef":
        mapping = _as_mapping(value, path)
        _check_keys(mapping, path,
                    ("enabled", "high_priority_count", "evaluation_interval_us",
                     "forced_state"))
        return cls(
            enabled=_get_bool(mapping, "enabled", path, default=False),
            high_priority_count=_get_int(mapping, "high_priority_count", path),
            evaluation_interval_us=_get_float(mapping, "evaluation_interval_us", path),
            forced_state=_get_str(mapping, "forced_state", path),
        )

    def has_overrides(self) -> bool:
        """True when any GEM tunable differs from the library defaults."""
        return (self.high_priority_count is not None
                or self.evaluation_interval_us is not None
                or self.forced_state is not None)

    def validate(self, path: str) -> None:
        if self.high_priority_count is not None and self.high_priority_count < 1:
            _fail(f"{path}.high_priority_count",
                  "at least one priority rank must stay enabled")
        _check_positive(self.evaluation_interval_us,
                        f"{path}.evaluation_interval_us", "evaluation interval")
        _check_choice(self.forced_state, f"{path}.forced_state",
                      LOW_STATE_NAMES, "sleep/off state")
        if not self.enabled and self.has_overrides():
            _fail(path, "GEM tunables are set but 'enabled' is false")


@dataclass
class PolicyDef:
    """Default power-management policy of the platform.

    Optional: a platform without a policy runs under whatever
    :class:`~repro.dpm.controller.DpmSetup` the caller passes (default: the
    paper's DPM).  When present it selects the named setup and its knobs —
    and explicit setups passed by experiments/campaigns still win.

    ``rules`` (``paper`` policy only) replaces the paper's Table 1 with a
    custom first-match rule list in the
    :meth:`repro.dpm.rules.RuleTable.as_dicts` format: each entry has a
    ``state`` plus optional ``priorities``/``batteries``/``temperatures``/
    ``buses`` lists (``null``/omitted meaning "don't care") and a ``label``.
    """

    name: str = "paper"
    predictor: Optional[str] = None
    allow_off: Optional[bool] = None
    timeout_ms: Optional[float] = None
    reevaluation_interval_us: Optional[float] = None
    defer_state: Optional[str] = None
    estimation_state: Optional[str] = None
    rules: Optional[List[Dict[str, Any]]] = None

    _FIELDS = ("name", "predictor", "allow_off", "timeout_ms",
               "reevaluation_interval_us", "defer_state", "estimation_state",
               "rules")

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"name": self.name}
        for key in self._FIELDS[1:]:
            value = getattr(self, key)
            if value is not None:
                data[key] = value
        return data

    @classmethod
    def from_dict(cls, value: Any, path: str = "policy") -> "PolicyDef":
        mapping = _as_mapping(value, path)
        _check_keys(mapping, path, cls._FIELDS)
        rules = _get_list(mapping, "rules", path)
        if rules is not None:
            rules = [
                dict(_as_mapping(item, f"{path}.rules[{index}]"))
                for index, item in enumerate(rules)
            ]
        return cls(
            name=_get_str(mapping, "name", path, default="paper"),
            predictor=_get_str(mapping, "predictor", path),
            allow_off=_get_bool(mapping, "allow_off", path),
            timeout_ms=_get_float(mapping, "timeout_ms", path),
            reevaluation_interval_us=_get_float(mapping, "reevaluation_interval_us", path),
            defer_state=_get_str(mapping, "defer_state", path),
            estimation_state=_get_str(mapping, "estimation_state", path),
            rules=rules,
        )

    def validate(self, path: str) -> None:
        _check_choice(self.name, f"{path}.name", POLICY_NAMES, "policy")
        _check_choice(self.predictor, f"{path}.predictor", PREDICTOR_NAMES, "predictor")
        if self.predictor is not None and self.name != "paper":
            _fail(f"{path}.predictor",
                  f"a predictor can only be chosen for the 'paper' policy, not {self.name!r}")
        if self.allow_off is not None and self.name not in ("paper", "greedy-sleep"):
            _fail(f"{path}.allow_off",
                  f"'allow_off' only applies to 'paper'/'greedy-sleep', not {self.name!r}")
        if self.timeout_ms is not None and self.name != "fixed-timeout":
            _fail(f"{path}.timeout_ms",
                  f"'timeout_ms' only applies to 'fixed-timeout', not {self.name!r}")
        _check_positive(self.timeout_ms, f"{path}.timeout_ms", "timeout")
        _check_positive(self.reevaluation_interval_us,
                        f"{path}.reevaluation_interval_us", "re-evaluation interval")
        _check_choice(self.defer_state, f"{path}.defer_state",
                      LOW_STATE_NAMES, "sleep/off state")
        _check_choice(self.estimation_state, f"{path}.estimation_state",
                      ON_STATE_NAMES, "ON state")
        if self.rules is not None:
            if self.name != "paper":
                _fail(f"{path}.rules",
                      f"a custom rule table can only be given for the 'paper' "
                      f"policy, not {self.name!r}")
            if not self.rules:
                _fail(f"{path}.rules", "a custom rule table needs at least one rule")
            for index, entry in enumerate(self.rules):
                self._validate_rule(entry, f"{path}.rules[{index}]")

    @staticmethod
    def _validate_rule(entry: Mapping[str, Any], path: str) -> None:
        """Structural check of one custom rule entry (string vocabulary)."""
        if not isinstance(entry, Mapping):
            _fail(path, f"expected a rule mapping, got {type(entry).__name__}")
        _check_keys(entry, path, _RULE_ENTRY_KEYS)
        if "state" not in entry:
            _fail(path, "missing required rule field 'state'")
        _check_choice(entry["state"], f"{path}.state", RULE_STATE_NAMES,
                      "rule state")
        label = entry.get("label")
        if label is not None and not isinstance(label, str):
            _fail(f"{path}.label", f"expected a string, got {type(label).__name__}")
        for key, vocabulary, noun in (
            ("priorities", PRIORITY_NAMES, "task priority"),
            ("batteries", BATTERY_LEVEL_NAMES, "battery level"),
            ("temperatures", TEMPERATURE_LEVEL_NAMES, "temperature level"),
            ("buses", BUS_LEVEL_NAMES, "bus level"),
        ):
            values = entry.get(key)
            if values is None:
                continue
            if not isinstance(values, list):
                _fail(f"{path}.{key}",
                      f"expected a list of names or null, got {type(values).__name__}")
            if not values:
                _fail(f"{path}.{key}",
                      "an empty list matches nothing; use null for don't-care")
            for position, name in enumerate(values):
                _check_choice(name, f"{path}.{key}[{position}]", vocabulary, noun)


# ----------------------------------------------------------------------
# The platform specification
# ----------------------------------------------------------------------
@dataclass
class PlatformSpec:
    """Complete declarative description of a simulatable platform."""

    name: str
    ips: List[IpDef] = field(default_factory=list)
    description: str = ""
    battery: BatteryDef = field(default_factory=BatteryDef)
    thermal: ThermalDef = field(default_factory=ThermalDef)
    gem: GemDef = field(default_factory=GemDef)
    bus: BusDef = field(default_factory=BusDef)
    trace: TraceDef = field(default_factory=TraceDef)
    policy: Optional[PolicyDef] = None
    max_time_ms: float = 5000.0
    sample_interval_us: float = 1000.0
    with_fan: bool = True
    fan_power_w: float = 0.05

    #: legacy (pre-BusDef) top-level spellings, still accepted on read
    _LEGACY_BUS_KEYS = ("with_bus", "bus_words_per_second")

    _TOP_FIELDS = ("format", "name", "description", "ips", "battery", "thermal",
                   "gem", "bus", "trace", "policy", "max_time_ms",
                   "sample_interval_us", "with_fan", "fan_power_w") + _LEGACY_BUS_KEYS

    # -- (de)serialisation ---------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Canonical plain-data view (defaults omitted, hash-stable)."""
        data: Dict[str, Any] = {"format": SPEC_FORMAT, "name": self.name}
        if self.description:
            data["description"] = self.description
        data["ips"] = [ip.to_dict() for ip in self.ips]
        for key, section in (("battery", self.battery), ("thermal", self.thermal),
                             ("gem", self.gem), ("bus", self.bus),
                             ("trace", self.trace)):
            encoded = section.to_dict()
            if encoded:
                data[key] = encoded
        if self.policy is not None:
            data["policy"] = self.policy.to_dict()
        if self.max_time_ms != 5000.0:
            data["max_time_ms"] = self.max_time_ms
        if self.sample_interval_us != 1000.0:
            data["sample_interval_us"] = self.sample_interval_us
        if not self.with_fan:
            data["with_fan"] = False
        if self.fan_power_w != 0.05:
            data["fan_power_w"] = self.fan_power_w
        return data

    @classmethod
    def from_dict(cls, value: Any, path: str = "platform") -> "PlatformSpec":
        """Build and validate a spec from a plain dictionary (parsed JSON/TOML)."""
        mapping = _as_mapping(value, path)
        _check_keys(mapping, path, cls._TOP_FIELDS)
        fmt = _get_str(mapping, "format", path, default=SPEC_FORMAT)
        if fmt != SPEC_FORMAT:
            _fail(f"{path}.format",
                  f"unsupported spec format {fmt!r} (this library reads {SPEC_FORMAT!r})")
        name = _get_str(mapping, "name", path, required=True)
        ips = _get_list(mapping, "ips", path)
        if ips is None:
            _fail(path, f"platform {name!r} is missing its 'ips' list")
        spec = cls(
            name=name,
            description=_get_str(mapping, "description", path, default=""),
            ips=[
                IpDef.from_dict(item, f"{path}.ips[{index}]")
                for index, item in enumerate(ips)
            ],
            battery=(
                BatteryDef() if "battery" not in mapping
                else BatteryDef.from_dict(mapping["battery"], f"{path}.battery")
            ),
            thermal=(
                ThermalDef() if "thermal" not in mapping
                else ThermalDef.from_dict(mapping["thermal"], f"{path}.thermal")
            ),
            gem=(
                GemDef() if "gem" not in mapping
                else GemDef.from_dict(mapping["gem"], f"{path}.gem")
            ),
            bus=cls._bus_from_mapping(mapping, path),
            trace=(
                TraceDef() if "trace" not in mapping
                else TraceDef.from_dict(mapping["trace"], f"{path}.trace")
            ),
            policy=(
                None if "policy" not in mapping
                else PolicyDef.from_dict(mapping["policy"], f"{path}.policy")
            ),
            max_time_ms=_get_float(mapping, "max_time_ms", path, default=5000.0),
            sample_interval_us=_get_float(mapping, "sample_interval_us", path,
                                          default=1000.0),
            with_fan=_get_bool(mapping, "with_fan", path, default=True),
            fan_power_w=_get_float(mapping, "fan_power_w", path, default=0.05),
        )
        spec.validate()
        return spec

    @classmethod
    def _bus_from_mapping(cls, mapping: Mapping[str, Any], path: str) -> BusDef:
        """Read the ``bus`` section, honouring the legacy flat spellings."""
        legacy = [key for key in cls._LEGACY_BUS_KEYS if key in mapping]
        if "bus" in mapping:
            if legacy:
                _fail(path,
                      f"'bus' cannot be combined with the legacy key(s) "
                      f"{_choices(legacy)}")
            return BusDef.from_dict(mapping["bus"], f"{path}.bus")
        if not legacy:
            return BusDef()
        if not _get_bool(mapping, "with_bus", path, default=False):
            # In the legacy format a bandwidth without 'with_bus' was inert;
            # keep such archived specs loading (and equal to bus-less ones),
            # but still reject values the old validation refused.
            inert = _get_float(mapping, "bus_words_per_second", path)
            _check_positive(inert, f"{path}.bus_words_per_second", "bus throughput")
            return BusDef()
        return BusDef(
            enabled=True,
            words_per_second=_get_float(mapping, "bus_words_per_second", path,
                                        default=50e6),
        )

    # -- validation -----------------------------------------------------
    def validate(self) -> "PlatformSpec":
        """Check the whole tree; raises :class:`PlatformError` with a path."""
        if not self.name:
            _fail("platform.name", "the platform needs a non-empty name")
        if not self.ips:
            _fail("platform.ips", f"platform {self.name!r} defines no IPs")
        names = [ip.name for ip in self.ips]
        if len(names) != len(set(names)):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            _fail("platform.ips", f"duplicate IP name(s): {_choices(duplicates)}")
        for index, ip in enumerate(self.ips):
            ip.validate(f"platform.ips[{index}]")
        self.battery.validate("platform.battery")
        self.thermal.validate("platform.thermal")
        self.gem.validate("platform.gem")
        self.bus.validate("platform.bus")
        self.trace.validate("platform.trace")
        if self.policy is not None:
            self.policy.validate("platform.policy")
        _check_positive(self.max_time_ms, "platform.max_time_ms", "max time")
        _check_positive(self.sample_interval_us, "platform.sample_interval_us",
                        "sample interval")
        if self.fan_power_w < 0:
            _fail("platform.fan_power_w", "fan power must be >= 0")
        if not self.bus.enabled:
            for index, ip in enumerate(self.ips):
                if ip.bus_words_per_task or ip.bus_priority is not None:
                    _fail("platform.bus",
                          f"ips[{index}] ({ip.name!r}) sets bus traffic but the "
                          "platform has no bus (set bus.enabled: true)")
        return self

    def validation_error(self) -> Optional[str]:
        """Non-raising :meth:`validate`: the error message, or ``None`` if valid.

        The strategy-facing hook of ``repro.fuzz``: generated spec trees are
        checked (and property-tested) without try/except noise at call sites.
        """
        try:
            self.validate()
        except PlatformError as error:
            return str(error)
        return None
