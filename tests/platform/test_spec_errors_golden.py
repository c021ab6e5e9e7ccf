"""Golden of the ``PlatformError`` text for a corpus of invalid platform specs.

Every field of every spec class is probed, on an otherwise valid platform,
with a fixed set of wrongly typed and out-of-range values, with the field
removed, and with an unknown key next to it.  Hand-written cases add every
cross-field rule (operating-point coverage, transition cost pairing,
workload-kind applicability, policy rules, bus traffic, ...) and the
builder's own errors.  Each case records the full error text, or
``"accepted"`` when the input validates, so any change to what the spec
reader and validator accept, or to how they word a rejection, shows up here.

Regenerate (only for an intended change of the accepted inputs or of an
error message) with
``PYTHONPATH=src python tests/platform/test_spec_errors_golden.py``, which
rewrites ``tests/golden/platform_errors.json``.
"""

from __future__ import annotations

import copy
import dataclasses
import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Tuple

import pytest

from repro.errors import PlatformError
from repro.platform import PlatformBuilder, PlatformSpec
from repro.platform.spec import (
    BatteryDef,
    BusDef,
    GemDef,
    IpDef,
    OperatingPointDef,
    PolicyDef,
    PsmDef,
    ThermalDef,
    TraceDef,
    TransitionDef,
    WorkloadDef,
)

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "golden" / "platform_errors.json"

#: values tried on every field: wrong types, and numbers on both sides of
#: every positive, ``>= 0``, ``>= 1`` and fraction bound
PROBES: Tuple[Any, ...] = ("bogus", 7, 0.5, 1.0, 2.0, 0, -1, True, [], {})
#: marks a key to remove (a probe, and a step of a hand-written case)
DELETE = object()

Key = Any  # a dict key or a list index
Steps = Sequence[Tuple[Tuple[Key, ...], Any]]

_POINTS = [
    {"state": "ON1", "voltage_v": 1.2, "frequency_hz": 200e6},
    {"state": "ON2", "voltage_v": 1.1, "frequency_hz": 150e6},
    {"state": "ON3", "voltage_v": 1.0, "frequency_hz": 100e6},
    {"state": "ON4", "voltage_v": 0.9, "frequency_hz": 50e6},
]

#: one valid workload per kind; each WorkloadDef field is probed in the
#: first of these that sets it (the common fields in ``periodic``)
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "periodic": {
        "kind": "periodic", "name": "w", "task_count": 3, "cycles": 1000,
        "idle_us": 10.0, "priority": "high", "instruction_class": "dsp",
        "idle_scale": 0.5, "force_priority": "low",
    },
    "random": {
        "kind": "random", "task_count": 3, "seed": 2, "cycles_min": 100,
        "cycles_max": 200, "idle_min_us": 1.0, "idle_max_us": 2.0,
        "priorities": ["low", "high"],
    },
    "bursty": {
        "kind": "bursty", "burst_count": 2, "tasks_per_burst": 3, "seed": 1,
        "intra_burst_idle_us": 5.0, "inter_burst_idle_us": 50.0,
    },
    "explicit": {
        "kind": "explicit",
        "items": [{"task": "t0", "cycles": 100, "priority": "low",
                   "instruction_class": "alu", "idle_after_fs": 1000}],
    },
    "high_activity": {"kind": "high_activity", "task_count": 2, "seed": 1},
    "low_activity": {"kind": "low_activity", "task_count": 2, "seed": 1},
    "scenario_a": {"kind": "scenario_a", "task_count": 2, "seed": 1},
}


def base_platform() -> Dict[str, Any]:
    """A valid platform that sets every section, so every field can be probed."""
    return {
        "format": "repro-platform/1",
        "name": "golden",
        "description": "error corpus",
        "ips": [
            {
                "name": "cpu",
                "workload": copy.deepcopy(WORKLOADS["periodic"]),
                "static_priority": 2,
                "initial_state": "ON2",
                "bus_words_per_task": 4,
                "bus_priority": 1,
                "max_frequency_hz": 300e6,
                "max_voltage_v": 1.1,
                "effective_capacitance_f": 1e-10,
                "idle_activity": 0.2,
                "leakage_coefficient": 0.1,
                "activity_by_class": {"alu": 1.0},
                "residual_fraction": {"SL1": 0.5},
                "psm": {
                    "dvfs_latency_us": 5.0,
                    "entry_latency_us": {"SL1": 2.0},
                    "wakeup_latency_us": {"SL1": 3.0},
                    "transitions": [
                        {"source": "ON1", "target": "SL2", "energy_j": 1e-6,
                         "latency_us": 4.0, "allowed": True},
                    ],
                },
            },
            {"name": "dsp", "workload": {"kind": "low_activity", "task_count": 2}},
        ],
        "battery": {
            "condition": "high", "capacity_j": 100.0, "state_of_charge": 0.8,
            "nominal_power_w": 1.0, "peukert_exponent": 1.1,
            "self_discharge_w": 0.01, "on_ac_power": False,
        },
        "thermal": {
            "condition": "low", "ambient_c": 25.0, "initial_c": 30.0,
            "resistance_c_per_w": 10.0, "capacitance_j_per_c": 5.0,
            "fan_resistance_scale": 0.5,
        },
        "gem": {"enabled": True, "high_priority_count": 2,
                "evaluation_interval_us": 500.0, "forced_state": "SL2"},
        "bus": {"enabled": True, "words_per_second": 1e6, "arbitration": "fifo",
                "timing": "cycle_accurate", "words_per_cycle": 2},
        "trace": {"enabled": True, "format": "jsonl", "path": "t.jsonl",
                  "events": ["task", "psm.state"]},
        "policy": {
            "name": "paper", "predictor": "ewma", "allow_off": True,
            "reevaluation_interval_us": 100.0, "defer_state": "SL1",
            "estimation_state": "ON2",
            "rules": [{"state": "ON1", "priorities": ["high"], "label": "all"}],
        },
        "max_time_ms": 10.0,
        "sample_interval_us": 500.0,
        "with_fan": True,
        "fan_power_w": 0.1,
    }


def _ip_with_points(data: Dict[str, Any]) -> None:
    ip = data["ips"][0]
    del ip["max_frequency_hz"], ip["max_voltage_v"]
    ip["operating_points"] = copy.deepcopy(_POINTS)


def _fixed_timeout(data: Dict[str, Any]) -> None:
    data["policy"] = {"name": "fixed-timeout", "timeout_ms": 5.0}


def _workload(kind: str) -> Callable[[Dict[str, Any]], None]:
    def prepare(data: Dict[str, Any]) -> None:
        data["ips"][0]["workload"] = copy.deepcopy(WORKLOADS[kind])

    return prepare


def _no_prepare(data: Dict[str, Any]) -> None:
    return None


#: (label, class, path of the section in the platform, preparation)
SECTIONS: List[Tuple[str, type, Tuple[Key, ...], Callable[[Dict[str, Any]], None]]] = [
    ("platform", PlatformSpec, (), _no_prepare),
    ("ip", IpDef, ("ips", 0), _no_prepare),
    ("operating_point", OperatingPointDef, ("ips", 0, "operating_points", 0), _ip_with_points),
    ("psm", PsmDef, ("ips", 0, "psm"), _no_prepare),
    ("transition", TransitionDef, ("ips", 0, "psm", "transitions", 0), _no_prepare),
    ("battery", BatteryDef, ("battery",), _no_prepare),
    ("thermal", ThermalDef, ("thermal",), _no_prepare),
    ("gem", GemDef, ("gem",), _no_prepare),
    ("bus", BusDef, ("bus",), _no_prepare),
    ("trace", TraceDef, ("trace",), _no_prepare),
    ("policy", PolicyDef, ("policy",), _no_prepare),
]
SECTIONS += [
    (f"workload:{kind}", WorkloadDef, ("ips", 0, "workload"), _workload(kind))
    for kind in WORKLOADS
]

#: fields probed under a preparation other than their section's
FIELD_PREPARATIONS: Dict[Tuple[str, str], Callable[[Dict[str, Any]], None]] = {
    ("ip", "operating_points"): _ip_with_points,
    ("policy", "timeout_ms"): _fixed_timeout,
}


def _probed_in(label: str, cls: type, name: str) -> bool:
    """Probe each WorkloadDef field once, under the first kind that sets it."""
    if cls is not WorkloadDef:
        return True
    kind = label.split(":")[1]
    owner = next((k for k, w in WORKLOADS.items() if name in w), "periodic")
    return kind == owner


def _apply(data: Dict[str, Any], path: Tuple[Key, ...], value: Any) -> None:
    target = data
    for key in path[:-1]:
        target = target[key]
    if value is DELETE:
        del target[path[-1]]
    elif isinstance(target, list) and path[-1] == len(target):
        target.append(value)
    else:
        target[path[-1]] = value


def _outcome(build: Callable[[], Any]) -> str:
    try:
        build()
    except PlatformError as error:
        return str(error)
    return "accepted"


def _from_steps(prepare: Callable[[Dict[str, Any]], None], steps: Steps) -> Callable[[], Any]:
    def build() -> Any:
        data = base_platform()
        prepare(data)
        for path, value in steps:
            _apply(data, path, value)
        return PlatformSpec.from_dict(data)

    return build


def field_cases() -> Dict[str, Callable[[], Any]]:
    """Every field of every class: each probe, removal, and an unknown key."""
    cases: Dict[str, Callable[[], Any]] = {}
    for label, cls, section, prepare in SECTIONS:
        names = [f.name for f in dataclasses.fields(cls)]
        if cls is PlatformSpec:
            names.insert(0, "format")
        for name in names:
            if not _probed_in(label, cls, name):
                continue
            setup = FIELD_PREPARATIONS.get((label, name), prepare)
            for probe in (*PROBES, DELETE):
                shown = "<deleted>" if probe is DELETE else repr(probe)
                cases[f"{label}.{name}={shown}"] = _from_steps(
                    setup, [((*section, name), probe)]
                )
        cases[f"{label}.<unknown key>"] = _from_steps(prepare, [((*section, "bogus"), 1)])
    return cases


_IP = ("ips", 0)
_WL = ("ips", 0, "workload")
_ITEM = ("ips", 0, "workload", "items", 0)
_TR = ("ips", 0, "psm", "transitions", 0)
_RULE = ("policy", "rules", 0)

#: (case, preparation, steps) for every cross-field rule
CROSS_CASES: List[Tuple[str, Callable[[Dict[str, Any]], None], Steps]] = [
    # operating points
    ("points.missing_on4", _ip_with_points, [((*_IP, "operating_points"), _POINTS[:3])]),
    ("points.duplicate_state", _ip_with_points,
     [((*_IP, "operating_points", 3, "state"), "ON3")]),
    ("points.with_max_frequency", _ip_with_points, [((*_IP, "max_frequency_hz"), 1e8)]),
    ("points.with_max_voltage", _ip_with_points, [((*_IP, "max_voltage_v"), 1.0)]),
    ("points.not_a_mapping", _ip_with_points, [((*_IP, "operating_points", 0), 5)]),
    # transitions
    ("transition.self", _no_prepare, [((*_TR, "target"), "ON1")]),
    ("transition.missing_energy", _no_prepare, [((*_TR, "energy_j"), DELETE)]),
    ("transition.missing_latency", _no_prepare, [((*_TR, "latency_us"), DELETE)]),
    ("transition.forbidden_with_costs", _no_prepare, [((*_TR, "allowed"), False)]),
    ("transition.forbidden_bare", _no_prepare,
     [((*_TR, "allowed"), False), ((*_TR, "energy_j"), DELETE), ((*_TR, "latency_us"), DELETE)]),
    ("transition.forbidden_with_latency", _no_prepare,
     [((*_TR, "allowed"), False), ((*_TR, "energy_j"), DELETE)]),
    ("transition.negative_energy", _no_prepare, [((*_TR, "energy_j"), -1e-6)]),
    ("transition.negative_latency", _no_prepare, [((*_TR, "latency_us"), -4.0)]),
    ("transition.duplicate", _no_prepare,
     [(("ips", 0, "psm", "transitions", 1),
       {"source": "ON1", "target": "SL2", "allowed": False})]),
    ("transition.not_a_mapping", _no_prepare, [(_TR, "ON1->SL2")]),
    ("psm.entry_unknown_state", _no_prepare, [(("ips", 0, "psm", "entry_latency_us"), {"ON1": 1.0})]),
    ("psm.entry_not_a_number", _no_prepare, [(("ips", 0, "psm", "entry_latency_us"), {"SL1": "x"})]),
    ("psm.entry_zero", _no_prepare, [(("ips", 0, "psm", "entry_latency_us"), {"SL1": 0.0})]),
    ("psm.wakeup_unknown_state", _no_prepare, [(("ips", 0, "psm", "wakeup_latency_us"), {"XX": 1.0})]),
    ("psm.wakeup_negative", _no_prepare, [(("ips", 0, "psm", "wakeup_latency_us"), {"OFF": -1.0})]),
    ("psm.empty_table", _no_prepare, [(("ips", 0, "psm"), {})]),
    # IP maps
    ("ip.activity_unknown_class", _no_prepare, [((*_IP, "activity_by_class"), {"fpu": 1.0})]),
    ("ip.activity_not_a_number", _no_prepare, [((*_IP, "activity_by_class"), {"alu": "x"})]),
    ("ip.activity_bool", _no_prepare, [((*_IP, "activity_by_class"), {"alu": True})]),
    ("ip.activity_zero", _no_prepare, [((*_IP, "activity_by_class"), {"io": 0.0})]),
    ("ip.residual_unknown_state", _no_prepare, [((*_IP, "residual_fraction"), {"ON1": 0.5})]),
    ("ip.residual_above_one", _no_prepare, [((*_IP, "residual_fraction"), {"OFF": 1.5})]),
    ("ip.residual_negative", _no_prepare, [((*_IP, "residual_fraction"), {"SL4": -0.5})]),
    ("ip.residual_bounds", _no_prepare, [((*_IP, "residual_fraction"), {"SL1": 0.0, "SL2": 1.0})]),
    ("ip.empty_name", _no_prepare, [((*_IP, "name"), "")]),
    ("ip.not_a_mapping", _no_prepare, [(_IP, "cpu")]),
    # workloads
    ("workload.unknown_kind", _no_prepare, [((*_WL, "kind"), "burstyy")]),
    ("workload.kind_not_a_string", _no_prepare, [((*_WL, "kind"), 3)]),
    ("workload.missing_kind", _no_prepare, [((*_WL, "kind"), DELETE)]),
    ("workload.not_a_mapping", _no_prepare, [(_WL, "periodic")]),
    ("workload.periodic_without_task_count", _no_prepare, [((*_WL, "task_count"), DELETE)]),
    ("workload.random_without_task_count", _workload("random"), [((*_WL, "task_count"), DELETE)]),
    ("workload.cycles_min_alone", _workload("random"), [((*_WL, "cycles_max"), DELETE)]),
    ("workload.cycles_max_alone", _workload("random"), [((*_WL, "cycles_min"), DELETE)]),
    ("workload.cycle_range_inverted", _workload("random"),
     [((*_WL, "cycles_min"), 300), ((*_WL, "cycles_max"), 200)]),
    ("workload.cycle_range_zero", _workload("random"),
     [((*_WL, "cycles_min"), 0), ((*_WL, "cycles_max"), 200)]),
    ("workload.cycle_range_bursty", _workload("bursty"),
     [((*_WL, "cycles_min"), 50), ((*_WL, "cycles_max"), 10)]),
    ("workload.idle_min_alone", _workload("random"), [((*_WL, "idle_max_us"), DELETE)]),
    ("workload.idle_max_alone", _workload("random"), [((*_WL, "idle_min_us"), DELETE)]),
    ("workload.idle_range_inverted", _workload("random"),
     [((*_WL, "idle_min_us"), 3.0), ((*_WL, "idle_max_us"), 2.0)]),
    ("workload.priorities_empty", _workload("random"), [((*_WL, "priorities"), [])]),
    ("workload.priorities_unknown", _workload("random"), [((*_WL, "priorities"), ["low", "urgent"])]),
    ("workload.priorities_not_names", _workload("random"), [((*_WL, "priorities"), ["low", 3])]),
    ("explicit.no_items", _workload("explicit"), [((*_WL, "items"), [])]),
    ("explicit.item_not_a_mapping", _workload("explicit"), [(_ITEM, ["t0", 100])]),
    ("explicit.item_missing_task", _workload("explicit"), [((*_ITEM, "task"), DELETE)]),
    ("explicit.item_missing_cycles", _workload("explicit"), [((*_ITEM, "cycles"), DELETE)]),
    ("explicit.item_unknown_key", _workload("explicit"), [((*_ITEM, "deadline"), 5)]),
    ("explicit.item_idle_after_ns", _workload("explicit"), [((*_ITEM, "idle_after_ns"), 5)]),
    ("explicit.item_bad_priority", _workload("explicit"), [((*_ITEM, "priority"), "urgent")]),
    ("explicit.item_bad_class", _workload("explicit"), [((*_ITEM, "instruction_class"), "fpu")]),
    ("explicit.second_item_bad", _workload("explicit"),
     [((*_WL, "items", 1), {"task": "t1"})]),
]
CROSS_CASES += [
    (f"workload.{kind}_foreign_{field}", _workload(kind), [((*_WL, field), value)])
    for kind, field, value in (
        ("periodic", "seed", 3),
        ("periodic", "items", [{"task": "t", "cycles": 1}]),
        ("random", "cycles", 10),
        ("random", "burst_count", 2),
        ("bursty", "task_count", 4),
        ("bursty", "idle_us", 1.0),
        ("high_activity", "cycles_min", 10),
        ("low_activity", "priority", "low"),
        ("scenario_a", "priorities", ["low"]),
        ("explicit", "task_count", 3),
        ("explicit", "name", "named"),
    )
]
CROSS_CASES += [
    # GEM, bus and trace switches
    ("gem.tunables_while_disabled", _no_prepare, [(("gem", "enabled"), False)]),
    ("gem.disabled_bare", _no_prepare, [(("gem",), {"enabled": False})]),
    ("bus.parameters_while_disabled", _no_prepare,
     [(("bus", "enabled"), False), (("ips", 0, "bus_words_per_task"), DELETE),
      (("ips", 0, "bus_priority"), DELETE)]),
    ("bus.traffic_without_bus", _no_prepare, [(("bus",), {"enabled": False})]),
    ("bus.priority_without_bus", _no_prepare,
     [(("bus",), {"enabled": False}), (("ips", 0, "bus_words_per_task"), DELETE)]),
    ("bus.traffic_second_ip_without_bus", _no_prepare,
     [(("bus",), {"enabled": False}), (("ips", 0, "bus_words_per_task"), DELETE),
      (("ips", 0, "bus_priority"), DELETE), (("ips", 1, "bus_words_per_task"), 2)]),
    ("bus.section_missing", _no_prepare, [(("bus",), DELETE)]),
    ("trace.parameters_while_disabled", _no_prepare, [(("trace", "enabled"), False)]),
    ("trace.unknown_event", _no_prepare, [(("trace", "events"), ["task", "tsak.start"])]),
    ("trace.event_not_a_string", _no_prepare, [(("trace", "events"), ["task", 3])]),
    ("trace.events_with_vcd", _no_prepare, [(("trace", "format"), "vcd")]),
    ("trace.vcd_without_events", _no_prepare,
     [(("trace", "format"), "vcd"), (("trace", "events"), DELETE)]),
    ("trace.empty_path", _no_prepare, [(("trace", "path"), "")]),
    ("thermal.initial_below_ambient", _no_prepare, [(("thermal", "initial_c"), 20.0)]),
    ("thermal.initial_at_ambient", _no_prepare, [(("thermal", "initial_c"), 25.0)]),
    # policies
    ("policy.predictor_not_paper", _no_prepare, [(("policy", "name"), "oracle"),
                                                 (("policy", "rules"), DELETE)]),
    ("policy.allow_off_not_applicable", _no_prepare,
     [(("policy",), {"name": "always-on", "allow_off": True})]),
    ("policy.allow_off_greedy", _no_prepare,
     [(("policy",), {"name": "greedy-sleep", "allow_off": False})]),
    ("policy.timeout_not_applicable", _no_prepare, [(("policy", "timeout_ms"), 5.0)]),
    ("policy.timeout_zero", _fixed_timeout, [(("policy", "timeout_ms"), 0.0)]),
    ("policy.rules_not_paper", _no_prepare,
     [(("policy",), {"name": "greedy-sleep", "rules": [{"state": "ON1"}]})]),
    ("policy.rules_empty", _no_prepare, [(("policy", "rules"), [])]),
    ("rule.not_a_mapping", _no_prepare, [(_RULE, "ON1")]),
    ("rule.unknown_key", _no_prepare, [((*_RULE, "when"), "always")]),
    ("rule.missing_state", _no_prepare, [((*_RULE, "state"), DELETE)]),
    ("rule.off_state", _no_prepare, [((*_RULE, "state"), "OFF")]),
    ("rule.label_not_a_string", _no_prepare, [((*_RULE, "label"), 5)]),
    ("rule.priorities_not_a_list", _no_prepare, [((*_RULE, "priorities"), "high")]),
    ("rule.priorities_empty", _no_prepare, [((*_RULE, "priorities"), [])]),
    ("rule.priorities_null", _no_prepare, [((*_RULE, "priorities"), None)]),
    ("rule.unknown_battery", _no_prepare, [((*_RULE, "batteries"), ["full", "half"])]),
    ("rule.unknown_temperature", _no_prepare, [((*_RULE, "temperatures"), ["hot"])]),
    ("rule.unknown_bus", _no_prepare, [((*_RULE, "buses"), ["busy"])]),
    ("rule.second_rule_bad", _no_prepare, [(("policy", "rules", 1), {"state": "SL5"})]),
    # the platform
    ("platform.no_ips", _no_prepare, [(("ips",), [])]),
    ("platform.duplicate_ip_names", _no_prepare, [(("ips", 1, "name"), "cpu")]),
    ("platform.empty_name", _no_prepare, [(("name",), "")]),
    ("platform.with_bus_key", _no_prepare, [(("with_bus",), True)]),
    ("platform.bus_words_per_second_key", _no_prepare, [(("bus_words_per_second",), 1e6)]),
    ("platform.unsupported_format", _no_prepare, [(("format",), "repro-platform/0")]),
    ("platform.ips_not_a_list", _no_prepare, [(("ips",), {"name": "cpu"})]),
    ("platform.battery_not_a_mapping", _no_prepare, [(("battery",), "low")]),
    ("platform.policy_null", _no_prepare, [(("policy",), None)]),
]


def _root(value: Any) -> Callable[[], Any]:
    return lambda: PlatformSpec.from_dict(value)


_PERIODIC = {"kind": "periodic", "task_count": 1}

#: the builder's own errors
BUILDER_CASES: Dict[str, Callable[[], Any]] = {
    "builder.missing_workload": lambda: PlatformBuilder("x").ip("a").build(),
    "builder.workload_not_a_mapping": lambda: PlatformBuilder("x").ip("a", workload=5).build(),
    "builder.psm_not_a_mapping": lambda: PlatformBuilder("x").ip(
        "a", workload=_PERIODIC, psm=5).build(),
    "builder.unknown_ip_keyword": lambda: PlatformBuilder("x").ip(
        "a", workload=_PERIODIC, bogus=1).build(),
    "builder.no_ips": lambda: PlatformBuilder("x").build(),
}


def all_cases() -> Dict[str, Callable[[], Any]]:
    cases = field_cases()
    for name, prepare, steps in CROSS_CASES:
        assert name not in cases, name
        cases[name] = _from_steps(prepare, steps)
    cases["root.not_a_mapping"] = _root(["golden"])
    cases["root.empty_mapping"] = _root({})
    cases["root.base_is_valid"] = _root(base_platform())
    cases.update(BUILDER_CASES)
    return cases


def outcomes() -> Dict[str, str]:
    return {name: _outcome(build) for name, build in sorted(all_cases().items())}


def test_error_texts_match_golden():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    observed = outcomes()
    assert sorted(observed) == sorted(golden), "the corpus changed"
    changed = {name: (golden[name], text) for name, text in observed.items()
               if golden[name] != text}
    assert not changed, json.dumps(changed, indent=1)


@pytest.mark.parametrize("kind", sorted(WORKLOADS))
def test_every_workload_base_is_valid(kind):
    data = base_platform()
    _workload(kind)(data)
    PlatformSpec.from_dict(data)


if __name__ == "__main__":  # pragma: no cover - golden regeneration helper
    GOLDEN_PATH.write_text(json.dumps(outcomes(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
