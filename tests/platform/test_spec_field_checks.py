"""Field checks the spec validator derives from the field table.

Non-finite numbers, mistyped explicit workload items and wrongly typed
fields of specs built in Python are all rejected at validation, with the
field's dotted path, instead of failing later without one (or running
silently on a NaN).
"""

from __future__ import annotations

import copy
import math
import re
from typing import Any, Dict, Iterator, List, Tuple

import pytest

from repro.errors import PlatformError
from repro.experiments import run_scenario
from repro.platform import (
    BatteryDef,
    GemDef,
    IpDef,
    PlatformBuilder,
    PlatformSpec,
    ThermalDef,
    TraceDef,
    WorkloadDef,
)
from repro.platform.serialize import spec_from_json, spec_from_toml

_POINTS = [
    {"state": state, "voltage_v": 1.2 - 0.1 * index, "frequency_hz": 200e6 - 50e6 * index}
    for index, state in enumerate(("ON1", "ON2", "ON3", "ON4"))
]


def full_platforms() -> List[Dict[str, Any]]:
    """Valid platforms that between them set every float field."""
    base = {
        "name": "floats",
        "ips": [
            {
                "name": "cpu",
                "workload": {"kind": "periodic", "task_count": 2, "cycles": 1000,
                             "idle_us": 10.0, "idle_scale": 0.5},
                "bus_words_per_task": 4,
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
                    "transitions": [{"source": "ON1", "target": "SL2",
                                     "energy_j": 1e-6, "latency_us": 4.0}],
                },
            },
            {
                "name": "dsp",
                "workload": {"kind": "random", "task_count": 2, "cycles_min": 100,
                             "cycles_max": 200, "idle_min_us": 1.0, "idle_max_us": 2.0},
                "operating_points": copy.deepcopy(_POINTS),
            },
            {
                "name": "dma",
                "workload": {"kind": "bursty", "burst_count": 1, "tasks_per_burst": 2,
                             "intra_burst_idle_us": 5.0, "inter_burst_idle_us": 50.0},
            },
        ],
        "battery": {"capacity_j": 100.0, "state_of_charge": 0.8, "nominal_power_w": 1.0,
                    "peukert_exponent": 1.1, "self_discharge_w": 0.01},
        "thermal": {"ambient_c": 25.0, "initial_c": 30.0, "resistance_c_per_w": 10.0,
                    "capacitance_j_per_c": 5.0, "fan_resistance_scale": 0.5},
        "gem": {"enabled": True, "evaluation_interval_us": 500.0},
        "bus": {"enabled": True, "words_per_second": 1e6},
        "policy": {"name": "paper", "reevaluation_interval_us": 100.0},
        "max_time_ms": 10.0,
        "sample_interval_us": 500.0,
        "fan_power_w": 0.1,
    }
    timeout = copy.deepcopy(base)
    timeout["policy"] = {"name": "fixed-timeout", "timeout_ms": 5.0}
    return [base, timeout]


def _float_leaves(value: Any, path: Tuple[Any, ...] = ()) -> Iterator[Tuple[Any, ...]]:
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _float_leaves(item, (*path, key))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _float_leaves(item, (*path, index))
    elif isinstance(value, float):
        yield path


def _dotted(path: Tuple[Any, ...]) -> str:
    text = "platform"
    for key in path:
        text += f"[{key}]" if isinstance(key, int) else f".{key}"
    return text


def _with(data: Dict[str, Any], path: Tuple[Any, ...], value: Any) -> Dict[str, Any]:
    data = copy.deepcopy(data)
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return data


def _non_finite_cases() -> List[Tuple[str, Dict[str, Any], Tuple[Any, ...], float]]:
    cases = {}
    for data in full_platforms():
        PlatformSpec.from_dict(data)  # the unmodified platform is valid
        for path in _float_leaves(data):
            for value in (math.nan, math.inf, -math.inf):
                cases[f"{_dotted(path)}={value}"] = (data, path, value)
    return [(name, *case) for name, case in sorted(cases.items())]


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("name,data,path,value", _non_finite_cases(),
                             ids=[case[0] for case in _non_finite_cases()])
    def test_every_float_field_rejects_non_finite_values(self, name, data, path, value):
        expected = f"{_dotted(path)}: expected a finite number, got {value!r}"
        with pytest.raises(PlatformError, match=re.escape(expected)):
            PlatformSpec.from_dict(_with(data, path, value))

    def test_the_sweep_covers_every_float_field(self):
        maps = ("entry_latency_us", "wakeup_latency_us", "activity_by_class", "residual_fraction")
        fields = set()
        for data in full_platforms():
            for path in _float_leaves(data):
                field_path = path[:-1] if len(path) > 1 and path[-2] in maps else path
                fields.add(tuple(key for key in field_path if not isinstance(key, int)))
        assert len(fields) == 37  # every float field of the spec tree

    @pytest.mark.parametrize("path", [
        ("sample_interval_us",), ("max_time_ms",), ("bus", "words_per_second"),
        ("ips", 0, "workload", "idle_us"), ("battery", "capacity_j"), ("fan_power_w",),
    ])
    def test_values_that_used_to_fail_inside_the_run_are_rejected_up_front(self, path):
        data = full_platforms()[0]
        with pytest.raises(PlatformError, match=re.escape(_dotted(path))):
            PlatformSpec.from_dict(_with(data, path, math.nan))

    def test_json_nan_and_infinity_literals(self):
        text = ('{"name": "j", "ips": [{"name": "a", "workload": {"kind": "low_activity"}}], '
                '"sample_interval_us": NaN}')
        with pytest.raises(PlatformError, match=r"platform\.sample_interval_us: .*finite"):
            spec_from_json(text)
        with pytest.raises(PlatformError, match=r"platform\.max_time_ms: .*finite"):
            spec_from_json(text.replace('"sample_interval_us": NaN', '"max_time_ms": Infinity'))

    def test_toml_nan_and_inf_literals(self):
        pytest.importorskip("tomllib")
        text = ('name = "t"\nfan_power_w = nan\n[[ips]]\nname = "a"\n'
                '[ips.workload]\nkind = "low_activity"\n')
        with pytest.raises(PlatformError, match=r"platform\.fan_power_w: .*finite"):
            spec_from_toml(text)
        with pytest.raises(PlatformError, match=r"platform\.battery\.capacity_j: .*finite"):
            spec_from_toml(text.replace("fan_power_w = nan\n", "battery = {capacity_j = inf}\n"))

    def test_python_built_sections_are_checked_too(self):
        spec = PlatformSpec(name="p", ips=[IpDef(name="a", workload=WorkloadDef(task_count=2))],
                            thermal=ThermalDef(ambient_c=math.nan))
        with pytest.raises(PlatformError, match=r"platform\.thermal\.ambient_c: .*finite"):
            spec.validate()


def _explicit(**item: Any) -> Dict[str, Any]:
    entry = {"task": "t0", "cycles": 2500, **item}
    return {"name": "items", "ips": [{"name": "cpu", "workload": {
        "kind": "explicit", "items": [{"task": "warm", "cycles": 100}, entry]}}]}


_ITEM = "platform.ips[0].workload.items[1]"


class TestExplicitItems:
    @pytest.mark.parametrize("item,message", [
        ({"cycles": 2500.7}, f"{_ITEM}.cycles: expected an integer, got 2500.7"),
        ({"cycles": True}, f"{_ITEM}.cycles: expected an integer, got True"),
        ({"cycles": 0}, f"{_ITEM}.cycles: cycle count must be positive, got 0"),
        ({"cycles": -3}, f"{_ITEM}.cycles: cycle count must be positive, got -3"),
        ({"idle_after_fs": -10}, f"{_ITEM}.idle_after_fs: idle times must be >= 0, got -10"),
        ({"idle_after_fs": 1.9}, f"{_ITEM}.idle_after_fs: expected an integer, got 1.9"),
        ({"task": 7}, f"{_ITEM}.task: expected a string, got int"),
    ])
    def test_mistyped_item_fields_are_rejected_with_their_path(self, item, message):
        with pytest.raises(PlatformError, match=re.escape(message)):
            PlatformSpec.from_dict(_explicit(**item))

    def test_python_built_items_are_checked(self):
        spec = PlatformSpec(name="p", ips=[IpDef(name="a", workload=WorkloadDef(
            kind="explicit", items=[{"task": "t", "cycles": 10}, "t1"]))])
        with pytest.raises(PlatformError, match=re.escape(
                "platform.ips[0].workload.items[1]: expected a mapping/table, got str")):
            spec.validate()

    def test_zero_cycles_no_longer_reach_the_build(self):
        spec = PlatformSpec(name="p", ips=[IpDef(name="a", workload=WorkloadDef(
            kind="explicit", items=[{"task": "t", "cycles": 0}]))])
        with pytest.raises(PlatformError, match=r"items\[0\]\.cycles"):
            run_scenario(spec, trace=False)

    def test_well_formed_items_still_validate(self):
        spec = PlatformSpec.from_dict(_explicit(idle_after_fs=0, priority="high"))
        assert spec.ips[0].workload.items[1] == {
            "task": "t0", "cycles": 2500, "idle_after_fs": 0, "priority": "high"}


class TestWorkloadsThatCannotBeBuilt:
    """What validation accepts, the build can instantiate."""

    @pytest.mark.parametrize("workload,message", [
        (WorkloadDef(kind="scenario_a", task_count=1),
         "platform.ips[1].workload.task_count: the scenario A workload needs at least two tasks"),
        (WorkloadDef(kind="explicit", items=[{"task": "t0", "cycles": 10}, {"task": "", "cycles": 10}]),
         "platform.ips[1].workload.items[1].task: task name must be non-empty"),
    ])
    def test_rejected_at_validation_with_their_path(self, workload, message):
        spec = PlatformSpec(name="p", ips=[IpDef(name="a"), IpDef(name="b", workload=workload)])
        with pytest.raises(PlatformError, match=re.escape(message)):
            spec.validate()
        with pytest.raises(PlatformError, match=re.escape(message)):
            PlatformSpec.from_dict(spec.to_dict())

    def test_two_scenario_a_tasks_still_build(self):
        spec = PlatformSpec(name="p", ips=[IpDef(
            name="a", workload=WorkloadDef(kind="scenario_a", task_count=2))]).validate()
        assert run_scenario(spec, trace=False).all_tasks_completed


_PERIODIC = {"kind": "periodic", "task_count": 1}


def _built(configure) -> PlatformSpec:
    return configure(PlatformBuilder("x")).ip("a", workload=_PERIODIC).build()


class TestTypedFieldsOfPythonSpecs:
    @pytest.mark.parametrize("configure,message", [
        (lambda b: b.ip("b", workload=_PERIODIC, priority="2"),
         "platform.ips[0].static_priority: expected an integer, got '2'"),
        (lambda b: b.gem(high_priority_count="3"),
         "platform.gem.high_priority_count: expected an integer, got '3'"),
        (lambda b: b.battery(state_of_charge="0.5"),
         "platform.battery.state_of_charge: expected a number, got '0.5'"),
        (lambda b: b.battery(bogus=1), "platform.battery: unknown field(s) bogus"),
        (lambda b: b.thermal("low", ambient_c="25"),
         "platform.thermal.ambient_c: expected a number, got '25'"),
        (lambda b: b.policy(allow_off="yes"),
         "platform.policy.allow_off: expected a boolean, got str"),
    ])
    def test_builder_mistakes_raise_platform_errors_with_a_path(self, configure, message):
        with pytest.raises(PlatformError, match=re.escape(message)):
            _built(configure)

    @pytest.mark.parametrize("section,message", [
        ({"ips": [IpDef(name="a", static_priority="2", workload=WorkloadDef(task_count=1))]},
         "platform.ips[0].static_priority: expected an integer, got '2'"),
        ({"gem": GemDef(enabled=True, high_priority_count="3")},
         "platform.gem.high_priority_count: expected an integer, got '3'"),
        ({"battery": BatteryDef(state_of_charge="0.5")},
         "platform.battery.state_of_charge: expected a number, got '0.5'"),
        ({"ips": [IpDef(name="a", workload=WorkloadDef(kind="periodic", task_count="3"))]},
         "platform.ips[0].workload.task_count: expected an integer, got '3'"),
        ({"ips": [IpDef(name="a", workload={"kind": "periodic", "task_count": 3})]},
         "platform.ips[0].workload: expected a WorkloadDef, got dict"),
        ({"ips": [IpDef(name="a", workload=WorkloadDef(
            kind="random", task_count=1, priorities=["low", 3]))]},
         "platform.ips[0].workload.priorities[1]: expected a priority name, got 3"),
        ({"ips": [IpDef(name="a", workload=WorkloadDef(task_count=1),
                        activity_by_class={"fpu": 1.0})]},
         "platform.ips[0].activity_by_class.fpu: unknown instruction class 'fpu'"),
        ({"trace": TraceDef(enabled=True, events="task")},
         "platform.trace.events: expected a list/array, got str"),
        ({"description": None}, "platform.description: expected a string, got NoneType"),
        ({"with_fan": 1}, "platform.with_fan: expected a boolean, got int"),
    ])
    def test_constructed_specs_are_type_checked(self, section, message):
        fields = {"ips": [IpDef(name="a", workload=WorkloadDef(task_count=1))], **section}
        spec = PlatformSpec(name="p", **fields)
        with pytest.raises(PlatformError, match=re.escape(message)):
            spec.validate()
