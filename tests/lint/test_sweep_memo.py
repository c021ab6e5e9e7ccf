"""Repeated reach sweeps cost only the analysis.

The compiled-IP memo holds every IP of a whole sweep over the registered
and example platforms, so a second sweep builds no workload and no power
model.  The workload facts lint reads are derived once per compiled IP and
must equal, bit for bit, what a from-scratch walk of a freshly built
workload gives.
"""

from __future__ import annotations

import pytest

from repro.lint import lint_spec
from repro.platform import build as platform_build
from repro.platform.build import compile_ip
from repro.platform.registry import platform_by_name, platform_names
from repro.power.states import PowerState
from test_lint_golden import golden_specs


def test_a_second_reach_sweep_builds_nothing(monkeypatch):
    specs = list(golden_specs().values())
    first = [lint_spec(spec, reach=True).findings for spec in specs]
    built = []

    def counting(build):
        def counted(*args):
            built.append(build.__name__)
            return build(*args)
        return counted

    monkeypatch.setattr(platform_build, "build_workload", counting(platform_build.build_workload))
    monkeypatch.setattr(platform_build, "_build_power_model", counting(platform_build._build_power_model))
    second = [lint_spec(spec, reach=True).findings for spec in specs]
    assert built == []
    assert second == first


def recomputed(ipdef):
    """The facts of a freshly built workload, walked the long way."""
    fresh = platform_build._compile_ip(ipdef, platform_build._build_power_model(ipdef)).ip_spec(ipdef)
    tasks = list(fresh.workload.items)
    char = fresh.characterization
    return {
        "task_count": len(tasks),
        "classes": sorted({item.task.instruction_class.value for item in tasks}),
        "priorities": sorted({item.task.priority.value for item in tasks}),
        "max_idle_gap_s": repr(max((item.idle_after.seconds for item in tasks), default=0.0)),
        "max_task_energy_j": repr(max(
            char.task_energy_j(PowerState.ON1, item.task.cycles, item.task.instruction_class)
            for item in tasks
        )),
        "min_cycles": min(item.task.cycles for item in tasks),
        "max_cycles": max(item.task.cycles for item in tasks),
        "total_cycles": sum(item.task.cycles for item in tasks),
        "total_idle_fs": sum(int(item.idle_after) for item in tasks),
    }


def derived(facts):
    return {
        "task_count": facts.task_count,
        "classes": [iclass.value for iclass in facts.classes],
        "priorities": [priority.value for priority in facts.priorities],
        "max_idle_gap_s": repr(facts.max_idle_gap_s),
        "max_task_energy_j": repr(facts.max_task_energy_j),
        "min_cycles": facts.min_cycles,
        "max_cycles": facts.max_cycles,
        "total_cycles": facts.total_cycles,
        "total_idle_fs": int(facts.total_idle),
    }


@pytest.mark.parametrize("name", platform_names())
def test_compiled_facts_equal_a_from_scratch_walk(name):
    for ipdef in platform_by_name(name).ips:
        compiled = compile_ip(ipdef)
        assert compiled.facts is compiled.facts  # derived once
        assert derived(compiled.facts) == recomputed(ipdef)
