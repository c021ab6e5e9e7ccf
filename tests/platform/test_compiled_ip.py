"""Compiled IPs: built once per IpDef content, shared by runs, never mutated.

Every run, oracle, campaign job and lint of an IP takes its
characterisation, transition table, break-even analyses, PSM facts and
workload from :func:`repro.platform.build.compile_ip`; the power model is
shared by every IP with the same power content.  Sharing them is sound only
while nothing mutates them, and a run on a warm memo is bit-identical to one
on a cold memo.
"""

from __future__ import annotations

import gc
import re
import weakref

import pytest

from repro.errors import WorkloadError
from repro.experiments import run_comparison, run_differential, run_scenario, runner
from repro.lint import lint_spec
from repro.platform import IpDef, PlatformSpec, PsmDef, WorkloadDef
from repro.platform import build as platform_build
from repro.platform.build import COMPILED_IP_LIMIT, COMPILED_ITEM_LIMIT, compile_ip
from repro.platform.registry import platform_by_name, platform_names
from repro.power.states import SLEEP_STATES, PowerState
from repro.sim.accuracy import AccuracyMode


@pytest.fixture
def cold_memo():
    platform_build._COMPILED.clear()
    yield
    platform_build._COMPILED.clear()


def states(values):
    return sorted(str(state) for state in values)


def snapshot(compiled):
    """Every value of a compiled IP a run or analysis reads."""
    characterization = compiled.characterization
    power = compiled.power
    return {
        "graph": {str(state): states(targets) for state, targets in power.graph.items()},
        "reachable": {str(state): states(found) for state, found in power.reachable.items()},
        "complete": states(power.complete_states),
        "entry": states(power.entry_states),
        "lint_breakeven": power.lint_breakeven.summary(),
        "workload": compiled.workload.as_dicts(),
        "transitions": compiled.transitions.as_dict(),
        "dense_costs": compiled.transitions.dense_costs,
        "breakeven": compiled.breakeven.summary(),
        "idle_w": [repr(characterization.idle_power_w(state)) for state in PowerState],
        "residual_w": [
            repr(characterization.residual_power_w(state))
            for state in (*SLEEP_STATES, PowerState.OFF)
        ],
    }


def soc_state(artifacts):
    """What one run produced that sharing its inputs must not change."""
    soc = artifacts.soc
    return {
        "end_fs": int(artifacts.end_time),
        "energy": repr(soc.total_energy_j()),
        "ip_energy": [repr(instance.ip.energy_account.total_j) for instance in soc.instances],
        "transitions": [instance.psm.transition_counts for instance in soc.instances],
        "transition_count": [instance.psm.transition_count for instance in soc.instances],
        "kernel": soc.simulator.kernel.stats.as_dict(),
        "temperature": [repr(soc.thermal.average_rise_c), repr(soc.thermal.peak_c)],
    }


@pytest.mark.parametrize("name", platform_names())
def test_no_run_mutates_a_compiled_ip(name):
    spec = platform_by_name(name)
    compiled = [compile_ip(ipdef) for ipdef in spec.ips]
    before = [snapshot(entry) for entry in compiled]
    result = run_differential(spec)
    assert all(verdict.status != "fail" for verdict in result.verdicts), result.verdicts
    run_comparison(spec)
    lint_spec(spec, reach=True)
    assert all(compile_ip(ipdef) is entry for ipdef, entry in zip(spec.ips, compiled))
    assert [snapshot(entry) for entry in compiled] == before
    if name == "B":
        assert len(compiled) == 4
        assert all(entry.power is compiled[0].power for entry in compiled)


@pytest.mark.parametrize("name", platform_names())
def test_warm_memo_run_is_bit_identical_to_cold(name, cold_memo):
    spec = platform_by_name(name)
    cold = soc_state(run_scenario(spec, trace=False))
    memo = [compile_ip(ipdef) for ipdef in spec.ips]
    warm = soc_state(run_scenario(spec, trace=False))
    assert all(compile_ip(ipdef) is entry for ipdef, entry in zip(spec.ips, memo))
    assert warm == cold


def held_items():
    return sum(len(entry.workload.items) for entry in platform_build._COMPILED.values())


def periodic_ips(count, tasks):
    return [
        IpDef(name=f"ip{index}", workload=WorkloadDef(kind="periodic", task_count=tasks))
        for index in range(count)
    ]


def test_memo_never_holds_more_than_its_entry_bound(cold_memo):
    ipdefs = periodic_ips(COMPILED_IP_LIMIT + 5, tasks=2)
    compiled = []
    for ipdef in ipdefs[:COMPILED_IP_LIMIT]:
        compiled.append(compile_ip(ipdef))
    assert len(platform_build._COMPILED) == COMPILED_IP_LIMIT
    # Using the oldest entry makes the second oldest the least recently used.
    assert compile_ip(ipdefs[0]) is compiled[0]
    for ipdef in ipdefs[COMPILED_IP_LIMIT:]:
        compiled.append(compile_ip(ipdef))
        assert len(platform_build._COMPILED) <= COMPILED_IP_LIMIT
    # The least recently used went first: ip1 ... ip5, never ip0.
    held = compiled[6:COMPILED_IP_LIMIT] + [compiled[0]] + compiled[COMPILED_IP_LIMIT:]
    assert list(platform_build._COMPILED.values()) == held
    assert compile_ip(ipdefs[1]) is not compiled[1]


def test_memo_never_holds_more_than_its_item_bound(cold_memo):
    tasks = COMPILED_ITEM_LIMIT // 4 + 1  # four of them are one item too many
    ipdefs = periodic_ips(5, tasks=tasks)
    compiled = []
    for ipdef in ipdefs[:3]:
        compiled.append(compile_ip(ipdef))
    assert held_items() == 3 * tasks
    assert compile_ip(ipdefs[0]) is compiled[0]
    for ipdef in ipdefs[3:]:
        compiled.append(compile_ip(ipdef))
        assert held_items() <= COMPILED_ITEM_LIMIT
    # The least recently used went first: ip1, then ip2.
    assert list(platform_build._COMPILED.values()) == [compiled[0], compiled[3], compiled[4]]
    assert compile_ip(ipdefs[1]) is not compiled[1]
    # A workload larger than the whole bound is built but not kept.
    huge = IpDef(name="huge", workload=WorkloadDef(kind="periodic", task_count=COMPILED_ITEM_LIMIT + 1))
    assert compile_ip(huge).workload.task_count == COMPILED_ITEM_LIMIT + 1
    assert held_items() <= COMPILED_ITEM_LIMIT


def test_equal_content_shares_one_compile(cold_memo):
    thin = IpDef(name="cpu", workload=WorkloadDef(kind="random", task_count=4, seed=3))
    explicit_defaults = IpDef.from_dict(
        {"name": "cpu", "static_priority": 1, "initial_state": "ON1",
         "workload": {"kind": "random", "task_count": 4, "seed": 3}}
    )
    assert compile_ip(thin) is compile_ip(explicit_defaults)
    reseeded = IpDef(name="cpu", workload=WorkloadDef(kind="random", task_count=4, seed=4))
    assert compile_ip(reseeded) is not compile_ip(thin)


def test_ips_differing_outside_power_fields_share_one_model(cold_memo):
    base = IpDef(name="cpu", workload=WorkloadDef(kind="periodic", task_count=2))
    variants = [
        IpDef(name="dsp", workload=base.workload),
        IpDef(name="cpu", workload=WorkloadDef(kind="random", task_count=3, seed=9)),
        IpDef(name="cpu", workload=base.workload, static_priority=3),
        IpDef(name="cpu", workload=base.workload, initial_state="SL1"),
        IpDef(name="cpu", workload=base.workload, bus_words_per_task=64, bus_priority=2),
    ]
    compiled = compile_ip(base)
    for ipdef in variants:
        other = compile_ip(ipdef)
        assert other is not compiled
        assert other.power is compiled.power


@pytest.mark.parametrize("knob", [
    {"psm": PsmDef(wakeup_latency_us={"SL2": 40.0})},
    {"residual_fraction": {"SL1": 0.5}},
])
def test_one_differing_power_knob_gives_a_separate_model(cold_memo, knob):
    workload = WorkloadDef(kind="periodic", task_count=2)
    base = compile_ip(IpDef(name="cpu", workload=workload))
    tuned = compile_ip(IpDef(name="cpu", workload=workload, **knob))
    assert tuned.power is not base.power
    assert (tuned.transitions.as_dict(), tuned.breakeven.summary()) != (
        base.transitions.as_dict(), base.breakeven.summary())


def test_a_model_lives_only_while_a_compiled_ip_holds_it(cold_memo):
    # A power content no other test uses, so nothing else can hold the model.
    ipdef = IpDef(name="cpu", workload=WorkloadDef(kind="periodic", task_count=2),
                  residual_fraction={"SL4": 0.0123})
    model = weakref.ref(compile_ip(ipdef).power)
    gc.collect()
    assert model() is compile_ip(ipdef).power  # held by the compiled-IP memo
    platform_build._COMPILED.clear()
    gc.collect()
    assert model() is None


def test_failed_workload_is_raised_by_runs_and_reported_by_lint(cold_memo):
    # Validation rejects one scenario A task; the run body and lint meet it
    # in an unvalidated spec.
    ipdef = IpDef(
        name="cpu",
        workload=WorkloadDef(kind="scenario_a", task_count=1),
    )
    compiled = compile_ip(ipdef)
    assert compiled.workload is None
    assert isinstance(compiled.error, WorkloadError)
    assert not platform_build._COMPILED  # failures are not kept
    with pytest.raises(WorkloadError, match=re.escape(str(compiled.error))):
        runner._run(PlatformSpec(name="wzero", ips=[ipdef]), None, AccuracyMode.EXACT, False, None)
    report = lint_spec(PlatformSpec(name="wzero", ips=[ipdef]))
    assert any(finding.code == "WORKLOAD-EMPTY-TASK" for finding in report.findings)
