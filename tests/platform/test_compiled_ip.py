"""Compiled IPs: built once per IpDef content, shared by runs, never mutated.

Every run, oracle, campaign job and lint of an IP takes its
characterisation, transition table, break-even analysis and workload from
:func:`repro.platform.build.compile_ip`.  Sharing them is sound only while
nothing mutates them, and a run on a warm memo is bit-identical to one on a
cold memo.
"""

from __future__ import annotations

import re

import pytest

from repro.errors import WorkloadError
from repro.experiments import run_comparison, run_differential, run_scenario
from repro.lint import lint_spec
from repro.platform import IpDef, PlatformSpec, WorkloadDef
from repro.platform import build as platform_build
from repro.platform.build import COMPILED_IP_LIMIT, build_ip_spec, compile_ip
from repro.platform.registry import platform_by_name, platform_names
from repro.power.states import SLEEP_STATES, PowerState


@pytest.fixture
def cold_memo():
    platform_build._COMPILED.clear()
    yield
    platform_build._COMPILED.clear()


def snapshot(compiled):
    """Every value of a compiled IP a run or analysis reads."""
    characterization = compiled.characterization
    return {
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
    assert all(compile_ip(ipdef) is entry for ipdef, entry in zip(spec.ips, compiled))
    assert [snapshot(entry) for entry in compiled] == before


@pytest.mark.parametrize("name", platform_names())
def test_warm_memo_run_is_bit_identical_to_cold(name, cold_memo):
    spec = platform_by_name(name)
    cold = soc_state(run_scenario(spec, trace=False))
    memo = [compile_ip(ipdef) for ipdef in spec.ips]
    warm = soc_state(run_scenario(spec, trace=False))
    assert all(compile_ip(ipdef) is entry for ipdef, entry in zip(spec.ips, memo))
    assert warm == cold


def test_memo_never_holds_more_than_its_bound(cold_memo):
    ipdefs = [
        IpDef(name=f"ip{index}", workload=WorkloadDef(kind="periodic", task_count=2))
        for index in range(COMPILED_IP_LIMIT + 5)
    ]
    compiled = []
    for ipdef in ipdefs:
        compiled.append(compile_ip(ipdef))
        assert len(platform_build._COMPILED) <= COMPILED_IP_LIMIT
    assert len(platform_build._COMPILED) == COMPILED_IP_LIMIT
    # The least recently used go first; the newest stay shared.
    assert compile_ip(ipdefs[-1]) is compiled[-1]
    assert compile_ip(ipdefs[0]) is not compiled[0]


def test_equal_content_shares_one_compile(cold_memo):
    thin = IpDef(name="cpu", workload=WorkloadDef(kind="random", task_count=4, seed=3))
    explicit_defaults = IpDef.from_dict(
        {"name": "cpu", "static_priority": 1, "initial_state": "ON1",
         "workload": {"kind": "random", "task_count": 4, "seed": 3}}
    )
    assert compile_ip(thin) is compile_ip(explicit_defaults)
    reseeded = IpDef(name="cpu", workload=WorkloadDef(kind="random", task_count=4, seed=4))
    assert compile_ip(reseeded) is not compile_ip(thin)


def test_build_ip_spec_shares_nothing_with_the_memo(cold_memo):
    ipdef = platform_by_name("A1").ips[0]
    compiled = compile_ip(ipdef)
    fresh = build_ip_spec(ipdef)
    assert fresh.workload is not compiled.workload
    assert fresh.characterization is not compiled.characterization
    assert fresh.transitions is not compiled.transitions
    assert fresh.breakeven is not compiled.breakeven
    assert fresh.workload.as_dicts() == compiled.workload.as_dicts()


def test_failed_workload_is_raised_by_runs_and_reported_by_lint(cold_memo):
    ipdef = IpDef(
        name="cpu",
        workload=WorkloadDef(kind="explicit", items=[{"task": "t0", "cycles": 0}]),
    )
    compiled = compile_ip(ipdef)
    assert compiled.workload is None
    assert isinstance(compiled.error, WorkloadError)
    assert not platform_build._COMPILED  # failures are not kept
    with pytest.raises(WorkloadError, match=re.escape(str(compiled.error))):
        run_scenario(PlatformSpec(name="wzero", ips=[ipdef]), trace=False)
    report = lint_spec(PlatformSpec(name="wzero", ips=[ipdef]))
    assert any(finding.code == "WORKLOAD-EMPTY-TASK" for finding in report.findings)
