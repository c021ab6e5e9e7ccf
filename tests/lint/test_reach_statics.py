"""Reach bounds are derived once per compiled IP and read on every sweep.

The transition bounds live on the shared power model (one record per
initial state), the task and power bounds on the compiled IP, so a second
reach sweep over the same platforms walks no transition table.  The
results must not depend on whether the memo was cold or warm, each spec
must still quote its own ``platform.ips[i]`` paths in its notes, and an IP
evicted from the memo must be freed by reference counting alone.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.lint import build_model, compute_reach
from repro.platform import IpDef, PlatformSpec, PsmDef, TransitionDef, WorkloadDef
from repro.platform import build as platform_build
from repro.platform.build import compile_ip
from repro.power.transitions import TransitionTable
from test_lint_golden import golden_specs


@pytest.fixture
def cold_memo():
    platform_build._COMPILED.clear()
    yield
    platform_build._COMPILED.clear()


def reach(spec):
    return compute_reach(build_model(spec))


def test_cold_and_warm_memo_give_equal_results(cold_memo):
    for key, spec in golden_specs().items():
        platform_build._COMPILED.clear()
        cold = reach(spec)
        warm = reach(spec)
        assert cold == warm, key
        assert cold.describe() == warm.describe(), key


def test_a_second_sweep_walks_no_transition_table(monkeypatch):
    specs = list(golden_specs().values())
    first = [reach(spec) for spec in specs]
    calls = []
    cost = TransitionTable.cost

    def counted(self, source, target):
        calls.append((source, target))
        return cost(self, source, target)

    monkeypatch.setattr(TransitionTable, "cost", counted)
    second = [reach(spec) for spec in specs]
    assert calls == []
    assert second == first


def unbounded_ip(name):
    """An IP whose ON1 -> SL1 transition deposits energy at zero latency."""
    return IpDef(
        name=name,
        workload=WorkloadDef(kind="periodic", task_count=2, cycles=5_000, idle_us=100.0),
        psm=PsmDef(transitions=[TransitionDef(
            source="ON1", target="SL1", energy_j=1e-6, latency_us=0.0,
        )]),
    )


def test_notes_quote_each_specs_own_path():
    other = IpDef(
        name="dsp",
        workload=WorkloadDef(kind="periodic", task_count=2, cycles=3_000, idle_us=50.0),
    )
    first = PlatformSpec(name="first", ips=[unbounded_ip("cpu"), other], max_time_ms=10.0)
    second = PlatformSpec(name="second", ips=[other, unbounded_ip("cpu")], max_time_ms=10.0)
    note = "transition ON1->SL1 has positive energy at zero latency; transition power is unbounded"
    assert compile_ip(first.ips[0]) is compile_ip(second.ips[1])
    assert f"platform.ips[0]: {note}" in reach(first).assumptions
    notes = reach(second).assumptions
    assert f"platform.ips[1]: {note}" in notes
    assert not any(line.startswith("platform.ips[0]") for line in notes)


def test_an_evicted_compiled_ip_is_freed_without_gc(cold_memo, monkeypatch):
    spec = PlatformSpec(name="evicted", ips=[unbounded_ip("cpu")], max_time_ms=10.0)
    gc.collect()
    gc.disable()
    try:
        result = reach(spec)
        compiled = compile_ip(spec.ips[0])
        assert compiled.power._transition_bounds and compiled._power_bounds
        assert "task_bounds" in vars(compiled)
        held = weakref.ref(compiled)
        power = weakref.ref(compiled.power)
        del compiled, result
        monkeypatch.setattr(platform_build, "COMPILED_IP_LIMIT", 1)
        compile_ip(IpDef(name="dsp", workload=WorkloadDef(kind="periodic", task_count=1)))
        assert held() is None
        assert power() is None
    finally:
        gc.enable()
