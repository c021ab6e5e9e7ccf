"""Golden-result tests for the event-driven fast path.

The kernel/time refactor (analytic clocks, integer-femtosecond hot path) is
a pure speed change: all six paper scenarios must produce *bit-identical*
``ScenarioMetrics`` in the default (exact) accuracy mode to the recorded
goldens (A1 and B date from before the refactor; A2-A4 and C pin the same
contract for the remaining rows).
"""

import json
from pathlib import Path

import pytest

from repro.dpm import DpmSetup
from repro.experiments import run_comparison
from repro.platform import build_ip_spec, build_soc_config, platform_by_name
from repro.sim import Clock, Simulator, ms
from repro.sim.native import available as _native_available
from repro.soc.soc import build_soc

GOLDEN_PATH = Path(__file__).parent.parent / "golden" / "scenario_metrics.json"

#: both kernel backends: the compiled event heap must reproduce the golden
#: trajectories bit-for-bit, not just approximately
BACKENDS = [
    "python",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            not _native_available(), reason="native core extension not built"
        ),
    ),
]

#: ScenarioMetrics float fields pinned bit-exactly (hex) in the golden file.
_FLOAT_FIELDS = (
    "energy_saving_pct",
    "temperature_reduction_pct",
    "average_delay_overhead_pct",
    "dpm_energy_j",
    "baseline_energy_j",
    "dpm_average_rise_c",
    "baseline_average_rise_c",
    "dpm_peak_c",
    "baseline_peak_c",
    "simulated_time_s",
)


def _load_golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _run_on_own_simulator(spec):
    """Build ``spec`` on a fresh Simulator (whose modules the tests inspect) and run it."""
    config = build_soc_config(spec)
    simulator = Simulator(name=config.name)
    soc = build_soc([build_ip_spec(ipdef) for ipdef in spec.ips], config,
                    DpmSetup.paper(), simulator=simulator)
    soc.run_until_done(max_time=ms(spec.max_time_ms))
    return soc


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("scenario_name", ["A1", "A2", "A3", "A4", "B", "C"])
def test_scenario_metrics_bit_identical_to_pre_refactor_goldens(scenario_name, backend):
    golden = _load_golden()[scenario_name]
    metrics = run_comparison(
        scenario_name, DpmSetup.paper(), backend=backend
    )
    mismatches = {}
    for field in _FLOAT_FIELDS:
        got = getattr(metrics, field)
        if got.hex() != golden[field]:
            mismatches[field] = (got.hex(), golden[field])
    if metrics.tasks_executed != golden["tasks_executed"]:
        mismatches["tasks_executed"] = (metrics.tasks_executed, golden["tasks_executed"])
    for ip_name, figures in metrics.per_ip.items():
        for key, value in figures.items():
            got = value.hex() if isinstance(value, float) else value
            want = golden["per_ip"][ip_name][key]
            if got != want:
                mismatches[f"per_ip.{ip_name}.{key}"] = (got, want)
    assert not mismatches, f"scenario {scenario_name} drifted from golden: {mismatches}"


@pytest.mark.parametrize("scenario_name", ["A1", "A2", "A3", "A4", "B", "C"])
def test_default_scenarios_never_materialise_a_clock(scenario_name):
    """Clock-free regression: no default scenario may construct a Clock;
    only the cycle-accurate bus owns one, and no paper scenario has a bus.
    """
    simulator = _run_on_own_simulator(platform_by_name(scenario_name)).simulator
    clocks = [
        module
        for top in simulator.top_modules
        for module in top.walk()
        if isinstance(module, Clock)
    ]
    assert clocks == [], f"scenario {scenario_name} constructed clocks: {clocks}"


def test_event_driven_bus_stays_on_the_virtual_clock_fast_path():
    """A bus-bearing platform in the default timing mode adds no clock."""
    from repro.platform import PlatformBuilder

    spec = (
        PlatformBuilder("busy-virtual")
        .bus(words_per_second=5e6)
        .ip("a", workload={"kind": "periodic", "task_count": 4, "cycles": 20000,
                           "idle_us": 100.0}, bus_words_per_task=64)
        .ip("b", workload={"kind": "periodic", "task_count": 4, "cycles": 10000,
                           "idle_us": 80.0}, priority=2, bus_words_per_task=128)
        .max_time_ms(50)
        .build()
    )
    soc = _run_on_own_simulator(spec)
    assert soc.bus is not None
    assert soc.bus.stats.transfer_count > 0
    assert soc.bus.clock is None


def test_cycle_accurate_bus_keeps_even_its_own_clock_virtual():
    """Batched posedge arbitration: the CA bus owns a clock, but only its
    analytic edge schedule is used — the clock runs no process and drives
    no signal."""
    from repro.platform import PlatformBuilder

    spec = (
        PlatformBuilder("busy-accurate")
        .bus(words_per_second=5e6, timing="cycle_accurate", words_per_cycle=4)
        .ip("a", workload={"kind": "periodic", "task_count": 4, "cycles": 20000,
                           "idle_us": 100.0}, bus_words_per_task=64)
        .ip("b", workload={"kind": "periodic", "task_count": 4, "cycles": 10000,
                           "idle_us": 80.0}, priority=2, bus_words_per_task=128)
        .max_time_ms(50)
        .build()
    )
    soc = _run_on_own_simulator(spec)
    assert soc.bus.stats.transfer_count > 0
    assert soc.bus.clock is not None
    assert not soc.bus.clock.processes and not soc.bus.clock.signals
