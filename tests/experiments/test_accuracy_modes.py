"""Fast accuracy mode: toleranced equivalence over all six paper scenarios.

The ``fast`` mode reassociates the battery/thermal sampler arithmetic
(closed-form window batches, coalesced background integration, synchronous
PSM transitions) but must keep every decision and event time identical.
The contract enforced here, per the documented tolerances:

* energies and energy-derived percentages: relative error <= 1e-9;
* temperatures and state of charge: relative error <= 1e-6;
* event times, task counts, transition counts: exactly equal;
* ``exact`` stays the default and bit-identical (covered by the golden
  tests; re-checked here for the default-mode plumbing).
"""

import pytest

from repro.dpm import DpmSetup
from repro.experiments import run_comparison, run_scenario
from repro.platform import platform_by_name
from repro.sim import AccuracyMode

SCENARIOS = ["A1", "A2", "A3", "A4", "B", "C"]

#: ScenarioMetrics fields derived from energies (and their ratios).
ENERGY_FIELDS = (
    "dpm_energy_j",
    "baseline_energy_j",
    "energy_saving_pct",
)
#: Fields derived from temperatures.
TEMPERATURE_FIELDS = (
    "dpm_average_rise_c",
    "baseline_average_rise_c",
    "dpm_peak_c",
    "baseline_peak_c",
    "temperature_reduction_pct",
)
#: Pure timing figures: identical decisions mean identical values.
EXACT_FIELDS = (
    "average_delay_overhead_pct",
    "simulated_time_s",
)

ENERGY_RTOL = 1e-9
TEMPERATURE_RTOL = 1e-6


def _rel(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


class TestAccuracyModeParsing:
    def test_names(self):
        assert AccuracyMode.from_name("fast") is AccuracyMode.FAST
        assert AccuracyMode.from_name("EXACT") is AccuracyMode.EXACT
        assert AccuracyMode.from_name(None) is AccuracyMode.EXACT
        assert AccuracyMode.from_name(AccuracyMode.FAST) is AccuracyMode.FAST

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            AccuracyMode.from_name("approximate")

    def test_is_fast(self):
        assert AccuracyMode.FAST.is_fast
        assert not AccuracyMode.EXACT.is_fast
        assert str(AccuracyMode.FAST) == "fast"


@pytest.mark.parametrize("scenario_name", SCENARIOS)
def test_fast_mode_within_documented_tolerances(scenario_name):
    scenario = platform_by_name(scenario_name)
    exact = run_comparison(scenario, DpmSetup.paper(), accuracy="exact")
    fast = run_comparison(scenario, DpmSetup.paper(), accuracy="fast")

    failures = {}
    for field in ENERGY_FIELDS:
        rel = _rel(getattr(exact, field), getattr(fast, field))
        if rel > ENERGY_RTOL:
            failures[field] = rel
    for field in TEMPERATURE_FIELDS:
        rel = _rel(getattr(exact, field), getattr(fast, field))
        if rel > TEMPERATURE_RTOL:
            failures[field] = rel
    for field in EXACT_FIELDS:
        if getattr(exact, field) != getattr(fast, field):
            failures[field] = (getattr(exact, field), getattr(fast, field))
    if exact.tasks_executed != fast.tasks_executed:
        failures["tasks_executed"] = (exact.tasks_executed, fast.tasks_executed)
    for ip_name, figures in exact.per_ip.items():
        for key in ("tasks", "transitions"):
            if figures[key] != fast.per_ip[ip_name][key]:
                failures[f"per_ip.{ip_name}.{key}"] = (
                    figures[key],
                    fast.per_ip[ip_name][key],
                )
        rel = _rel(figures["energy_j"], fast.per_ip[ip_name]["energy_j"])
        if rel > ENERGY_RTOL:
            failures[f"per_ip.{ip_name}.energy_j"] = rel
    assert not failures, f"fast mode drifted beyond tolerance: {failures}"


@pytest.mark.parametrize("scenario_name", ["A1", "B"])
def test_fast_mode_preserves_event_times_exactly(scenario_name):
    """Every task's request/grant/completion instant must be identical."""
    scenario = platform_by_name(scenario_name)
    exact = run_scenario(scenario, DpmSetup.paper(), accuracy="exact")
    fast = run_scenario(scenario, DpmSetup.paper(), accuracy="fast")
    assert exact.end_time == fast.end_time
    assert len(exact.executions) == len(fast.executions)
    for run_e, run_f in zip(exact.executions, fast.executions):
        assert run_e.request_time == run_f.request_time
        assert run_e.grant_time == run_f.grant_time
        assert run_e.completion_time == run_f.completion_time
        assert run_e.power_state == run_f.power_state
    for inst_e, inst_f in zip(exact.soc.instances, fast.soc.instances):
        assert inst_e.psm.transition_counts == inst_f.psm.transition_counts
        assert inst_e.psm.residency() == inst_f.psm.residency()


def test_fast_mode_is_deterministic():
    """Two fast runs of the same scenario are bit-identical to each other."""
    scenario = platform_by_name("A1")
    first = run_comparison(scenario, DpmSetup.paper(), accuracy="fast")
    second = run_comparison(scenario, DpmSetup.paper(), accuracy="fast")
    for field in ENERGY_FIELDS + TEMPERATURE_FIELDS + EXACT_FIELDS:
        assert getattr(first, field).hex() == getattr(second, field).hex(), field


def test_default_mode_is_exact():
    """Omitting accuracy must keep the bit-identical reference behaviour."""
    scenario = platform_by_name("A1")
    default = run_comparison(scenario, DpmSetup.paper())
    exact = run_comparison(scenario, DpmSetup.paper(), accuracy="exact")
    for field in ENERGY_FIELDS + TEMPERATURE_FIELDS + EXACT_FIELDS:
        assert getattr(default, field).hex() == getattr(exact, field).hex(), field


def test_fast_mode_works_for_baseline_setup():
    """The always-on baseline (GEM forces, Peukert-rate battery) also holds."""
    scenario = platform_by_name("B")
    exact = run_scenario(scenario, DpmSetup.always_on(), accuracy="exact")
    fast = run_scenario(scenario, DpmSetup.always_on(), accuracy="fast")
    assert _rel(exact.total_energy_j, fast.total_energy_j) <= ENERGY_RTOL
    assert _rel(exact.average_rise_c, fast.average_rise_c) <= TEMPERATURE_RTOL
    assert _rel(
        exact.soc.battery.state_of_charge, fast.soc.battery.state_of_charge
    ) <= TEMPERATURE_RTOL


def test_fast_mode_never_imports_numpy():
    """Fast-mode window replay is plain Python: a fast A1 run must not
    import NumPy (in a subprocess, so this test process' own imports
    cannot contaminate sys.modules)."""
    import subprocess
    import sys

    code = (
        "import sys\n"
        "from repro.experiments.runner import run_scenario\n"
        "run_scenario('A1', accuracy='fast')\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        "print('clean')\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=False
    )
    assert result.returncode == 0, result.stderr
    assert "clean" in result.stdout
