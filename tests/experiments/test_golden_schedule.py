"""Golden kernel schedules of the exact (default) accuracy mode.

``scenario_metrics.json`` pins the reduced ``ScenarioMetrics`` of the paper
rows; this file pins *how* each DPM run got there: the kernel counters
(activations, delta cycles, timed notifications, time advances ...), the
raw end-of-run energy, battery and peak/average temperature floats, every
PSM's transition counts and the number of battery samples.  A speed change that
reorders or drops a process wake, or reassociates one float of the
battery/thermal sampling, fails here even when the reduced metrics agree.

Covers the six paper rows, the four library platforms and one GEM platform
whose four busy IPs contend for a shared bus (no registered platform has
that shape).  Regenerate (only
for a change that is meant to alter the simulated schedule) with::

    PYTHONPATH=src python tests/experiments/test_golden_schedule.py
"""

import json
from pathlib import Path

import pytest

from repro.experiments import run_scenario
from repro.platform.spec import (
    BatteryDef, BusDef, GemDef, IpDef, PlatformSpec, ThermalDef, WorkloadDef,
)

GOLDEN_PATH = Path(__file__).parent.parent / "golden" / "exact_schedule.json"

PLATFORMS = (
    "A1", "A2", "A3", "A4", "B", "C",
    "iot-duty-cycle", "phone-bursty", "server-diurnal", "sustained-throttled",
)


def contended_bus_spec():
    """Paper row B's shape with all four IPs busy on one shared bus."""
    words = (31_500, 39_200, 28_700, 35_900)
    return PlatformSpec(
        name="gem-contended-bus",
        description="four busy IPs, GEM, contended shared bus",
        ips=[
            IpDef(
                name=f"ip{index}",
                workload=WorkloadDef(
                    kind="high_activity", task_count=40, seed=101 + index,
                    name=f"ip{index}-busy",
                ),
                static_priority=index,
                bus_words_per_task=words[index - 1],
            )
            for index in range(1, 5)
        ],
        battery=BatteryDef(condition="low"),
        thermal=ThermalDef(condition="low"),
        gem=GemDef(enabled=True),
        bus=BusDef(enabled=True),
        max_time_ms=400.0,
    ).validate()


SPECS = {"gem-contended-bus": contended_bus_spec}


def schedule_fingerprint(name):
    """Kernel counters and raw result floats of one exact DPM run."""
    platform = SPECS[name]() if name in SPECS else name
    soc = run_scenario(platform, accuracy="exact").soc
    return {
        "kernel": soc.simulator.kernel.stats.as_dict(),
        "end_fs": soc.simulator.kernel.now_fs,
        "total_energy_j": soc.total_energy_j().hex(),
        "battery_remaining_j": soc.battery.remaining_j.hex(),
        "thermal_peak_c": soc.thermal.peak_c.hex(),
        "thermal_average_c": soc.thermal.average_c.hex(),
        "transitions": {
            instance.spec.name: instance.psm.transition_counts
            for instance in soc.instances
        },
        "battery_samples": len(soc.battery_monitor.history),
    }


@pytest.mark.parametrize("name", PLATFORMS + tuple(SPECS))
def test_exact_schedule_matches_golden(name):
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        golden = json.load(handle)[name]
    assert schedule_fingerprint(name) == golden


if __name__ == "__main__":
    figures = {name: schedule_fingerprint(name) for name in PLATFORMS + tuple(SPECS)}
    GOLDEN_PATH.write_text(json.dumps(figures, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
