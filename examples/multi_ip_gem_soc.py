#!/usr/bin/env python3
"""A four-IP SoC with a Global Energy Manager, shared bus and state tracing.

This example builds the full architecture of the paper's Fig. 1 — four IP
blocks, each with its own PSM and LEM, a GEM, a battery monitor, a thermal
sensor, a supplementary fan and a shared bus — and runs it under a low
battery so the GEM's priority gating is visible.  It then prints:

* which power states every IP visited (state residency),
* the GEM's enable decisions and fan activity,
* the bus occupancy,
* and writes a VCD waveform of the four PSM states and the bus busy line
  that can be opened in GTKWave.

Run with::

    python examples/multi_ip_gem_soc.py [output.vcd]
"""

from __future__ import annotations

import sys

from repro.analysis import format_table, psm_residency, transition_summary
from repro.battery import BatteryConfig
from repro.dpm import DpmSetup
from repro.obs import TraceRequest, TraceSession
from repro.sim import sec
from repro.soc import IpSpec, SocConfig, build_soc, high_activity_workload, low_activity_workload
from repro.thermal import ThermalConfig


def build():
    """Four IPs: two busy high-priority ones, two mostly idle low-priority ones."""
    specs = [
        IpSpec(
            name="cpu",
            workload=high_activity_workload(task_count=20, seed=1, name="cpu"),
            static_priority=1,
            bus_words_per_task=256,
        ),
        IpSpec(
            name="dsp",
            workload=high_activity_workload(task_count=20, seed=2, name="dsp"),
            static_priority=2,
            bus_words_per_task=512,
        ),
        IpSpec(
            name="crypto",
            workload=low_activity_workload(task_count=12, seed=3, name="crypto"),
            static_priority=3,
            bus_words_per_task=128,
        ),
        IpSpec(
            name="io",
            workload=low_activity_workload(task_count=12, seed=4, name="io"),
            static_priority=4,
            bus_words_per_task=64,
        ),
    ]
    config = SocConfig(
        name="fig1_soc",
        battery=BatteryConfig(capacity_j=250.0, initial_state_of_charge=0.22),
        thermal=ThermalConfig(ambient_c=35.0, initial_c=35.0, thermal_resistance_c_per_w=15.0),
        use_gem=True,
        with_bus=True,
    )
    return build_soc(specs, config, DpmSetup.paper())


def main(argv=None) -> None:
    argv = list(sys.argv[1:] if argv is None else argv)
    vcd_path = argv[0] if argv else "fig1_soc_states.vcd"

    soc = build()
    print("Design hierarchy (Fig. 1):")
    print(soc.design_tree())

    session = TraceSession(TraceRequest(format="vcd", path=vcd_path), stem=soc.name)
    session.attach(soc)
    end_time = soc.run_until_done(max_time=sec(5))
    session.finish(end_time=end_time)
    print(f"\nSimulated {end_time} — all IPs done: {soc.all_done}")
    print(f"Battery: {soc.battery.level} ({100 * soc.battery.state_of_charge:.1f} % charge left)")
    print(f"Chip temperature: {soc.thermal.temperature_c:.1f} C "
          f"(peak {soc.thermal.peak_c:.1f} C, class {soc.thermal.level})")

    print("\nPer-IP summary:")
    rows = []
    for instance in soc.instances:
        residency = psm_residency(instance.psm)
        rows.append(
            [
                instance.spec.name,
                instance.spec.static_priority,
                instance.ip.tasks_executed,
                f"{1e3 * instance.ip.energy_account.total_j:.2f}",
                f"{100 * residency.sleep_fraction():.0f}%",
                str(residency.dominant_state()),
                instance.psm.transition_count,
            ]
        )
    print(
        format_table(
            ["IP", "priority", "tasks", "energy (mJ)", "time asleep", "dominant state", "transitions"],
            rows,
        )
    )

    print("\nGEM:")
    print(f"  evaluations: {soc.gem.evaluation_count}")
    print(f"  final enable map: {soc.gem.enabled_map}")
    print(f"  fan activations: {soc.gem.fan_activations} "
          f"(fan on for {soc.fan.total_on_time.seconds * 1e3:.1f} ms)")

    print("\nBus:")
    print(f"  transfers: {soc.bus.stats.transfer_count}, "
          f"words: {soc.bus.stats.words_transferred}, "
          f"occupancy: {100 * soc.bus.occupancy():.1f} %, "
          f"average grant wait: {soc.bus.stats.average_wait()}")

    print("\nPSM transitions across the SoC:")
    for key, count in sorted(transition_summary(soc.psms).items()):
        print(f"  {key}: {count}")

    print(f"\nWrote PSM state and bus waveforms to {vcd_path}")


if __name__ == "__main__":
    main()
