#!/usr/bin/env python3
"""Custom platforms: user-defined SoCs as declarative, serializable specs.

This example exercises the :mod:`repro.platform` subsystem three ways:

1. load the shipped 8-IP asymmetric big.LITTLE spec
   (``examples/specs/custom_platform.json``), validate it and run it
   end-to-end against the always-on baseline;
2. build an equivalent-flavour platform fluently with
   :class:`~repro.platform.PlatformBuilder`, register it by name and run it
   through the ordinary ``run_comparison`` entry point;
3. round-trip the spec through TOML to show the serialization is lossless.

Run with::

    python examples/custom_platform.py
"""

from __future__ import annotations

import os
import tempfile

from repro.analysis import format_table
from repro.experiments import run_comparison
from repro.platform import (
    PlatformBuilder,
    load_platform,
    save_platform,
)

SPEC_PATH = os.path.join(os.path.dirname(__file__), "specs", "custom_platform.json")


def print_metrics(title: str, metrics) -> None:
    rows = [
        ["energy saving (%)", f"{metrics.energy_saving_pct:.1f}"],
        ["temperature reduction (%)", f"{metrics.temperature_reduction_pct:.1f}"],
        ["average delay overhead (%)", f"{metrics.average_delay_overhead_pct:.1f}"],
        ["tasks executed", str(metrics.tasks_executed)],
    ]
    print(format_table(["metric", "value"], rows, title=title))
    print()


def main() -> None:
    # 1. A platform from a file: the scenario is data, not code.
    spec = load_platform(SPEC_PATH)
    print(f"loaded platform {spec.name!r}: {len(spec.ips)} IPs, "
          f"GEM {'on' if spec.gem.enabled else 'off'}\n")
    metrics = run_comparison(spec)
    print_metrics(f"{spec.name} (from {os.path.basename(SPEC_PATH)})", metrics)

    # 2. The same idea built fluently and registered by name.
    (
        PlatformBuilder("quad-asym")
        .describe("2 fast + 2 slow IPs under a GEM, low battery")
        .battery("low")
        .thermal("low")
        .gem(high_priority_count=2)
        .policy("paper", predictor="adaptive")
        .ip("fast0", workload={"kind": "high_activity", "task_count": 10, "seed": 31},
            priority=1, max_frequency_hz=400e6)
        .ip("fast1", workload={"kind": "high_activity", "task_count": 10, "seed": 32},
            priority=2, max_frequency_hz=400e6)
        .ip("slow0", workload={"kind": "low_activity", "task_count": 10, "seed": 33},
            priority=3, max_frequency_hz=100e6, max_voltage_v=0.9)
        .ip("slow1", workload={"kind": "bursty", "burst_count": 2, "tasks_per_burst": 5,
                               "seed": 34},
            priority=4, max_frequency_hz=100e6, max_voltage_v=0.9)
        .max_time_ms(1000)
        .register()
    )
    metrics = run_comparison("quad-asym")  # resolved through the registry
    print_metrics("quad-asym (PlatformBuilder, registered by name)", metrics)

    # 3. Lossless TOML round trip.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "platform.toml")
        save_platform(spec, path)
        assert load_platform(path) == spec
        print(f"TOML round trip of {spec.name!r}: lossless "
              f"({os.path.getsize(path)} bytes)")


if __name__ == "__main__":
    main()
