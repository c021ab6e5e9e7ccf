#!/usr/bin/env python3
"""Reproduce the paper's Table 2 and simulation-speed figure from the CLI.

Runs all six scenarios (A1-A4 single IP, B and C with a GEM and four IPs),
each once with the paper's DPM and once with the always-on baseline, and
prints the reproduced rows next to the numbers printed in the paper.

Run with::

    python examples/table2_reproduction.py            # all rows
    python examples/table2_reproduction.py A2 B       # a subset
"""

from __future__ import annotations

import sys

from repro.analysis.report import render_comparison
from repro.experiments import reproduce_table2, simulation_speed_report
from repro.platform import paper_platforms, platform_by_name


def main(argv=None) -> None:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv:
        scenarios = [platform_by_name(name) for name in argv]
    else:
        scenarios = paper_platforms()

    print(f"Running {len(scenarios)} scenario(s): {', '.join(s.name for s in scenarios)}")
    print("Each scenario is simulated twice (paper DPM + always-on baseline).\n")

    results = reproduce_table2(scenarios)
    print(render_comparison(results))

    print("\nPer-IP breakdown of the DPM runs:")
    for metrics in results:
        for ip_name, stats in sorted(metrics.per_ip.items()):
            print(
                f"  {metrics.scenario:>2} {ip_name}: {int(stats['tasks'])} tasks, "
                f"{1e3 * stats['energy_j']:.2f} mJ, "
                f"mean delay overhead {stats['mean_delay_overhead_pct']:.0f} %, "
                f"{int(stats['transitions'])} PSM transitions"
            )

    # Each DPM run timed itself (the whole run, build included), so the speed
    # figure needs no extra simulation.
    print("\nSimulation speed (reference-clock cycles per wall-clock second):")
    print(simulation_speed_report(
        {metrics.scenario: metrics.kilocycles_per_second for metrics in results}
    ))


if __name__ == "__main__":
    main()
