#!/usr/bin/env python3
"""Compare DPM policies and idle-time predictors on the same workload.

The paper's LEM combines two mechanisms: the Table-1 rules choose *how fast*
to run each task (variable voltage), and the break-even analysis chooses
*how deep* to sleep when idle.  This example isolates their contributions by
comparing, on identical scenarios:

* ``always-on``     — the reference (no DPM at all),
* ``fixed-timeout`` — classic timeout shutdown,
* ``greedy-sleep``  — break-even shutdown with an EWMA prediction,
* ``oracle``        — break-even shutdown with perfect idle knowledge,
* ``paper``         — the full rule-based architecture,

and then the four idle-time predictors under the paper's policy.

Run with::

    python examples/policy_comparison.py
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.dpm import DpmSetup
from repro.experiments import policy_ablation, predictor_ablation
from repro.platform import single_ip_platform
from repro.sim import ms


def print_results(title: str, results: dict) -> None:
    rows = [
        [
            name,
            f"{metrics.energy_saving_pct:.1f}",
            f"{metrics.temperature_reduction_pct:.1f}",
            f"{metrics.average_delay_overhead_pct:.1f}",
        ]
        for name, metrics in results.items()
    ]
    print(
        format_table(
            ["configuration", "energy saving (%)", "temp. reduction (%)", "delay overhead (%)"],
            rows,
            title=title,
        )
    )
    print()


def main() -> None:
    print("Policy ablation under A1 conditions (battery Full, temperature Low)\n")
    scenario = single_ip_platform("ablation-full", "full", "low", task_count=24)
    setups = [
        DpmSetup.always_on(),
        DpmSetup.fixed_timeout(ms(2)),
        DpmSetup.greedy_sleep(),
        DpmSetup.oracle(),
        DpmSetup.paper(),
    ]
    print_results("Policies, battery Full", policy_ablation(scenario, setups))

    print("Policy ablation under A2 conditions (battery Low, temperature Low)\n")
    scenario_low = single_ip_platform("ablation-low", "low", "low", task_count=24)
    print_results("Policies, battery Low", policy_ablation(scenario_low, setups))

    print("Idle-time predictor ablation (paper policy, battery Full)\n")
    print_results("Predictors", predictor_ablation())

    print(
        "Reading the tables: the shutdown-only policies (greedy/oracle/timeout)\n"
        "save energy at almost no delay cost, but only the paper's rule-based\n"
        "policy can exploit a low battery by slowing execution down — that is\n"
        "exactly the A1 vs A2 trade-off of Table 2 in the paper."
    )


if __name__ == "__main__":
    main()
