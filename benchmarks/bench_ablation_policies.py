"""Ablation: the paper's rule-based DPM against simpler policies.

DESIGN.md calls out the combination of (a) Table-1 DVFS selection and
(b) break-even-gated shutdown as the design choices worth ablating.  This
benchmark compares, on the A1 and A2 conditions:

* ``always-on``      — the reference itself (sanity row, ~0 % saving);
* ``fixed-timeout``  — classic timeout shutdown, no DVFS;
* ``greedy-sleep``   — break-even shutdown, no DVFS;
* ``oracle``         — perfect idle knowledge, no DVFS;
* ``paper``          — the full architecture.
"""

from __future__ import annotations

import pytest

from repro.dpm import DpmSetup
from repro.experiments import run_comparison
from repro.platform import single_ip_platform
from repro.sim import ms


def make_setups():
    return [
        DpmSetup.always_on(),
        DpmSetup.fixed_timeout(ms(2)),
        DpmSetup.greedy_sleep(),
        DpmSetup.oracle(),
        DpmSetup.paper(),
    ]


def run_ablation(battery: str):
    spec = single_ip_platform(f"ablation-{battery}", battery, "low", task_count=24)
    return {setup.name: run_comparison(spec, dpm=setup) for setup in make_setups()}


@pytest.mark.benchmark(group="ablation-policies")
def test_policy_ablation_full_battery(benchmark):
    """With a full battery the shutdown half dominates the saving."""
    results = benchmark.pedantic(run_ablation, args=("full",), rounds=1, iterations=1)
    for name, metrics in results.items():
        print(
            f"\n[ablation full/{name}] saving {metrics.energy_saving_pct:.0f}%, "
            f"delay {metrics.average_delay_overhead_pct:.0f}%"
        )
        benchmark.extra_info[f"{name}_saving_pct"] = round(metrics.energy_saving_pct, 1)
    assert abs(results["always-on"].energy_saving_pct) < 2.0
    assert results["greedy-sleep"].energy_saving_pct > 10.0
    assert results["paper"].energy_saving_pct > results["always-on"].energy_saving_pct + 20.0
    # The timeout policy wastes the timeout interval at idle power, so the
    # prediction-based policies must not save less than it.
    assert results["greedy-sleep"].energy_saving_pct >= results["fixed-timeout"].energy_saving_pct - 3.0


@pytest.mark.benchmark(group="ablation-policies")
def test_policy_ablation_low_battery(benchmark):
    """With a low battery only the paper's policy can trade speed for energy."""
    results = benchmark.pedantic(run_ablation, args=("low",), rounds=1, iterations=1)
    for name, metrics in results.items():
        print(
            f"\n[ablation low/{name}] saving {metrics.energy_saving_pct:.0f}%, "
            f"delay {metrics.average_delay_overhead_pct:.0f}%"
        )
    paper = results["paper"]
    best_shutdown_only = max(
        results[name].energy_saving_pct for name in ("greedy-sleep", "oracle", "fixed-timeout")
    )
    assert paper.energy_saving_pct > best_shutdown_only + 5.0
    assert paper.average_delay_overhead_pct > results["greedy-sleep"].average_delay_overhead_pct
