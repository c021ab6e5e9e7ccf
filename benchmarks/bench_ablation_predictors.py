"""Ablation: idle-time predictors under the paper's rule-based policy.

The paper only states that the LEM "makes a prediction of the idle time".
This benchmark quantifies how much the choice of predictor matters on a
bursty workload (short intra-burst gaps, long inter-burst pauses), where a
bad prediction either misses deep-sleep opportunities or pays wake-up
latencies it should not.
"""

from __future__ import annotations

import pytest

from repro.dpm import DpmSetup
from repro.experiments import run_comparison
from repro.platform import PlatformSpec, WorkloadDef, single_ip_platform

PREDICTOR_KINDS = ("fixed", "last-value", "ewma", "adaptive")


def bursty_platform() -> PlatformSpec:
    """The A1 conditions with the scenario-A sequence swapped for bursts."""
    spec = single_ip_platform("bursty", "full", "low")
    spec.ips[0].workload = WorkloadDef(kind="bursty", burst_count=6, tasks_per_burst=6)
    return spec


def run_ablation():
    spec = bursty_platform()
    results = {}
    for kind in PREDICTOR_KINDS:
        results[kind] = run_comparison(spec, dpm=DpmSetup.with_predictor(kind))
    results["oracle"] = run_comparison(spec, dpm=DpmSetup.oracle())
    return results


@pytest.mark.benchmark(group="ablation-predictors")
def test_predictor_ablation_bursty_traffic(benchmark):
    results = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    for name, metrics in results.items():
        print(
            f"\n[predictor {name}] saving {metrics.energy_saving_pct:.0f}%, "
            f"delay {metrics.average_delay_overhead_pct:.0f}%"
        )
        benchmark.extra_info[f"{name}_saving_pct"] = round(metrics.energy_saving_pct, 1)
    # No predictor may make things worse than the always-on reference...
    for name, metrics in results.items():
        assert metrics.energy_saving_pct > 0.0, name
    # ...the oracle's perfect idle knowledge is the upper bound on saving...
    oracle_saving = results["oracle"].energy_saving_pct
    for name in PREDICTOR_KINDS:
        assert results[name].energy_saving_pct <= oracle_saving + 3.0, name
    # ...and the smoothing EWMA beats the naive last-value predictor on a
    # bursty pattern, where "next idle == previous idle" is exactly wrong.
    assert results["ewma"].energy_saving_pct > results["last-value"].energy_saving_pct
