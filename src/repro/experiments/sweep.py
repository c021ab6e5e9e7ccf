"""Parameter sweeps and ablations.

Beyond the six Table-2 rows, the library provides the sweeps a user of the
architecture would actually run:

* :func:`condition_sweep` — the full battery-level x temperature-level grid
  for the single-IP scenario (generalises A1–A4);
* :func:`policy_ablation` — the paper's rule-based policy against the
  always-on, greedy-sleep, fixed-timeout and oracle baselines on one scenario;
* :func:`predictor_ablation` — the rule-based policy with each idle-time
  predictor, isolating the value of better idle prediction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.metrics import ScenarioMetrics
from repro.dpm.controller import DpmSetup
from repro.experiments.runner import run_comparison
from repro.platform.registry import single_ip_platform
from repro.platform.spec import PlatformSpec
from repro.sim.simtime import ms

__all__ = ["condition_sweep", "policy_ablation", "predictor_ablation"]


def condition_sweep(
    battery_levels: Sequence[str] = ("full", "medium", "low"),
    temperature_levels: Sequence[str] = ("low", "high"),
    dpm: Optional[DpmSetup] = None,
    task_count: int = 30,
) -> List[ScenarioMetrics]:
    """Battery x temperature grid on the single-IP workload.

    Scenario names follow the pattern ``"<battery>/<temperature>"``.
    """
    results = []
    for battery in battery_levels:
        for temperature in temperature_levels:
            spec = single_ip_platform(
                f"{battery}/{temperature}", battery, temperature, task_count=task_count
            )
            results.append(run_comparison(spec, dpm=dpm))
    return results


def policy_ablation(
    scenario: "PlatformSpec | str | None" = None,
    setups: Optional[Sequence[DpmSetup]] = None,
) -> Dict[str, ScenarioMetrics]:
    """Compare DPM setups on one scenario (default: the A1 conditions).

    The always-on configuration is the comparison *baseline* for every entry,
    so its own row shows ~0 % saving by construction and serves as a sanity
    check.
    """
    scenario = scenario or single_ip_platform("ablation", "full", "low")
    if setups is None:
        setups = [
            DpmSetup.paper(),
            DpmSetup.greedy_sleep(),
            DpmSetup.fixed_timeout(ms(2)),
            DpmSetup.oracle(),
            DpmSetup.always_on(),
        ]
    results: Dict[str, ScenarioMetrics] = {}
    for setup in setups:
        results[setup.name] = run_comparison(scenario, dpm=setup)
    return results


def predictor_ablation(
    scenario: "PlatformSpec | str | None" = None,
    predictor_kinds: Sequence[str] = ("fixed", "last-value", "ewma", "adaptive"),
) -> Dict[str, ScenarioMetrics]:
    """Compare idle-time predictors under the paper's rule-based policy."""
    scenario = scenario or single_ip_platform("predictor-ablation", "full", "low")
    results: Dict[str, ScenarioMetrics] = {}
    for kind in predictor_kinds:
        setup = DpmSetup.with_predictor(kind)
        results[kind] = run_comparison(scenario, dpm=setup)
    return results
