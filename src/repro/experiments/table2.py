"""Reproduction of the paper's Table 2 and simulation-speed figure.

:func:`reproduce_table2` runs every scenario (A1–A4, B, C) with the paper's
DPM and with the always-on baseline, returning one
:class:`~repro.analysis.metrics.ScenarioMetrics` per row.
:func:`table2_report` renders the side-by-side comparison with the numbers
printed in the paper, and :func:`simulation_speed_report` reproduces the
"35 Kcycle/s (sim. A) and 7.5 Kcycle/s (B and C)" throughput figure for this
implementation.  Every Kcycle/s figure is
:meth:`~repro.experiments.runner.RunArtifacts.kilocycles_per_second`, which
times the whole :func:`~repro.experiments.runner.run_scenario` call, so a
Table-2 result already carries the speed of its DPM run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.metrics import ScenarioMetrics
from repro.analysis.report import (
    PAPER_KCYCLES_PER_S,
    format_table,
    render_comparison,
    render_table2,
)
from repro.dpm.controller import DpmSetup
from repro.experiments.runner import run_comparison, run_scenario
from repro.platform.registry import paper_platforms
from repro.platform.spec import PlatformSpec

__all__ = [
    "reproduce_table2",
    "table2_report",
    "simulation_speed",
    "simulation_speed_report",
]


def reproduce_table2(
    scenarios: Optional[Sequence["PlatformSpec | str"]] = None,
    dpm: Optional[DpmSetup] = None,
    baseline: Optional[DpmSetup] = None,
    accuracy: Optional[str] = None,
) -> List[ScenarioMetrics]:
    """Run the given platforms (default: the six Table-2 rows) in order."""
    scenarios = list(scenarios) if scenarios is not None else paper_platforms()
    return [
        run_comparison(scenario, dpm=dpm, baseline=baseline, accuracy=accuracy)
        for scenario in scenarios
    ]


def table2_report(
    results: Optional[Sequence[ScenarioMetrics]] = None,
    include_paper: bool = True,
) -> str:
    """Human-readable Table-2 report (optionally next to the paper's values)."""
    if results is None:
        results = reproduce_table2()
    if include_paper:
        return render_comparison(results)
    return render_table2(results)


def simulation_speed(
    scenarios: Optional[Sequence["PlatformSpec | str"]] = None,
    dpm: Optional[DpmSetup] = None,
    accuracy: Optional[str] = None,
    backend: Optional[str] = None,
) -> Dict[str, float]:
    """Simulation throughput (kilo clock cycles per wall-clock second) per scenario.

    ``backend`` selects the kernel event-queue implementation (``python``,
    ``native`` or ``auto``; ``None`` consults ``REPRO_SIM_BACKEND``).
    """
    scenarios = list(scenarios) if scenarios is not None else paper_platforms()
    dpm = dpm or DpmSetup.paper()
    speeds: Dict[str, float] = {}
    for scenario in scenarios:
        artefacts = run_scenario(scenario, dpm, accuracy=accuracy, backend=backend)
        speeds[artefacts.scenario] = artefacts.kilocycles_per_second()
    return speeds


def simulation_speed_report(speeds: Optional[Dict[str, float]] = None) -> str:
    """Render the simulation-speed figure (paper: 35 Kcycle/s A, 7.5 Kcycle/s B/C)."""
    if speeds is None:
        speeds = simulation_speed()
    rows = [
        [name, f"{PAPER_KCYCLES_PER_S.get(name, float('nan')):.1f}", f"{value:.1f}"]
        for name, value in speeds.items()
    ]
    return format_table(
        ["Scenario", "Paper (Kcycle/s)", "This implementation (Kcycle/s)"],
        rows,
        title="Simulation speed",
    )
