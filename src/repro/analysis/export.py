"""Markdown export of experiment results.

Reproduction reports are regenerated from code, so a report never drifts
from what the runners actually measured.  The exporter takes the
:class:`~repro.analysis.metrics.ScenarioMetrics` rows produced by the
experiment runner and renders:

* a markdown table comparing the measured values with the paper's Table 2,
* an optional per-IP breakdown section,
* an optional simulation-speed section.

Used by the ``repro-dpm report`` CLI subcommand and by tests.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.analysis.metrics import ScenarioMetrics
from repro.analysis.report import PAPER_KCYCLES_PER_S, PAPER_TABLE2

__all__ = ["markdown_table2", "markdown_per_ip", "markdown_speed", "markdown_report"]


def _md_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    lines = ["| " + " | ".join(headers) + " |", "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return "\n".join(lines)


def markdown_table2(
    results: Sequence[ScenarioMetrics],
    paper: Mapping[str, Mapping[str, float]] = PAPER_TABLE2,
) -> str:
    """Markdown table of measured rows next to the paper's Table 2."""
    headers = [
        "Scenario",
        "Saving % (paper)",
        "Saving % (ours)",
        "Temp. red. % (paper)",
        "Temp. red. % (ours)",
        "Delay % (paper)",
        "Delay % (ours)",
    ]
    rows = []
    for result in results:
        reference = paper.get(result.scenario, {})

        def fmt(key):
            value = reference.get(key)
            return "-" if value is None else f"{value:.0f}"

        rows.append(
            [
                result.scenario,
                fmt("energy_saving_pct"),
                f"{result.energy_saving_pct:.0f}",
                fmt("temperature_reduction_pct"),
                f"{result.temperature_reduction_pct:.0f}",
                fmt("average_delay_overhead_pct"),
                f"{result.average_delay_overhead_pct:.0f}",
            ]
        )
    return _md_table(headers, rows)


def markdown_per_ip(results: Sequence[ScenarioMetrics]) -> str:
    """Markdown table with the per-IP breakdown of every scenario."""
    headers = ["Scenario", "IP", "Tasks", "Energy (mJ)", "Mean delay (%)", "Transitions"]
    rows = []
    for result in results:
        for ip_name, stats in sorted(result.per_ip.items()):
            rows.append(
                [
                    result.scenario,
                    ip_name,
                    int(stats.get("tasks", 0)),
                    f"{1e3 * stats.get('energy_j', 0.0):.2f}",
                    f"{stats.get('mean_delay_overhead_pct', 0.0):.0f}",
                    int(stats.get("transitions", 0)),
                ]
            )
    return _md_table(headers, rows)


def markdown_speed(speeds: Mapping[str, float]) -> str:
    """Markdown table of the simulation-speed figure."""
    headers = ["Scenario", "Paper (Kcycle/s)", "This implementation (Kcycle/s)"]
    rows = [
        [name, f"{PAPER_KCYCLES_PER_S.get(name, float('nan')):.1f}", f"{value:.1f}"]
        for name, value in speeds.items()
    ]
    return _md_table(headers, rows)


def markdown_report(
    results: Sequence[ScenarioMetrics],
    speeds: Optional[Mapping[str, float]] = None,
    title: str = "Reproduction report",
) -> str:
    """Full markdown report: Table 2, per-IP breakdown and optional speeds."""
    sections = [f"# {title}", "", "## Table 2 — paper vs. measured", "", markdown_table2(results)]
    if any(result.per_ip for result in results):
        sections += ["", "## Per-IP breakdown (DPM runs)", "", markdown_per_ip(results)]
    if speeds:
        sections += ["", "## Simulation speed", "", markdown_speed(speeds)]
    sections.append("")
    return "\n".join(sections)
