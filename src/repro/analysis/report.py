"""Plain-text / markdown rendering of experiment results.

The experiment runners produce :class:`~repro.analysis.metrics.ScenarioMetrics`
records; this module turns them into the tables printed by the CLI and the
examples — including a side-by-side comparison with the values the paper
reports in its Table 2 and the mean error against them.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.analysis.metrics import ScenarioMetrics

__all__ = [
    "format_table",
    "render_table2",
    "render_comparison",
    "PAPER_KCYCLES_PER_S",
    "PAPER_TABLE2",
]

#: The paper's Table 2, exactly as printed (percentages).
PAPER_TABLE2: Dict[str, Dict[str, float]] = {
    "A1": {"energy_saving_pct": 39.0, "temperature_reduction_pct": 31.0, "average_delay_overhead_pct": 30.0},
    "A2": {"energy_saving_pct": 55.0, "temperature_reduction_pct": 21.0, "average_delay_overhead_pct": 339.0},
    "A3": {"energy_saving_pct": 39.0, "temperature_reduction_pct": 18.0, "average_delay_overhead_pct": 37.0},
    "A4": {"energy_saving_pct": 55.0, "temperature_reduction_pct": 18.0, "average_delay_overhead_pct": 339.0},
    "B": {"energy_saving_pct": 65.0, "temperature_reduction_pct": 19.0, "average_delay_overhead_pct": 242.0},
    "C": {"energy_saving_pct": 64.0, "temperature_reduction_pct": 18.0, "average_delay_overhead_pct": 253.0},
}

#: The paper's simulation speed: 35 Kcycle/s for simulation A, 7.5 for B and C.
PAPER_KCYCLES_PER_S: Dict[str, float] = {
    "A1": 35.0, "A2": 35.0, "A3": 35.0, "A4": 35.0, "B": 7.5, "C": 7.5,
}


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render a fixed-width text table."""
    columns = len(headers)
    for row in rows:
        if len(row) != columns:
            raise ValueError("every row must have as many cells as the header")
    cells = [[str(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in cells:
        for index, value in enumerate(row):
            widths[index] = max(widths[index], len(value))
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = " | ".join(header.ljust(widths[i]) for i, header in enumerate(headers))
    lines.append(header_line)
    lines.append("-+-".join("-" * width for width in widths))
    for row in cells:
        lines.append(" | ".join(value.ljust(widths[i]) for i, value in enumerate(row)))
    return "\n".join(lines)


def render_table2(results: Sequence[ScenarioMetrics], title: str = "Table 2 (reproduced)") -> str:
    """Render the reproduced Table 2 rows."""
    headers = ["Scenario", "Energy saving (%)", "Temperature reduction (%)", "Avg delay overhead (%)"]
    rows = [
        [
            result.scenario,
            f"{result.energy_saving_pct:.0f}",
            f"{result.temperature_reduction_pct:.0f}",
            f"{result.average_delay_overhead_pct:.0f}",
        ]
        for result in results
    ]
    return format_table(headers, rows, title=title)


def render_comparison(
    results: Sequence[ScenarioMetrics],
    paper: Mapping[str, Mapping[str, float]] = PAPER_TABLE2,
    title: str = "Paper vs. reproduction",
) -> str:
    """Render the measured values next to the paper's Table 2."""
    headers = [
        "Scenario",
        "Saving % (paper)",
        "Saving % (ours)",
        "Temp red. % (paper)",
        "Temp red. % (ours)",
        "Delay % (paper)",
        "Delay % (ours)",
    ]
    columns = ("energy_saving_pct", "temperature_reduction_pct", "average_delay_overhead_pct")
    rows = []
    for result in results:
        reference = paper.get(result.scenario, {})
        row = [result.scenario]
        for column in columns:
            row += [_fmt(reference.get(column)), f"{getattr(result, column):.0f}"]
        rows.append(row)
    # Mean |measured - paper| per column over the rows with a full reference,
    # from the unrounded metrics; the overall mean weighs every cell equally.
    referenced = [
        (result, paper[result.scenario]) for result in results
        if all(column in paper.get(result.scenario, {}) for column in columns)
    ]
    if not referenced:
        return format_table(headers, rows, title=title)
    means = [
        sum(abs(getattr(result, column) - reference[column]) for result, reference in referenced)
        / len(referenced)
        for column in columns
    ]
    rows.append(["mean |error| (pp)"] + [cell for mean in means for cell in ("", f"{mean:.2f}")])
    overall = sum(means) / len(means)
    return format_table(headers, rows, title=title) + f"\noverall mean |error|: {overall:.2f} pp"


def _fmt(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.0f}"
