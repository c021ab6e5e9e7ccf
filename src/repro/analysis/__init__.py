"""Analysis layer: evaluation metrics, PSM trace analysis and report rendering."""

from repro.analysis.export import (
    markdown_per_ip,
    markdown_report,
    markdown_speed,
    markdown_table2,
)
from repro.analysis.metrics import (
    ScenarioMetrics,
    average_delay_overhead,
    compare_runs,
    energy_saving,
    temperature_reduction,
)
from repro.analysis.report import PAPER_TABLE2, format_table, render_comparison
from repro.analysis.trace_analysis import (
    StateResidency,
    psm_residency,
    transition_summary,
)

__all__ = [
    "PAPER_TABLE2",
    "ScenarioMetrics",
    "StateResidency",
    "average_delay_overhead",
    "compare_runs",
    "energy_saving",
    "format_table",
    "markdown_per_ip",
    "markdown_report",
    "markdown_speed",
    "markdown_table2",
    "psm_residency",
    "render_comparison",
    "temperature_reduction",
    "transition_summary",
]
