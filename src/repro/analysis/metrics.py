"""Evaluation metrics.

The paper's Table 2 reports three figures per scenario, all relative to the
reference condition "task execution at the maximum clock frequency without
going to sleep or off mode":

* **energy saving (%)** — reduction of the total SoC energy;
* **temperature reduction (%)** — reduction of the average chip temperature
  rise above ambient;
* **average delay overhead (%)** — mean, over all executed tasks, of the
  extra latency of each task relative to its maximum-frequency execution
  time.

:func:`compare_runs` computes all three from a DPM run and a baseline run of
the same scenario; :class:`ScenarioMetrics` is the result record used by the
experiment runner, the report renderer and the campaign records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.errors import ExperimentError
from repro.soc.task import TaskExecution

__all__ = [
    "average_delay_overhead",
    "energy_saving",
    "temperature_reduction",
    "ScenarioMetrics",
    "compare_runs",
]


def energy_saving(baseline_energy_j: float, dpm_energy_j: float) -> float:
    """Fractional energy saving of the DPM run versus the baseline run."""
    if baseline_energy_j <= 0.0:
        raise ExperimentError("baseline energy must be positive")
    if dpm_energy_j < 0.0:
        raise ExperimentError("DPM energy must be non-negative")
    return (baseline_energy_j - dpm_energy_j) / baseline_energy_j


def temperature_reduction(baseline_rise_c: float, dpm_rise_c: float) -> float:
    """Fractional reduction of the average temperature rise above ambient."""
    if baseline_rise_c < 0.0 or dpm_rise_c < 0.0:
        raise ExperimentError("temperature rises must be non-negative")
    if baseline_rise_c == 0.0:
        return 0.0
    return (baseline_rise_c - dpm_rise_c) / baseline_rise_c


def average_delay_overhead(executions: Sequence[TaskExecution]) -> float:
    """Mean fractional delay overhead over the executed tasks."""
    if not executions:
        raise ExperimentError("cannot compute a delay overhead with no executed tasks")
    overheads = [execution.delay_overhead for execution in executions]
    return sum(overheads) / len(overheads)


@dataclass
class ScenarioMetrics:
    """Result record of one scenario (one row of Table 2)."""

    scenario: str
    energy_saving_pct: float
    temperature_reduction_pct: float
    average_delay_overhead_pct: float
    dpm_energy_j: float = 0.0
    baseline_energy_j: float = 0.0
    dpm_average_rise_c: float = 0.0
    baseline_average_rise_c: float = 0.0
    dpm_peak_c: float = 0.0
    baseline_peak_c: float = 0.0
    tasks_executed: int = 0
    simulated_time_s: float = 0.0
    wall_clock_s: float = 0.0
    kilocycles_per_second: float = 0.0
    per_ip: Dict[str, Dict[str, float]] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)
    # Shared-bus figures of the DPM run; all zero on bus-less platforms.
    bus_occupancy_pct: float = 0.0
    bus_transfer_count: int = 0
    bus_words_transferred: int = 0
    bus_average_wait_us: float = 0.0
    bus_cancelled_count: int = 0

    @property
    def has_bus_figures(self) -> bool:
        """True when the DPM run carried (or at least attempted) bus traffic."""
        return (self.bus_transfer_count > 0 or self.bus_occupancy_pct > 0.0
                or self.bus_cancelled_count > 0)

    def as_dict(self) -> dict:
        """Flat dictionary view (used by reports and campaign records)."""
        data = {
            "scenario": self.scenario,
            "energy_saving_pct": self.energy_saving_pct,
            "temperature_reduction_pct": self.temperature_reduction_pct,
            "average_delay_overhead_pct": self.average_delay_overhead_pct,
            "dpm_energy_j": self.dpm_energy_j,
            "baseline_energy_j": self.baseline_energy_j,
            "dpm_average_rise_c": self.dpm_average_rise_c,
            "baseline_average_rise_c": self.baseline_average_rise_c,
            "tasks_executed": self.tasks_executed,
            "simulated_time_s": self.simulated_time_s,
            "wall_clock_s": self.wall_clock_s,
            "kilocycles_per_second": self.kilocycles_per_second,
            **self.extra,
        }
        if self.has_bus_figures:
            # Only on bus-bearing runs: bus-less records stay byte-identical
            # with the archives of pre-bus campaign stores.
            data["bus_occupancy_pct"] = self.bus_occupancy_pct
            data["bus_transfer_count"] = self.bus_transfer_count
            data["bus_words_transferred"] = self.bus_words_transferred
            data["bus_average_wait_us"] = self.bus_average_wait_us
            data["bus_cancelled_count"] = self.bus_cancelled_count
        return data


def compare_runs(
    scenario: str,
    dpm_energy_j: float,
    baseline_energy_j: float,
    dpm_rise_c: float,
    baseline_rise_c: float,
    dpm_executions: Sequence[TaskExecution],
    dpm_peak_c: float = 0.0,
    baseline_peak_c: float = 0.0,
    simulated_time_s: float = 0.0,
    wall_clock_s: float = 0.0,
    kilocycles_per_second: float = 0.0,
    per_ip: Optional[Dict[str, Dict[str, float]]] = None,
    bus: Optional[Dict[str, float]] = None,
) -> ScenarioMetrics:
    """Build the :class:`ScenarioMetrics` record from two runs of a scenario.

    ``bus`` carries the DPM run's shared-bus figures (as produced by
    :meth:`repro.experiments.runner.RunArtifacts.bus_summary`); ``None`` on
    bus-less platforms.
    """
    saving = energy_saving(baseline_energy_j, dpm_energy_j)
    reduction = temperature_reduction(baseline_rise_c, dpm_rise_c)
    overhead = average_delay_overhead(dpm_executions)
    bus = bus or {}
    return ScenarioMetrics(
        scenario=scenario,
        energy_saving_pct=saving * 100.0,
        temperature_reduction_pct=reduction * 100.0,
        average_delay_overhead_pct=overhead * 100.0,
        dpm_energy_j=dpm_energy_j,
        baseline_energy_j=baseline_energy_j,
        dpm_average_rise_c=dpm_rise_c,
        baseline_average_rise_c=baseline_rise_c,
        dpm_peak_c=dpm_peak_c,
        baseline_peak_c=baseline_peak_c,
        tasks_executed=len(dpm_executions),
        simulated_time_s=simulated_time_s,
        wall_clock_s=wall_clock_s,
        kilocycles_per_second=kilocycles_per_second,
        per_ip=per_ip or {},
        bus_occupancy_pct=float(bus.get("occupancy_pct", 0.0)),
        bus_transfer_count=int(bus.get("transfer_count", 0)),
        bus_words_transferred=int(bus.get("words_transferred", 0)),
        bus_average_wait_us=float(bus.get("average_wait_us", 0.0)),
        bus_cancelled_count=int(bus.get("cancelled_count", 0)),
    )
